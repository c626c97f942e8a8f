import json

import pytest

from cktiles.cli import main

EXCHANGE_2_3 = {"A": [[2]], "B": [[3]], "kappa": "exchange"}
IDENTITY_2 = {"A": [[1, 0], [0, 1]], "B": [[1, 0], [0, 1]], "kappa": "canonical"}
NONCOMMUTING = {"A": [[0, 1], [1, 0]], "B": [[1, 1], [0, 1]], "kappa": "canonical"}


def _write(tmp_path, payload, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exchange_2_3(tmp_path, capsys):
    path = _write(tmp_path, EXCHANGE_2_3)
    code, out, _ = _run(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["system"]["tiles"] == 6
    assert report["checks"]["transitive"]["ok"] is True
    assert report["checks"]["simplicity_criterion"]["ok"] is True
    assert report["kgroups"]["k0"]["text"] == "Z/8Z"
    assert report["kgroups"]["block_matrix_cross_check"] is True


def test_check_identity_reports_nontransitive_but_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, IDENTITY_2)
    code, out, _ = _run(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["transitive"]["ok"] is False
    assert "corner pair" in report["checks"]["transitive"]["detail"]


def test_check_noncommuting_exits_4_citing_entry(tmp_path, capsys):
    path = _write(tmp_path, NONCOMMUTING)
    code, out, err = _run(capsys, ["check", path])
    assert code == 4
    assert out == ""
    assert "entry (1,1)" in err


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, ["check", str(path)])
    assert code == 2
    assert "parse error" in err
    code, _, err = _run(capsys, ["check", _write(tmp_path, {"A": [[1]]})])
    assert code == 2  # missing B


def test_bad_matrix_exits_3(tmp_path, capsys):
    payload = {"A": [[-1]], "B": [[1]], "kappa": "canonical"}
    code, _, err = _run(capsys, ["check", _write(tmp_path, payload)])
    assert code == 3
    assert "input error" in err


def test_explicit_kappa_roundtrip(tmp_path, capsys):
    # the exchange specification for (2, 2), spelled out edge by edge
    entries = []
    for i in (1, 2):
        for k in (1, 2):
            entries.append([[[1, 1, i], [1, 1, k]], [[1, 1, k], [1, 1, i]]])
    payload = {"A": [[2]], "B": [[2]], "kappa": entries}
    code, out, _ = _run(capsys, ["kgroups", _write(tmp_path, payload)])
    assert code == 0
    report = json.loads(out)
    assert report["kgroups"]["k0"]["text"] == "Z/3Z"


def test_invalid_explicit_kappa_exits_5(tmp_path, capsys):
    entries = [
        [[[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]],
        [[[1, 1, 1], [1, 1, 2]], [[1, 1, 1], [1, 1, 1]]],
    ]
    payload = {"A": [[1]], "B": [[2]], "kappa": entries}
    code, _, err = _run(capsys, ["check", _write(tmp_path, payload)])
    assert code == 5
    assert "invalid specification" in err


@pytest.mark.parametrize("command", ["check", "kgroups", "tiles"])
@pytest.mark.parametrize(
    "payload, code, message",
    [
        (
            {"A": [[1, 0], [0, 1]], "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            3,
            "input error: vertex counts differ: 2 vs 3",
        ),
        (
            {"A": [[2]], "B": [[2]], "kappa": [[1, 2]]},
            2,
            "parse error: explicit kappa entries must be [[alpha,b],[a,beta]] pairs",
        ),
        ({"A": [[0]], "B": [[0]]}, 3, "input error: matrix A is not essential"),
        ({"A": [[1, 1], [1, 1]], "B": [[0, 0], [1, 1]]}, 3, "input error: matrix B is not essential"),
    ],
)
def test_rejected_input_exits_with_one_line(tmp_path, capsys, command, payload, code, message):
    exit_code, out, err = _run(capsys, [command, _write(tmp_path, payload)])
    assert exit_code == code
    assert out == ""
    assert err.startswith(message)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_kgroups_exchange_3_3(tmp_path, capsys):
    payload = {"A": [[3]], "B": [[3]], "kappa": "exchange"}
    code, out, _ = _run(capsys, ["kgroups", _write(tmp_path, payload)])
    assert code == 0
    report = json.loads(out)
    assert report["kgroups"]["k0"]["torsion"] == [2, 2, 2, 10]
    assert report["kgroups"]["k1"]["text"] == "0"


def test_emit_matrices_flag(tmp_path, capsys):
    path = _write(tmp_path, EXCHANGE_2_3)
    code, out, _ = _run(capsys, ["kgroups", path, "--emit-matrices"])
    assert code == 0
    report = json.loads(out)
    assert report["matrices"]["a_kappa"] == [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ]
    code, out, _ = _run(capsys, ["kgroups", path])
    assert "matrices" not in json.loads(out)


def test_closedform_command(tmp_path, capsys):
    code, out, _ = _run(capsys, ["closedform", "3", "6"])
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert report["closed_form"]["summands"] == [2, 2, 2, 2, 5, 1, 80]
    assert report["closed_form"]["euclid"]["quotients"] == [2, 2]
    assert report["pipeline"]["k0"]["torsion"] == [2, 2, 2, 10, 80]


def test_sweep_command(tmp_path, capsys):
    code, out, _ = _run(capsys, ["sweep", "4", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["all_agree"] is True
    rows = {(r["N"], r["M"]): r for r in report["rows"]}
    assert rows[(2, 3)]["invariant_factors"] == [8]
    assert rows[(2, 5)]["invariant_factors"] == [24]  # M^2 - 1
    assert all(r["agree"] for r in report["rows"])
    assert len(report["rows"]) == len([1 for n in (2, 3, 4) for m in range(n, 6)])


def test_sweep_rejects_bad_bounds(capsys):
    code, _, err = _run(capsys, ["sweep", "1", "4"])
    assert code == 3


def test_tiles_command(tmp_path, capsys):
    path = _write(tmp_path, EXCHANGE_2_3)
    code, out, _ = _run(capsys, ["tiles", path])
    assert code == 0
    report = json.loads(out)
    assert len(report["tiles"]) == 6
    first = report["tiles"][0]
    assert first["top"] == [1, 1, 1] and first["right"] == [1, 1, 1]
    assert first["left"] == first["right"] and first["bottom"] == first["top"]


def test_witness_command_found(tmp_path, capsys):
    path = _write(tmp_path, EXCHANGE_2_3)
    code, out, _ = _run(capsys, ["witness", "0", "5", path])
    assert code == 0
    report = json.loads(out)
    assert report["found"] is True
    moves = report["witness"]["moves"]
    assert "right" in moves and "down" in moves
    i, j = report["witness"]["end_position"]
    assert j < 0 < i


def test_witness_command_not_found(tmp_path, capsys):
    path = _write(tmp_path, IDENTITY_2)
    code, out, _ = _run(capsys, ["witness", "0", "1", path, "--max-steps", "16"])
    assert code == 0
    report = json.loads(out)
    assert report["found"] is False
    code, _, _ = _run(capsys, ["witness", "0", "99", path])
    assert code == 3  # out-of-range tile index


def test_corpus_command(capsys):
    code, out, _ = _run(capsys, ["corpus", "--count", "4", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    labels = [s["label"] for s in report["systems"]]
    assert "exchange(2,3)" in labels
    assert any(label.startswith("identity") for label in labels)
    assert all(s["block_matrix_cross_check"] for s in report["systems"])


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = _write(tmp_path, EXCHANGE_2_3)
    _, first, _ = _run(capsys, ["check", path])
    _, second, _ = _run(capsys, ["check", path])
    assert first == second
    _, pretty, _ = _run(capsys, ["check", path, "--pretty"])
    assert pretty != first
    assert "k0: " in pretty or "text: Z/8Z" in pretty


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXCHANGE_2_3)))
    code, out, _ = _run(capsys, ["kgroups"])
    assert code == 0
    assert json.loads(out)["kgroups"]["k0"]["text"] == "Z/8Z"
