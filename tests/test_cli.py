import contextlib
import io
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktiles import cli, corpus, graph, ktheory, textile, tiling
from cktiles.cli import main
from cktiles.errors import InputError
from cktiles.ktheory import AbelianGroup
from cktiles.matrices import IntMatrix
from cktiles.textile import canonical_system

EXCHANGE_2_3 = {"A": [[2]], "B": [[3]], "kappa": "exchange"}
EXCHANGE_8_8 = {"A": [[8]], "B": [[8]], "kappa": "exchange"}
IDENTITY_2 = {"A": [[1, 0], [0, 1]], "B": [[1, 0], [0, 1]], "kappa": "canonical"}
NONCOMMUTING = {"A": [[0, 1], [1, 0]], "B": [[1, 1], [0, 1]], "kappa": "canonical"}
SWAP = [[0, 1], [1, 0]]
IDENTITY = [[1, 0], [0, 1]]


def _explicit(a, b, *entries):
    """A document with an explicit kappa; each entry lists the edge ids alpha, b, a, beta."""
    return {
        "A": a,
        "B": b,
        "kappa": [[[list(alpha), list(b_id)], [list(a_id), list(beta)]]
                  for alpha, b_id, a_id, beta in entries],
    }


def _write(tmp_path, payload, name="system.json"):
    """Write ``payload`` as JSON, or as it is if it is already bytes."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
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


def test_explicit_kappa_numbers_tiles_in_document_order(tmp_path, capsys):
    # an explicit kappa keeps the order its document lists the entries in,
    # and the tiles follow it
    entries = []
    for i in (1, 2):
        for k in (1, 2):
            entries.append([[[1, 1, i], [1, 1, k]], [[1, 1, k], [1, 1, i]]])
    tops = []
    for listed in (entries, entries[::-1]):
        payload = {"A": [[2]], "B": [[2]], "kappa": listed}
        code, out, _ = _run(capsys, ["tiles", _write(tmp_path, payload)])
        assert code == 0
        report = json.loads(out)
        tops.append([tile["top"] for tile in report["tiles"]])
    assert tops[0][0] == [1, 1, 1]
    assert tops[1][0] == [1, 1, 2]
    assert tops[1] == tops[0][::-1]


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
        (
            {
                "A": [[2]],
                "B": [[1]],
                "kappa": [
                    [[[True, 1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]],
                    [[[1, 1, 2], [1, 1, 1]], [[1, 1, 1], [1, 1, 2]]],
                ],
            },
            2,
            "parse error: edge identifiers must be [source, range, index] triples",
        ),
        ({"A": [[0]], "B": [[0]]}, 3, "input error: matrix A is not essential"),
        ({"A": [[1, 1], [1, 1]], "B": [[0, 0], [1, 1]]}, 3, "input error: matrix B is not essential"),
        pytest.param(
            b'\xff{"A": [[1]], "B": [[1]]}', 2, "parse error: cannot read", id="not-utf-8"
        ),
        pytest.param(
            b"[" * 200000, 2, "parse error: input is not valid JSON: maximum recursion depth",
            id="nested-past-recursion-limit",
        ),
        pytest.param(
            b'{"A": [[' + b"1" * 5000 + b"]]}", 2,
            "parse error: input is not valid JSON: Exceeds the limit", id="integer-of-5000-digits",
        ),
        pytest.param(
            _explicit([[2]], [[2]], ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
                      ((1, 1, 1), (1, 1, 2), (1, 1, 1), (1, 1, 2)),
                      ((1, 1, 2), (1, 1, 1), (1, 1, 2), (1, 1, 1))),
            5, "invalid specification: domain-mismatch: domain has 3 pairs, "
            "expected all 4 composable (alpha, b) pairs\n", id="domain-too-small",
        ),
        pytest.param(
            _explicit(SWAP, IDENTITY, ((1, 2, 1), (1, 1, 1), (1, 1, 1), (1, 2, 1)),
                      ((2, 1, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1))),
            5, "invalid specification: domain-mismatch: domain has 2 pairs, "
            "expected all 2 composable (alpha, b) pairs\n", id="domain-pair-not-composable",
        ),
        pytest.param(
            _explicit(SWAP, IDENTITY, ((1, 2, 1), (2, 2, 1), (1, 1, 1), (2, 1, 1)),
                      ((2, 1, 1), (1, 1, 1), (2, 2, 1), (1, 2, 1))),
            5, "invalid specification: endpoint-r(a)=s(beta): "
            "image (B(1,1)#1, A(2,1)#1) is not a composable (a, beta) pair\n",
            id="image-not-composable",
        ),
        pytest.param(
            _explicit([[2]], [[2]], *(((1, 1, i), (1, 1, k), (1, 1, 1), (1, 1, 1))
                                      for i in (1, 2) for k in (1, 2))),
            5, "invalid specification: not-injective: "
            "image (B(1,1)#1, A(1,1)#1) already taken by (A(1,1)#1, B(1,1)#1)\n",
            id="not-injective",
        ),
        pytest.param(
            _explicit(SWAP, IDENTITY, ((1, 2, 1), (2, 2, 1), (2, 2, 1), (2, 1, 1)),
                      ((2, 1, 1), (1, 1, 1), (1, 1, 1), (1, 2, 1))),
            5, "invalid specification: endpoint-s(alpha)=s(a): s(alpha)=1 but s(a)=2\n",
            id="sources-differ",
        ),
        pytest.param(
            _explicit([[1, 1], [1, 1]], IDENTITY, ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 2, 1)),
                      ((1, 2, 1), (2, 2, 1), (1, 1, 1), (1, 1, 1)),
                      ((2, 1, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1)),
                      ((2, 2, 1), (2, 2, 1), (2, 2, 1), (2, 2, 1))),
            5, "invalid specification: endpoint-r(b)=r(beta): r(b)=1 but r(beta)=2\n",
            id="ranges-differ",
        ),
    ],
)
def test_rejected_input_exits_with_one_line(tmp_path, capsys, command, payload, code, message):
    exit_code, out, err = _run(capsys, [command, _write(tmp_path, payload)])
    assert exit_code == code
    assert out == ""
    assert err.startswith(message)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_canonical_system_refuses_what_the_cli_refuses(tmp_path, capsys):
    a = [[1, 0], [0, 0]]
    with pytest.raises(InputError) as refused:
        canonical_system(a, a)
    assert str(refused.value) == "matrix A is not essential: it has a zero row or column"
    code, out, err = _run(capsys, ["check", _write(tmp_path, {"A": a, "B": a})])
    assert (code, out, err) == (3, "", f"input error: {refused.value}\n")


_DOCUMENTS = [
    EXCHANGE_2_3,
    IDENTITY_2,
    {"A": [[0, 1], [1, 0]], "B": [[1, 1], [1, 1]]},
    {"A": [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "B": [[1, 0, 1], [1, 1, 0], [0, 1, 1]]},
    {
        "A": [[2]],
        "B": [[2]],
        "kappa": [[[[1, 1, i], [1, 1, k]], [[1, 1, i], [1, 1, k]]] for i in (1, 2) for k in (1, 2)],
    },
]


def _count_calls(monkeypatch, home, name):
    """Wrap ``home.name`` at every place a cktiles module binds it; return the argument log."""
    original = getattr(home, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for key, module in list(sys.modules.items()):
        if key.startswith("cktiles.") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "payload", _DOCUMENTS,
    ids=["exchange-2-3", "identity-2", "swap-ones", "circulant-3", "explicit-2-2"],
)
def test_check_computes_each_input_fact_once(tmp_path, capsys, monkeypatch, payload):
    commutation = _count_calls(monkeypatch, textile, "require_commuting")
    essentiality = _count_calls(monkeypatch, graph, "is_essential")
    reachability = _count_calls(monkeypatch, graph, "unreachable_pair")
    graphs = _count_calls(monkeypatch, graph, "graph_from_matrix")
    code, _, _ = _run(capsys, ["check", _write(tmp_path, payload)])
    assert code == 0
    assert len(commutation) == 1
    rows = [m.to_lists() if isinstance(m, IntMatrix) else m for (m,) in essentiality]
    inputs = [payload["A"], payload["B"]]
    assert sorted(r for r in rows if r in inputs) == sorted(inputs)
    # H_k is essential by construction, so A and B are the only matrices tested
    assert len(rows) == 2
    assert len(reachability) == 1
    assert len(graphs) == 2


def test_input_gate_checks_each_matrix_once(tmp_path, capsys, monkeypatch):
    # essential_graphs checks A and B; graph_from_matrix and is_essential get
    # the checked rows, and require_commuting builds no IntMatrix
    rows = _count_calls(monkeypatch, graph, "_square_rows")
    built = []
    init = IntMatrix.__init__

    def recorded_init(self, data):
        init(self, data)
        built.append(self.rows)

    monkeypatch.setattr(IntMatrix, "__init__", recorded_init)
    for payload in _DOCUMENTS:
        rows.clear()
        assert _run(capsys, ["tiles", _write(tmp_path, payload)])[0] == 0
        assert [m for (m,) in rows if type(m) is not graph._SquareRows] == [
            payload["A"], payload["B"]
        ]
        assert built == []


def test_only_explicit_kappa_is_validated(tmp_path, capsys, monkeypatch):
    # canonical and exchange kappa are valid by construction (see
    # cli._check_payload); tests/test_textile.py validates them instead
    calls = _count_calls(monkeypatch, textile, "validate_specification")
    for payload in _DOCUMENTS:
        path = _write(tmp_path, payload)
        expected = 1 if isinstance(payload.get("kappa"), list) else 0
        for argv in (["check"], ["kgroups"], ["tiles"], ["witness", "0", "1"]):
            calls.clear()
            assert _run(capsys, argv + [path])[0] == 0
            assert len(calls) == expected, (argv, payload)


def test_check_corpus_and_witness_rescan_no_fact_the_construction_proves(
    tmp_path, capsys, monkeypatch
):
    calls = [
        _count_calls(monkeypatch, home, name)
        for home, name in (
            (textile, "check_commutation"),
            (graph, "satisfies_condition_I"),
            (tiling, "check_diagonal_property"),
            (tiling, "witness_is_valid"),
        )
    ]
    for payload in _DOCUMENTS:
        path = _write(tmp_path, payload)
        assert _run(capsys, ["check", path])[0] == 0
        assert _run(capsys, ["witness", "0", "1", path])[0] == 0
    assert _run(capsys, ["corpus", "--count", "2"])[0] == 0
    assert calls == [[], [], [], []]


@pytest.mark.parametrize("command", ["check", "kgroups"])
def test_k0_builds_no_dense_matrix_larger_than_a_core(tmp_path, capsys, monkeypatch, command):
    # both K0 presentations reach the cokernel as sparse rows read off the
    # tiles, and each core stays a list of rows through step (b); that no
    # IntMatrix is built on the way is checked on this document below
    cores = []
    eliminate = ktheory._unit_eliminated_core

    def recorded_core(rows, size):
        cores.append(eliminate(rows, size))
        return cores[-1]

    monkeypatch.setattr(ktheory, "_unit_eliminated_core", recorded_core)
    path = _write(tmp_path, EXCHANGE_8_8)
    assert _run(capsys, [command, path])[0] == 0
    assert len(cores) == 2


def test_no_command_but_emit_matrices_builds_an_int_matrix(tmp_path, capsys, monkeypatch):
    paths = [
        _write(tmp_path, payload, name=f"{i}.json")
        for i, payload in enumerate(_DOCUMENTS + [EXCHANGE_8_8])
    ]
    runs = [["closedform", "3", "7"], ["sweep", "4", "5"], ["corpus", "--count", "2"]]
    for path in paths:
        runs += [[command, path] for command in ("check", "kgroups", "tiles")]
        runs += [["witness", "0", "1", path], ["witness", "1", "0", path, "--max-steps", "1"]]
    unpatched = [_run(capsys, argv) for argv in runs]
    emitted = [_run(capsys, [command, paths[0], "--emit-matrices"])
               for command in ("check", "kgroups")]

    def refuse(self, data):
        raise AssertionError("an IntMatrix was built")

    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    assert [_run(capsys, argv) for argv in runs] == unpatched
    assert {code for code, _, _ in unpatched} == {0}
    for command, (code, out, _) in zip(("check", "kgroups"), emitted):
        assert code == 0 and len(json.loads(out)["matrices"]["h_kappa"]) == 12
        with pytest.raises(AssertionError, match="an IntMatrix was built"):
            main([command, paths[0], "--emit-matrices"])


@pytest.mark.parametrize("command", ["check", "kgroups"])
def test_failed_block_matrix_cross_check_exits_1_with_the_full_report(
    tmp_path, capsys, monkeypatch, command
):
    path = _write(tmp_path, EXCHANGE_2_3)
    expected = json.loads(_run(capsys, [command, path])[1])
    monkeypatch.setattr(cli, "block_matrix_k0", lambda sys_: AbelianGroup(0, (2,)))
    code, out, err = _run(capsys, [command, path])
    assert (code, err) == (1, "")
    expected["kgroups"]["k0_from_block_matrix"] = {"free_rank": 0, "torsion": [2], "text": "Z/2Z"}
    expected["kgroups"]["block_matrix_cross_check"] = False
    assert json.loads(out) == expected


def _outcomes(tmp_path, capsys):
    """Exit code, stdout and stderr of a good, a bad, a document and a help call."""
    path = _write(tmp_path, EXCHANGE_2_3)
    outcomes = []
    for argv in (["closedform", "2", "3"], ["closedform", "2"], ["kgroups", path], ["--help"]):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error and on --help
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_parser_built_once_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    once = _outcomes(tmp_path, capsys)
    assert [code for code, _, _ in once] == [0, 2, 0, 0]
    assert once[1][2].startswith("usage: cktiles closedform")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _outcomes(tmp_path, capsys) == once


def test_kgroups_enumerates_composable_pairs_once(tmp_path, capsys, monkeypatch):
    pairs_ab = _count_calls(monkeypatch, textile, "sigma_ab")
    pairs_ba = _count_calls(monkeypatch, textile, "sigma_ba")
    payload = {"A": [[0, 1], [1, 0]], "B": [[1, 1], [1, 1]], "kappa": "canonical"}
    code, _, _ = _run(capsys, ["kgroups", _write(tmp_path, payload)])
    assert code == 0
    assert (len(pairs_ab), len(pairs_ba)) == (1, 1)
    # the exchange specification lists its domain; validation only counts
    pairs_ab.clear()
    pairs_ba.clear()
    code, _, _ = _run(capsys, ["kgroups", _write(tmp_path, EXCHANGE_2_3)])
    assert code == 0
    assert (len(pairs_ab), len(pairs_ba)) == (1, 0)


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


def test_emit_matrices_is_refused_past_its_limit_before_any_k_group_work(
    tmp_path, capsys, monkeypatch
):
    # exchange(100, 150) has 15,000 corner pairs: its dense A_k, B_k and H_k
    # would print about 15 GB
    path = _write(tmp_path, {"A": [[100]], "B": [[150]], "kappa": "exchange"})

    def refuse(*args):
        raise AssertionError("a refused --emit-matrices report reached K-group or matrix work")

    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    for name in ("kgroups_of_system", "block_matrix_k0", "_unreachable_corner_pair"):
        monkeypatch.setattr(cli, name, refuse)
    message = (
        f"input error: --emit-matrices allows at most {cli.MAX_EMITTED} corner pairs, got 15000\n"
    )
    for command in ("check", "kgroups"):
        assert _run(capsys, [command, path, "--emit-matrices"]) == (3, "", message)


def test_emit_matrices_limit_admits_up_to_it_and_binds_only_the_flag(tmp_path, capsys, monkeypatch):
    # the largest golden --emit-matrices pin is exchange(11, 12), 132 corner pairs
    assert 132 <= cli.MAX_EMITTED <= 2000
    monkeypatch.setattr(cli, "MAX_EMITTED", 6)
    at_limit = _write(tmp_path, EXCHANGE_2_3)  # 6 corner pairs
    past_limit = _write(tmp_path, {"A": [[2]], "B": [[4]], "kappa": "exchange"}, name="2-4.json")
    for command in ("check", "kgroups"):
        code, out, _ = _run(capsys, [command, at_limit, "--emit-matrices"])
        assert code == 0 and len(json.loads(out)["matrices"]["a_kappa"]) == 6
        assert _run(capsys, [command, past_limit, "--emit-matrices"]) == (
            3, "", "input error: --emit-matrices allows at most 6 corner pairs, got 8\n"
        )
        assert _run(capsys, [command, past_limit])[0] == 0


def test_emit_matrices_is_refused_by_tiles(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["tiles", _write(tmp_path, EXCHANGE_2_3), "--emit-matrices"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --emit-matrices" in capsys.readouterr().err


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


def test_witness_takes_the_path_before_or_after_max_steps(tmp_path, capsys, monkeypatch):
    # argparse leaves the optional path empty when --max-steps follows TILE2
    path = _write(tmp_path, EXCHANGE_2_3)
    before = _run(capsys, ["witness", "0", "5", path, "--max-steps", "2"])
    assert before[0] == 0 and json.loads(before[1])["found"] is True
    assert _run(capsys, ["witness", "0", "5", "--max-steps", "2", path]) == before
    for stdin_args in ([], ["-"]):  # a bare "-" names standard input
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXCHANGE_2_3)))
        assert _run(capsys, ["witness", "0", "5", "--max-steps", "2", *stdin_args]) == before
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXCHANGE_2_3)))
    assert _run(capsys, ["witness", "0", "5", "-", "--max-steps", "2"]) == before
    for extra in (
        [path, "--max-steps", "2", path],
        ["--max-steps", "2", path, path],
        ["--max-steps", "2", "--bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "0", "5", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_corpus_command(capsys):
    code, out, _ = _run(capsys, ["corpus", "--count", "4", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    labels = [s["label"] for s in report["systems"]]
    assert "exchange(2,3)" in labels
    assert any(label.startswith("identity") for label in labels)
    assert all(s["block_matrix_cross_check"] for s in report["systems"])


def test_corpus_refuses_a_negative_count(capsys):
    code, out, err = _run(capsys, ["corpus", "--count", "-5"])
    assert code == 3
    assert out == ""
    assert err == "input error: circulant_pairs must be a nonnegative int, got -5\n"


def test_corpus_refuses_a_count_past_its_limit_before_any_system(capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    monkeypatch.setattr(corpus, "circulant_matrix", None)  # no pair is drawn either
    code, out, err = _run(capsys, ["corpus", "--count", "1000000000"])
    assert (code, out) == (3, "")
    assert err == (
        f"input error: circulant_pairs must be at most {corpus.MAX_CIRCULANT_PAIRS}, "
        "got 1000000000\n"
    )


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = _write(tmp_path, EXCHANGE_2_3)
    _, first, _ = _run(capsys, ["check", path])
    _, second, _ = _run(capsys, ["check", path])
    assert first == second
    _, pretty, _ = _run(capsys, ["check", path, "--pretty"])
    assert pretty != first
    assert "k0: " in pretty or "text: Z/8Z" in pretty


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXCHANGE_2_3)))
    code, out, _ = _run(capsys, ["kgroups"])
    assert code == 0
    assert json.loads(out)["kgroups"]["k0"]["text"] == "Z/8Z"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff{}"), encoding="utf-8"))
    code, out, err = _run(capsys, ["kgroups"])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: cannot read standard input: ")


class _CappedStream(io.StringIO):
    """A document that refuses any read past ``limit`` + 1 characters, or of everything."""

    def __init__(self, text, limit):
        super().__init__(text)
        self.limit, self.requested = limit, []

    def read(self, size=-1):
        self.requested.append(size)
        if size is None or size < 0 or size > self.limit + 1:
            raise AssertionError(f"read({size}) past the document limit {self.limit}")
        return super().read(size)


def test_document_is_refused_past_its_limit_after_reading_one_more(tmp_path, capsys, monkeypatch):
    # the largest document tier-1 feeds is 200,000 characters, perfbench's 527
    assert cli.MAX_DOCUMENT >= 30 * 10**6  # an explicit kappa at MAX_TILES is under 28 MB
    document = json.dumps(EXCHANGE_2_3)
    limit = len(document)
    monkeypatch.setattr(cli, "MAX_DOCUMENT", limit)
    message = f"input error: document too large: over the limit of {limit} characters\n"
    for command in (["check"], ["kgroups"], ["tiles"], ["witness", "0", "1"]):
        stream = _CappedStream(document, limit)
        monkeypatch.setattr("sys.stdin", stream)
        assert _run(capsys, command)[0] == 0  # at the limit
        stream = _CappedStream(document + " " * 10**6, limit)
        monkeypatch.setattr("sys.stdin", stream)
        assert _run(capsys, command) == (3, "", message)
        assert stream.requested == [limit + 1] and stream.tell() == limit + 1
    path = _write(tmp_path, (document + " " * 10**6).encode())
    opened = []

    def capped_open(name, mode, encoding):
        assert (name, mode, encoding) == (path, "r", "utf-8")
        opened.append(_CappedStream(open(name, mode, encoding=encoding).read(), limit))
        return opened[-1]

    monkeypatch.setattr(cli, "open", capped_open, raising=False)
    assert _run(capsys, ["check", path]) == (3, "", message)
    assert opened[0].requested == [limit + 1]
    monkeypatch.delattr(cli, "open")
    assert _run(capsys, ["kgroups", path]) == (3, "", message)


# --- fuzzing main over JSON documents -------------------------------------------

# Square matrices over 0..3 make the valid, noncommuting and badly glued
# systems likely; ragged rows, negatives and bools exercise the parser.
_ENTRY = st.integers(-2, 3) | st.booleans()
_MATRIX = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
) | st.lists(st.lists(_ENTRY, max_size=3), max_size=3)
_VERTEX = st.sampled_from([1, 1, 1, 2, 0])
_EDGE_ID = st.lists(_VERTEX, min_size=2, max_size=2).flatmap(
    lambda ends: st.integers(0, 3).map(lambda k: ends + [k])
)
_KAPPA = st.one_of(
    st.sampled_from(["canonical", "exchange"]),
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    st.lists(st.tuples(st.tuples(_EDGE_ID, _EDGE_ID), st.tuples(_EDGE_ID, _EDGE_ID)), max_size=6),
    st.recursive(_EDGE_ID | st.integers(-1, 3), lambda inner: st.lists(inner, max_size=3), max_leaves=12),
)


@st.composite
def _documents(draw):
    a = draw(_MATRIX)
    document = {"A": a, "B": draw(st.just(a) | _MATRIX)}
    if draw(st.booleans()):
        document["kappa"] = draw(_KAPPA)
    return document


def _refuse(*args):
    raise AssertionError("an over-limit system reached construction")


def _construction_sites():
    """(module, name) for every place a cktiles module binds a construction step."""
    sites = []
    for home, name in ((graph, "graph_from_matrix"), (textile, "_assemble"),
                       (textile, "require_commuting"), (textile, "validate_specification")):
        original = getattr(home, name)
        for key, module in list(sys.modules.items()):
            if key.startswith("cktiles.") and vars(module).get(name) is original:
                sites.append((module, name))
    return sites


# Whole documents as bytes on standard input: well-formed systems, wrong
# types, malformed JSON and text, and over-limit sizes.  Over-limit ones run with
# every construction step raising, so a size check that comes too late
# fails the test instead of allocating the system.
_FIELD = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.just(10**30) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["A", "B", "kappa", "x"]), inner, max_size=3),
    max_leaves=12,
)
_ODD_TEXTS = [
    b"", b"NaN", b"[" * 10**5, b"1" * 5000, b"\xef\xbb\xbf{}", b"\xff{}",
    b'{"A": [[1e999]], "B": [[1]]}', b'{"A": [[1]], "B": [[1]], "A": [[2]]}',
    b'{"A": [[1]], "B": [[1]], "kappa": "exchange"} x',
]


@st.composite
def _whole_documents(draw):
    """(document bytes, whether a size limit refuses it)."""
    kind = draw(st.sampled_from(["valid", "kappa", "typed", "malformed", "odd", "over"]))
    text = json.dumps(draw(st.sampled_from(_DOCUMENTS + [NONCOMMUTING]) | _documents()))
    if kind == "kappa":  # entries of a valid explicit kappa, some dropped, repeated or bent
        entries = st.sampled_from(_DOCUMENTS[-1]["kappa"]) | st.tuples(
            st.tuples(_EDGE_ID, _EDGE_ID), st.tuples(_EDGE_ID, _EDGE_ID)
        )
        text = json.dumps({"A": [[2]], "B": [[2]], "kappa": draw(st.lists(entries, max_size=5))})
    elif kind == "typed":
        fields = st.fixed_dictionaries({"A": _FIELD, "B": _FIELD}, optional={"kappa": _FIELD})
        text = json.dumps(draw(fields | _FIELD))
    elif kind == "malformed":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(["", "{", "}", "]", ",", ":", '"', "\\", "x"]))
    elif kind == "odd":
        return draw(st.sampled_from(_ODD_TEXTS) | st.binary(max_size=12)), False
    elif kind == "over":  # over MAX_TILES, and maybe MAX_EDGES too
        size = draw(st.integers(1, 3))
        least = math.isqrt(textile.MAX_TILES // size**3) + 1  # size**3 least**2 tiles
        a, b = (
            [[draw(st.integers(least, 10**40))] * size for _ in range(size)] for _ in "AB"
        )
        document = {"A": a, "B": b}
        if draw(st.booleans()):
            document["kappa"] = draw(_KAPPA)
        return json.dumps(document).encode(), True
    return text.encode(), False


def _assert_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code >= 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    return code


@settings(max_examples=150, deadline=None)
@given(_documents(), st.sampled_from([["check"], ["kgroups"], ["tiles"], ["witness", "0", "1"]]))
def test_main_exits_with_a_documented_code_on_any_document(document, argv):
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(document))):
        _assert_documented_exit(argv)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    _whole_documents(), st.sampled_from([["check"], ["kgroups"], ["tiles"], ["witness", "0", "1"]])
)
def test_main_exits_with_a_documented_code_on_any_whole_document(case, argv):
    data, over = case
    with contextlib.ExitStack() as stack:
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        stack.enter_context(mock.patch.object(sys, "stdin", stdin))
        if over:
            for module, name in _construction_sites():
                stack.enter_context(mock.patch.object(module, name, _refuse))
        code = _assert_documented_exit(argv)
    if over:
        assert code == 3


# sizes stay small: closedform is cheap at any size, but sweep and corpus
# build and check a system per value
_SIZE = st.integers(-3, 12)
_COMMANDS = st.one_of(
    st.tuples(st.just("closedform"), _SIZE, _SIZE),
    st.tuples(st.just("sweep"), st.integers(-3, 6), st.integers(-3, 6)),
    st.tuples(
        st.just("corpus"),
        st.just("--count"), st.integers(-3, 3),
        st.just("--seed"), st.integers(-(2**40), 2**40),
    ),
)


@settings(max_examples=100, deadline=None)
@given(_COMMANDS)
def test_main_exits_with_a_documented_code_on_any_size(argv):
    _assert_documented_exit([str(arg) for arg in argv])


# --- size limits, the entry gate and the JSON renderer ------------------------


def _refuse_to_build(monkeypatch):
    """Make every construction step raise, at every binding site, so that a
    missing size check fails here instead of allocating the system."""
    for module, name in _construction_sites():
        monkeypatch.setattr(module, name, _refuse)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"A": [[3000]], "B": [[3000]], "kappa": "exchange"},
         "input error: system too large: 9000000 tiles, over the limit of 250000\n"),
        ({"A": [[10**9]], "B": [[10**9]]},
         "input error: system too large: 2000000000 edges, over the limit of 100000\n"),
    ],
    ids=["exchange-3000", "entry-1e9"],
)
def test_over_limit_systems_are_refused_before_any_edge_exists(
    tmp_path, capsys, monkeypatch, payload, message
):
    _refuse_to_build(monkeypatch)
    path = _write(tmp_path, payload)
    for command in (["check"], ["kgroups"], ["tiles"], ["witness", "0", "1"]):
        assert _run(capsys, command + [path]) == (3, "", message)
    with pytest.raises(InputError, match="system too large"):
        canonical_system(payload["A"], payload["B"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["closedform", "600", "600"], "360000 tiles, over the limit of 250000"),
        (["closedform", str(10**30), str(10**30 + 1)],
         f"{2 * 10**30 + 1} edges, over the limit of 100000"),
        (["sweep", "600", "600"], "360000 tiles, over the limit of 250000"),
        # no pair has N > M: the largest is (501, 501)
        (["sweep", "600", "501"], "251001 tiles, over the limit of 250000"),
        (["sweep", "2", "200000"], "200002 edges, over the limit of 100000"),
    ],
)
def test_exchange_commands_are_refused_over_the_limits(capsys, monkeypatch, argv, message):
    _refuse_to_build(monkeypatch)
    assert _run(capsys, argv) == (3, "", f"input error: system too large: {message}\n")


@pytest.mark.parametrize("command", ["check", "kgroups"])
def test_running_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch, command):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(ktheory, "_unit_eliminated_core", out_of_memory)
    path = _write(tmp_path, EXCHANGE_2_3)
    assert _run(capsys, [command, path]) == (
        3, "", "input error: out of memory: the system is too large to finish\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["closedform", "1", str(10**30)], "require N > 1"),
        (["closedform", str(10**30), "5"], f"require N <= M (no silent swap), got N={10**30}, M=5"),
        (["sweep", "1", "10"], "sweep bounds must be at least 2"),
    ],
)
def test_exchange_commands_check_their_pair_before_the_limits(capsys, monkeypatch, argv, message):
    _refuse_to_build(monkeypatch)
    assert _run(capsys, argv) == (3, "", f"input error: {message}\n")


def test_exchange_system_goes_through_the_input_gate(monkeypatch):
    _refuse_to_build(monkeypatch)
    with pytest.raises(InputError, match="system too large: 360000 tiles"):
        textile.exchange_system(600, 600)
    with pytest.raises(InputError, match="matrix A is not essential"):
        textile.exchange_system(0, 3)


def test_limits_admit_exchange_200_300():
    assert textile.MAX_TILES >= 200 * 300 and textile.MAX_EDGES >= 200 + 300
    with pytest.raises(InputError, match="not essential"):  # checked before the limits
        textile.essential_graphs([[0]], [[10**9]])


def test_cli_reads_each_entry_type_once(tmp_path, capsys, monkeypatch):
    # cli._require_matrix reads the types; _square_rows then reads only the signs
    typed = _count_calls(monkeypatch, graph, "_int_rows")
    rows = _count_calls(monkeypatch, graph, "_square_rows")
    for payload in _DOCUMENTS:
        typed.clear()
        rows.clear()
        assert _run(capsys, ["check", _write(tmp_path, payload)])[0] == 0
        assert [value for (value,) in typed] == [payload["A"], payload["B"]]
        assert {type(m) for (m,) in rows} <= {graph._IntRows, graph._SquareRows}


@pytest.mark.parametrize(
    "payload, code, message",
    [
        ({"A": [[1, 0]], "B": [[True]]}, 2, 'parse error: field "B" must be'),
        ({"A": [[-1]], "B": [[1.5]]}, 2, 'parse error: field "B" must be'),
        ({"A": [[1, "x"]], "B": [[1, 0]]}, 2, 'parse error: field "A" must be'),
        ({"A": [[1], [2]], "B": [[-1]]}, 3, "input error: matrix must be square"),
        ({"A": [[1, 1], [1, 1]], "B": [[1, -2], [1, 1]]}, 3,
         "input error: matrix entries must be nonnegative, got -2"),
        ({"A": [[1, -1], [1]], "B": [[1]]}, 3, "input error: matrix entries must be nonnegative"),
    ],
)
def test_entry_types_of_both_matrices_come_before_shapes(tmp_path, capsys, payload, code, message):
    exit_code, out, err = _run(capsys, ["check", _write(tmp_path, payload)])
    assert (exit_code, out) == (code, "")
    assert err.startswith(message)


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=10**300)
    | st.text()
    | st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é ü ñ", "日本", "\U0001f600"])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_renderer_matches_json_dumps_with_indent(value):
    assert cli._render(value, False) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": {1, 2}}, [object()], {None: 1}])
def test_renderer_refuses_what_it_does_not_render(value):
    with pytest.raises(TypeError):
        cli._render(value, False)
