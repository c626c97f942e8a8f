"""The benchmark's own tests, at a tiny scale.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_ops(workload, seed):
    """A few cheap ops of the real op list, keeping one known crasher if present."""
    ops = workloads.op_list(workload, seed)
    crashers = [op for op in ops if op.key in checks.KNOWN_DEFECTS][:1]
    cheap = [
        op for op in ops
        if op.key not in checks.KNOWN_DEFECTS
        and "corpus" not in op.argv
        and "is_transitive_search exchange" not in op.key
    ]
    return cheap[:4] + crashers


@pytest.fixture(scope="module")
def modules():
    return harness.load_package(run.ROOT)


def run_tiny(monkeypatch, capsys, workload, trace, reference=None):
    monkeypatch.setattr(run, "op_list", tiny_ops)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    if reference is not None:
        monkeypatch.setattr(run, "load_reference", lambda: reference)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace):
    lines, result = run_tiny(monkeypatch, capsys, "corpus_check", trace)
    declared = BENCHMARK["end_to_end"] if trace == 0 else BENCHMARK["per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines)
    assert any(line.startswith("fail_frac = ") and " ratio" in line for line in lines)


def test_benchmark_json_matches_the_catalogue():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        metrics.per_layer()
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    for name, _, _ in metrics.per_layer():
        assert any(name.startswith(prefix) for prefix in metrics.MOVES), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_op_list(workload):
    first = workloads.op_list(workload, 7)
    assert first == workloads.op_list(workload, 7)
    assert [op.key for op in first] != [op.key for op in workloads.op_list(workload, 8)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_op_any_seed_can_draw(workload):
    reference = checks.load_reference()
    assert all(op.key in reference for op in workloads.pool(workload))


def test_corrupted_reference_output_counts_as_failed(monkeypatch, capsys):
    reference = checks.load_reference()
    _, clean = run_tiny(monkeypatch, capsys, "corpus_check", 0, reference)
    victim = next(op for op in tiny_ops("corpus_check", 3) if op.valid)
    corrupted = dict(reference)
    corrupted[victim.key] = dict(reference[victim.key], sha256="0" * 64)
    lines, result = run_tiny(monkeypatch, capsys, "corpus_check", 0, corrupted)
    assert result["failed"] == clean["failed"] + result["attempted"] // len(tiny_ops("corpus_check", 3))
    assert result["correct"] is False and clean["correct"] is True
    assert any(victim.key in line and "differs from the reference" in line for line in lines)
    fail_line = next(line for line in lines if line.startswith("fail_frac = "))
    assert float(fail_line.split()[2]) == result["failed"] / result["attempted"]


@pytest.mark.parametrize(
    "code, text", [(0, "not json\n"), (0, '{"verdict": "ok"}\n'), (0, "[]\n"), (2, "")]
)
def test_corrupted_output_counts_as_failed(modules, code, text):
    op = next(
        op for op in workloads.op_list("corpus_check", 3) if op.valid and op.argv[0] == "kgroups"
    )
    checker = checks.Checker(modules, checks.load_reference())
    phase = harness.run_phase(harness.Runner(modules), [op], 1)
    assert checks.check_phase(checker, phase, "corpus_check") == ({}, {})
    phase.outcomes[op.key] = harness.Outcome(code=code, digest=harness._sha256(text), text=text)
    failed, unexpected = checks.check_phase(checker, phase, "corpus_check")
    assert checks.NOT_A_REPORT in failed[op.key]
    assert "output differs from the reference" in failed[op.key]
    assert op.key in unexpected


def test_tracer_wraps_every_binding_site_and_restores_it(modules):
    originals = {
        "cli.cokernel": modules["cli"].cokernel,
        "closedform.kgroups_of_system": modules["closedform"].kgroups_of_system,
        "tiling.is_irreducible": modules["tiling"].is_irreducible,
    }
    matrix = modules["matrices"].IntMatrix
    methods = {name: vars(matrix)[name] for name in ("__matmul__", "det")}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        for dotted, fn in originals.items():
            layer, name = dotted.split(".")
            assert getattr(modules[layer], name) is not fn
            assert getattr(modules[layer], name).__wrapped__ is fn
        for name, fn in methods.items():
            assert vars(matrix)[name].__wrapped__ is fn
        system = modules["textile"].exchange_system(2, 3)
        modules["ktheory"].kgroups_of_system(system)
        names = [tracer.names[span[1]] for span in tracer.spans]
        assert names.count("ktheory.cokernel") == 2 and "ktheory.kgroups_of_system" in names
    finally:
        tracer.remove()
    for dotted, fn in originals.items():
        layer, name = dotted.split(".")
        assert getattr(modules[layer], name) is fn
    assert all(vars(matrix)[name] is fn for name, fn in methods.items())


def test_counts_at_the_seed_commit(modules):
    exchange = [op for op in workloads.op_list("exchange_sweep", 1) if "(2," in op.key or " 2 " in op.key]
    staircase = [workloads._search_op("exchange(2,3)", workloads._exchange_doc(2, 3))]
    kgroups = {key: ref["kgroups"] for key, ref in checks.load_reference().items()}
    runner = harness.Runner(modules)
    runner.prepare(staircase)
    for ops in (exchange, staircase):
        tracer = tracing.Tracer(modules)
        _, phase = harness.run_paired(runner, ops, 1, tracer)
        summary = tracing.summarize(tracer, ops, phase, dict(kgroups, **{staircase[0].key: 0}))
        if ops is exchange:
            assert summary["diagonalisations_per_kgroups"] == 3
        else:
            assert summary["bfs_per_search"] == 6 * 6


def test_missing_package_source_is_refused():
    with pytest.raises(harness.SetupError):
        harness.load_package(run.HERE)
