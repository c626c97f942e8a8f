"""The benchmark finds every name it reads in the package.

``perfbench/tracer.py`` wraps the ``IntMatrix`` methods it lists by name
(a missing one raises ``KeyError``), and ``summarize`` looks traced
functions up by span name (a missing one raises ``ValueError``); it also
takes ``len()`` of what ``canonicalize`` is given.  Every function whose
self time ``perfbench/metrics.py`` reports must be wrapped too, or its metric
silently reads 0.  The benchmark's set-up builds systems through
``perfbench/harness.build_system``, which calls the library directly.  A
rename or deletion in the package therefore fails here rather than inside
``perfbench/run.py``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]

# the span names tracer.summarize looks up with names.index
SUMMARIZED = (
    "ktheory.cokernel",
    "ktheory.smith_normal_form",
    "ktheory.canonicalize",
    "tiling.is_transitive_search",
    "tiling.find_transitivity_witness",
    "textile.build_system",
    "closedform.closed_form_kgroups",
)


def _perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import harness
        import metrics
        import tracer
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return harness, metrics, tracer, workloads


def test_tracer_finds_every_name_it_reads():
    harness, metrics, tracer, _ = _perfbench()
    modules = harness.load_package(ROOT)
    traced = tracer.Tracer(modules)
    wrapped = [f"matrices.{m.strip('_')}" for m in tracer.MATRIX_METHODS]
    for name in wrapped + list(SUMMARIZED) + list(metrics.FUNCTIONS):
        assert name in traced.names
    traced.install()
    try:
        traced.op = 0
        groups = modules["ktheory"].kgroups_of_system(modules["textile"].exchange_system(2, 3))
    finally:
        traced.remove()
    called = [traced.names[span[1]] for span in traced.spans]
    assert "ktheory.canonicalize" in called  # cokernel's normal form, given a list
    summary = tracer.summarize(traced, [], SimpleNamespace(passes=1, wall=1.0), {})
    assert summary["max_factor_bits"] == groups.k0.torsion[-1].bit_length() == 4


def test_benchmark_builds_the_systems_the_cli_builds():
    harness, _, _, workloads = _perfbench()
    modules = harness.load_package(ROOT)
    cli = modules["cli"]
    first = {}
    for op in workloads.pool("corpus_check"):
        if op.valid and op.doc:
            kappa = json.loads(op.doc).get("kappa", "canonical")
            first.setdefault(kappa if isinstance(kappa, str) else "explicit", op.doc)
    assert sorted(first) == ["canonical", "exchange", "explicit"]
    for doc in first.values():
        bench = harness.build_system(modules, doc)
        parsed = cli._parse_system(json.loads(doc))
        assert bench.tiles == parsed.tiles
        assert bench.omega == parsed.omega
        assert bench.a_kappa == parsed.a_kappa
        assert bench.b_kappa == parsed.b_kappa
