"""The metric catalogue: name, unit, direction, layer, and what each should move.

``BENCHMARK.json`` repeats name, unit and direction (and holds the
regression bound of each end-to-end metric); the self-test keeps the two in
step.  ``MOVES`` records, before any optimisation is measured, which
end-to-end metric on which workload a layer metric is expected to move.
"""

from harness import LAYERS

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("op_max_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Functions whose self time is reported on its own.
FUNCTIONS = (
    "ktheory.cokernel",
    "ktheory.kernel_rank",
    "ktheory.smith_normal_form",
    "ktheory.canonicalize",
    "textile.build_system",
    "textile.canonical_specification",
    "textile.validate_specification",
    "textile.require_commuting",
    "graph.graph_from_matrix",
    "graph.satisfies_condition_I",
    "tiling.is_transitive_search",
    "tiling.check_diagonal_property",
    "tiling.is_transitive_matrix",
    "closedform.closed_form_kgroups",
    "cli.main",
    "matrices.matmul",
    "matrices.det",
)

COUNTS = (
    ("ktheory.diagonalisations_per_kgroups", "count", "lower"),
    ("ktheory.snf_cells", "count", "lower"),
    ("ktheory.max_factor_bits", "bits", "lower"),
    ("tiling.bfs_per_search", "count", "lower"),
    ("textile.tiles", "count", "lower"),
    ("closedform.summands", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    # Failed ops over attempted ops.  It is 0 on most workloads, so it is
    # not an end-to-end metric with a bound; it is printed on every run and
    # also follows from the result's "attempted" and "failed".
    ("fail_frac", "ratio", "lower"),
)


def per_layer():
    """(name, unit, better) of every metric the traced run reports."""
    metrics = []
    for layer in LAYERS + ("bench",):
        if layer != "bench":
            metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.share", "ratio", "lower"))
    metrics += [(f"{name}.self_s", "s", "lower") for name in FUNCTIONS]
    return tuple(metrics) + COUNTS


# Metric-name prefix -> [(workload, end-to-end metrics it should move)];
# the longest matching prefix applies.  An empty list means it should move
# nothing end to end, and on workloads not listed the prediction is no
# change.  ktheory on corpus_check sees small matrices only, so its effect
# there should be small; op_max_ms on exchange_sweep is the entry-growth pair.
# The closed form is under 1% of every workload, so closedform.* and
# ktheory.canonicalize should move no end-to-end metric.
MOVES = {
    "ktheory.": [
        ("exchange_sweep", ["ops_per_s", "op_p50_ms", "op_max_ms"]),
        ("corpus_check", ["ops_per_s"]),
    ],
    "tiling.": [("staircase_search", ["ops_per_s", "op_p90_ms"])],
    "textile.": [("corpus_check", ["op_p50_ms", "ops_per_s"])],
    "graph.": [("corpus_check", ["op_p50_ms", "ops_per_s"])],
    "cli.": [("corpus_check", ["op_p50_ms", "ops_per_s"])],
    "matrices.": [("corpus_check", ["op_p50_ms", "ops_per_s"])],
    "corpus.": [("corpus_check", ["ops_per_s"])],
    "closedform.": [],
    "ktheory.canonicalize.": [],
    "bench.": [],
    "trace.": [],
    "fail_frac": [],
}

