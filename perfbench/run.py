"""cktiles benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exchange_sweep --seed 1 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One closed-loop client on one thread drives the package in-process: it
makes whole passes over the seeded op list, as many as take about
``--seconds`` (by default ``run_seconds`` of BENCHMARK.json) on the
reference machine, at least one.
Outputs are checked against ``reference.json`` after the timed phase.

With ``--trace 0`` the run prints the end-to-end metrics; ``setup_s`` is the
median over several fresh processes, half spawned before the timed phase and
half after it, of the time from spawning one to its first timed op.  With
``--trace 1`` it runs every op of half as many passes twice, untraced and
with the outside-in tracer, in ABBA order; it writes the spans to
``perfbench/out`` and prints the per-layer metrics.  The last line of stdout
is the JSON result.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from checks import Checker, check_phase, load_reference
from harness import LAYERS, Runner, SetupError, clock, load_package, run_paired, run_phase
from metrics import FUNCTIONS, END_TO_END, per_layer
from tracer import Tracer, summarize
from workloads import WARMUP, WORKLOADS, op_list, passes_for, tile_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 12


def run_seconds():
    """The run length BENCHMARK.json sets."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    return args


def set_up(workload, seed):
    """Import the package, generate the inputs and run one untimed warm-up op."""
    modules = load_package(ROOT)
    ops = op_list(workload, seed)
    runner = Runner(modules)
    runner.prepare(ops + [WARMUP[workload]])
    runner.execute(WARMUP[workload])
    return modules, ops, runner


def measure_setup(args, probes):
    """Seconds from spawning a fresh process to its first timed op, per probe."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--probe-setup"]
    samples = []
    for _ in range(probes):
        start = clock()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            elapsed = clock() - start
            _, err = probe.communicate(timeout=120)
        if probe.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe failed: {err.strip()}")
        samples.append(elapsed)
    return samples


def tail_rank(n):
    """0-based rank of the p90 sample, or of the highest one with ten samples beyond."""
    rank = -(-9 * n // 10) - 1
    return max(0, min(rank, n - 11))


def latency_metrics(phase):
    """p50 and tail over every timed call of a phase, and its slowest op.

    Every call is one sample.  On a shared machine the pooled median varies
    less from run to run than a median of per-op medians, whose rank falls
    on the few samples of one or two ops.  The slowest op is the one with the
    highest median over its repetitions; the op list is fixed, so it is the
    same op on every run.
    """
    samples = sorted(x for v in phase.latencies.values() for x in v)
    n = len(samples)
    rank = tail_rank(n)
    slowest = max(phase.latencies, key=lambda key: statistics.median(phase.latencies[key]))
    return {
        "p50": statistics.median(samples),
        "tail": samples[rank],
        "tail_pct": 100 * (rank + 1) / n,
        "max": statistics.median(phase.latencies[slowest]),
        "max_op": slowest,
        "max_runs": len(phase.latencies[slowest]),
        "samples": n,
        "ops": len(phase.latencies),
    }


def _value(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase, setup, peak_mb, failed_ops):
    lat = latency_metrics(phase)
    units = {name: unit for name, unit, _ in END_TO_END}
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": phase.attempted / phase.wall,
        "op_p50_ms": 1000 * lat["p50"],
        "op_p90_ms": 1000 * lat["tail"],
        "op_max_ms": 1000 * lat["max"],
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "ops_per_s": f"{phase.attempted} ops in {phase.wall:.3f} s, {phase.passes} pass(es)",
        "op_p50_ms": f"median over {lat['samples']} timed calls of {lat['ops']} distinct ops",
        "op_p90_ms": f"p{lat['tail_pct']:.0f} over {lat['samples']} calls"
        + ("" if lat["tail_pct"] >= 90 else " (fewer than 10 samples beyond p90)"),
        "op_max_ms": f"slowest op: {lat['max_op']}, median of its {lat['max_runs']} run(s)",
        "peak_rss_mb": "ru_maxrss of this process after the timed phase",
    }
    lines = [f"{name} = {values[name]:.6g} {units[name]}  ({notes[name]})" for name in values]
    lines.append(
        f"fail_frac = {failed_ops / phase.attempted:.6g} ratio  "
        f"({failed_ops} of {phase.attempted} ops failed)"
    )
    return {name: _value(values[name], units[name]) for name in values}, lines


def overhead_frac(plain, traced):
    """1 - traced rate / untraced rate, as the median over the paired calls.

    For one call the rate ratio is untraced latency / traced latency.  The
    median keeps a single long op (exchange_sweep's growth pair) and the
    machine's drift during it from deciding the figure.
    """
    ratios = [
        p / t for key in plain.latencies for p, t in zip(plain.latencies[key], traced.latencies[key])
    ]
    return 1 - statistics.median(ratios)


def per_layer_metrics(summary, plain, traced, failed_ops, attempted):
    wall = summary["wall"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = summary["layer_calls"][layer]
        values[f"{layer}.self_s"] = summary["layer_self"][layer]
        values[f"{layer}.share"] = summary["layer_self"][layer] / wall
    values["bench.self_s"] = summary["bench_self"]
    values["bench.share"] = summary["bench_self"] / wall
    for name in FUNCTIONS:
        values[f"{name}.self_s"] = summary["fn_self"].get(name, 0.0)
    values["ktheory.diagonalisations_per_kgroups"] = summary["diagonalisations_per_kgroups"]
    values["ktheory.snf_cells"] = summary["snf_cells"]
    values["ktheory.max_factor_bits"] = summary["max_factor_bits"]
    values["tiling.bfs_per_search"] = summary["bfs_per_search"]
    values["textile.tiles"] = summary["tiles"]
    values["closedform.summands"] = summary["summands"]
    values["trace.overhead_frac"] = overhead_frac(plain, traced)
    values["fail_frac"] = failed_ops / attempted
    return {name: _value(values[name], unit) for name, unit, _ in per_layer()}


def trace_report(summary, ops, traced):
    """Human-readable accounting of the traced wall time, and the search breakdown."""
    wall = summary["wall"]
    lines = [f"traced wall time per pass: {wall:.6f} s over {traced.passes} pass(es)"]
    for layer in LAYERS:
        self_s = summary["layer_self"][layer]
        lines.append(f"  {layer:<11} self {self_s:12.6f} s  share {self_s / wall:8.4f}")
    lines.append(f"  {'benchmark':<11} self {summary['bench_self']:12.6f} s  "
                 f"share {summary['bench_self'] / wall:8.4f}")
    accounted = sum(summary["layer_self"].values()) + summary["bench_self"]
    lines.append(f"  layers + benchmark = {accounted:.6f} s of {wall:.6f} s")
    seen = set()
    for op_id, bfs in summary["searches"]:
        op = ops[op_id % len(ops)]
        if op.key in seen:
            continue
        seen.add(op.key)
        tiles = tile_count(op.doc)
        lines.append(f"  {op.key}: T = {tiles}, BFS calls = {bfs}, T^2 = {tiles * tiles}")
    return lines


def check(checker, phases, workload):
    """(failed op count, correct, report lines) over all phases."""
    failed_ops = 0
    correct = True
    lines = []
    for phase in phases:
        failed, unexpected = check_phase(checker, phase, workload)
        failed_ops += phase.passes * sum(op.key in failed for op in phase.ops)
        correct = correct and not unexpected
        for key, reasons in sorted(failed.items()):
            tag = "UNEXPECTED" if key in unexpected else "known defect"
            line = f"failed ({tag}): {key}: {'; '.join(reasons)}"
            if line not in lines:
                lines.append(line)
    return failed_ops, correct, lines


def run(args):
    reference = load_reference()
    setup = measure_setup(args, SETUP_PROBES // 2) if args.trace == 0 else []
    modules, ops, runner = set_up(args.workload, args.seed)
    if args.trace == 0:
        phases = [run_phase(runner, ops, passes_for(args.workload, args.seconds))]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += measure_setup(args, SETUP_PROBES - len(setup))
    else:
        tracer = Tracer(modules)
        origin = clock()
        try:
            plain, traced = run_paired(runner, ops, passes_for(args.workload, args.seconds / 2), tracer)
        finally:
            tracer.remove()
        phases = [plain, traced]
    checker = Checker(modules, reference)
    failed_ops, correct, lines = check(checker, phases, args.workload)
    attempted = sum(p.attempted for p in phases)
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass, "
          f"trace {args.trace}")
    if args.trace == 0:
        metrics, metric_lines = end_to_end(phases[0], setup, peak_mb, failed_ops)
    else:
        kgroups = {key: ref.get("kgroups", 0) for key, ref in reference.items()}
        summary = summarize(tracer, ops, traced, kgroups)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.tsv"
        tracer.write(spans_path, [op.key for op in ops], origin)
        metrics = per_layer_metrics(summary, plain, traced, failed_ops, attempted)
        metric_lines = trace_report(summary, ops, traced)
        metric_lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        metric_lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    for line in lines + metric_lines:
        print(line)
    result = {"correct": correct, "attempted": attempted, "failed": failed_ops, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.probe_setup:
            set_up(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        return run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
