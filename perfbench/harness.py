"""Drives the package in the checkout in-process, one op at a time.

CLI ops go through ``cktiles.cli.main(argv)`` with the system document on
standard input and stdout and stderr captured; library ops call the public
function directly.  Both are looked up on their module at call time, so the
tracer's wrappers are used when it is installed.  Only the call itself is
inside the timed bracket; recording what the op printed or returned happens
between brackets and is left out of the phase's wall time.
"""

import hashlib
import importlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("cli", "graph", "textile", "tiling", "ktheory", "closedform", "corpus", "matrices")

clock = time.perf_counter


class SetupError(RuntimeError):
    """The benchmark cannot run: the package or a checking tool is missing."""


def load_package(root):
    """Import cktiles from ``root/src`` and return its layer modules by name.

    Refuses to fall back to any other copy of the package on the path.
    """
    src = Path(root).resolve() / "src"
    if not (src / "cktiles" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'cktiles'}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("cktiles")
    if Path(package.__file__).resolve().parent != src / "cktiles":
        raise SetupError(f"imported cktiles from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"cktiles.{name}") for name in LAYERS}
    modules["cktiles"] = package
    return modules


def build_system(modules, doc):
    """The system a valid document describes, built through the library."""
    payload = json.loads(doc)
    textile, graph = modules["textile"], modules["graph"]
    kappa = payload.get("kappa", "canonical")
    if kappa == "exchange":
        return textile.exchange_system(payload["A"][0][0], payload["B"][0][0])
    if kappa == "canonical":
        return textile.canonical_system(payload["A"], payload["B"])
    ga = graph.graph_from_matrix(payload["A"], "A")
    gb = graph.graph_from_matrix(payload["B"], "B")
    mapping = {
        (ga.edge_by_key(tuple(alpha)), gb.edge_by_key(tuple(b))):
        (gb.edge_by_key(tuple(a)), ga.edge_by_key(tuple(beta)))
        for (alpha, b), (a, beta) in kappa
    }
    return textile.build_system(ga, gb, textile.Specification(domain=tuple(mapping), mapping=mapping))


@dataclass
class Outcome:
    """What one op did: exit code (None if an exception escaped), output and errors."""

    code: object
    digest: str
    text: str = ""
    stderr: str = ""
    crash: str = ""
    detail: dict = field(default_factory=dict)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Runner:
    """Executes ops against the loaded package."""

    def __init__(self, modules):
        self.modules = modules
        self.systems = {}

    def prepare(self, ops):
        """Build the systems that library ops take as input (part of set-up)."""
        for op in ops:
            if not op.is_cli and op.doc not in self.systems:
                self.systems[op.doc] = build_system(self.modules, op.doc)

    def execute(self, op):
        """Run one op; returns (latency in seconds, raw result)."""
        if op.is_cli:
            return self._execute_cli(op)
        module, name = op.call.split(".")
        fn = getattr(self.modules[module], name)
        system = self.systems[op.doc]
        start = clock()
        try:
            result = fn(system)
        except Exception as exc:  # a library op that raises is a failed op
            return clock() - start, (None, f"{type(exc).__name__}: {exc}")
        return clock() - start, (result, "")

    def _execute_cli(self, op):
        saved = sys.stdin, sys.stdout, sys.stderr
        out, err = io.StringIO(), io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.doc), out, err
        crash = ""
        try:
            main = self.modules["cli"].main
            start = clock()
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an exception escaping main is a failed op
                code, crash = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - start
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return latency, (code, out.getvalue(), err.getvalue(), crash)

    def record(self, op, raw, keep_text):
        """Turn a raw result into an Outcome; the output text is kept only if asked."""
        if op.is_cli:
            code, text, stderr, crash = raw
            return Outcome(
                code=code,
                digest=_sha256(text),
                text=text if keep_text else "",
                stderr=stderr,
                crash=crash,
            )
        result, crash = raw
        if crash:
            return Outcome(code=None, digest="", crash=crash)
        return Outcome(code=0, digest=_sha256(json.dumps(result) + "\n"), detail={"result": result})


@dataclass
class Phase:
    """The timed runs of whole passes over one op list."""

    ops: list
    passes: int = 0
    wall: float = 0.0
    latencies: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    unstable: set = field(default_factory=set)

    @property
    def attempted(self):
        return self.passes * len(self.ops)


def _record(phase, runner, op, latency, raw):
    phase.latencies[op.key].append(latency)
    first = op.key not in phase.outcomes
    outcome = runner.record(op, raw, keep_text=first)
    if first:
        phase.outcomes[op.key] = outcome
    elif outcome.digest != phase.outcomes[op.key].digest:
        phase.unstable.add(op.key)


def run_phase(runner, ops, passes):
    """Run ``passes`` whole passes over ``ops``.

    The phase's wall time excludes the bookkeeping between ops, which is
    timed and subtracted.
    """
    phase = Phase(ops=ops, latencies={op.key: [] for op in ops})
    bookkeeping = 0.0
    start = clock()
    for _ in range(passes):
        for op in ops:
            latency, raw = runner.execute(op)
            mark = clock()
            _record(phase, runner, op, latency, raw)
            del raw
            bookkeeping += clock() - mark
        phase.passes += 1
    phase.wall = clock() - start - bookkeeping
    return phase


def run_paired(runner, ops, passes, tracer):
    """Run every op of ``passes`` passes twice, untraced and traced; (plain, traced).

    The two runs of an op follow each other, untraced first on even ops and
    traced first on odd ones (ABBA), so drift of the machine and any benefit
    of going second fall on both phases alike.  The tracer is installed only
    around the traced run.  A phase's wall time is the sum of its ops'
    calls, each timed from outside ``execute``.
    """
    plain, traced = (Phase(ops=ops, latencies={op.key: [] for op in ops}) for _ in range(2))
    serial = 0
    for _ in range(passes):
        for op in ops:
            tracer.op = serial
            for phase in (plain, traced) if serial % 2 == 0 else (traced, plain):
                if phase is traced:
                    tracer.install()
                start = clock()
                latency, raw = runner.execute(op)
                phase.wall += clock() - start
                if phase is traced:
                    tracer.remove()
                _record(phase, runner, op, latency, raw)
                del raw
            serial += 1
        plain.passes += 1
        traced.passes += 1
    return plain, traced
