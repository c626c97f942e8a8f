"""Output checks, run after the timed phase.

Every op is checked against ``reference.json`` (exit code and a SHA-256 of
stdout, or of a library result's JSON, recorded at the commit that
introduced the benchmark) and against the consistency fields the output
carries.  ``corpus_check`` documents also go through an independent K-group
oracle: the Smith form of A_k + B_k - I computed by sympy.  An invalid
document passes only when it exits with a documented code from 2 to 5,
prints a one-line message and no traceback, and writes nothing to stdout.
"""

import json
from pathlib import Path

from harness import SetupError, build_system
from workloads import KNOWN_CRASHERS

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DOCUMENTED_EXITS = range(6)
KNOWN_DEFECTS = frozenset(f"{command} {label}" for label, _, command in KNOWN_CRASHERS)


def load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["ops"]


def sympy_kgroups(system):
    """(K0 free rank, K0 torsion, K1 rank) of a built system, computed by sympy."""
    try:
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors
    except ImportError as exc:
        raise SetupError(f"the K-group oracle needs sympy: {exc}") from exc
    n = len(system.omega)
    if n == 0:
        return 0, [], 0
    a, b = system.a_kappa.data, system.b_kappa.data
    core = [[a[i][j] + b[i][j] - (i == j) for j in range(n)] for i in range(n)]
    factors = [abs(int(f)) for f in invariant_factors(Matrix(core), domain=ZZ)]
    zeros = factors.count(0) + n - len(factors)
    return zeros, sorted(f for f in factors if f > 1), zeros


NOT_A_REPORT = "stdout is not the expected JSON report"


def _structured_failures(op, report):
    """Consistency fields inside a JSON report that must hold."""
    command = op.argv[0]
    if command == "closedform" and report["agree"] is not True:
        return ["closed form and pipeline disagree"]
    if command in ("check", "kgroups") and report["kgroups"]["block_matrix_cross_check"] is not True:
        return ["block-matrix cross-check failed"]
    if command == "corpus":
        bad = [s["label"] for s in report["systems"] if s["block_matrix_cross_check"] is not True]
        if bad:
            return [f"block-matrix cross-check failed on {', '.join(bad)}"]
    return []


class Checker:
    """Checks outcomes; oracle results are cached per document."""

    def __init__(self, modules, reference):
        self.modules = modules
        self.reference = reference
        self._oracle = {}

    def failures(self, op, outcome, workload):
        """Reasons the op failed; empty when it passed."""
        if not op.valid:
            return self._invalid_failures(outcome)
        if outcome.crash:
            return [f"exception escaped: {outcome.crash}"]
        ref = self.reference.get(op.key)
        if ref is None:
            return ["no reference output recorded for this op"]
        reasons = []
        if outcome.code not in DOCUMENTED_EXITS:
            reasons.append(f"undocumented exit code {outcome.code}")
        if outcome.code != ref["exit"]:
            reasons.append(f"exit code {outcome.code}, reference {ref['exit']}")
        if outcome.digest != ref["sha256"]:
            reasons.append("output differs from the reference")
        if op.is_cli:
            try:
                report = json.loads(outcome.text)
                reasons += _structured_failures(op, report)
                if workload == "corpus_check" and op.argv[0] in ("check", "kgroups"):
                    reasons += self._oracle_failures(op, report)
            except (ValueError, KeyError, TypeError):
                reasons.append(NOT_A_REPORT)
        elif op.call == "tiling.is_transitive_search":
            system = build_system(self.modules, op.doc)
            if outcome.detail["result"] != self.modules["tiling"].is_transitive_matrix(system):
                reasons.append("staircase search disagrees with the matrix criterion")
        return reasons

    def _invalid_failures(self, outcome):
        if outcome.crash:
            return [f"exception escaped: {outcome.crash}"]
        reasons = []
        if outcome.code not in range(2, 6):
            reasons.append(f"exit code {outcome.code}, expected one of 2..5")
        lines = outcome.stderr.splitlines()
        if len(lines) != 1:
            reasons.append(f"error message has {len(lines)} lines, expected 1")
        if "Traceback" in outcome.stderr:
            reasons.append("traceback printed")
        if outcome.text:
            reasons.append("wrote to stdout")
        return reasons

    def _oracle_failures(self, op, report):
        if op.doc not in self._oracle:
            self._oracle[op.doc] = sympy_kgroups(build_system(self.modules, op.doc))
        free, torsion, k1 = self._oracle[op.doc]
        groups = report["kgroups"]
        k0 = groups["k0"]
        if (k0["free_rank"], k0["torsion"], groups["k1"]["free_rank"]) != (free, torsion, k1):
            return [f"K-groups differ from the sympy oracle (K0 = Z^{free} + {torsion}, K1 = Z^{k1})"]
        return []


def check_phase(checker, phase, workload):
    """Failed op keys with reasons, counting every pass; and any unexpected failure."""
    failed = {}
    for op in {op.key: op for op in phase.ops}.values():
        reasons = checker.failures(op, phase.outcomes[op.key], workload)
        if op.key in phase.unstable:
            reasons.append("output changed from one pass to the next")
        if reasons:
            failed[op.key] = reasons
    unexpected = {k: v for k, v in failed.items() if k not in KNOWN_DEFECTS}
    return failed, unexpected
