"""Seeded op lists for the three benchmark workloads.

Every workload draws its ops from a finite pool that is fixed by
``POOL_SEED``; ``perfbench/reference.json`` holds the expected result of
every pool member, recorded at the commit that introduced the benchmark, so
outputs are checked whatever ``--seed`` is given.  The run seed fixes the
order of the op list and picks, stratum by stratum, which interchangeable
pool members a pass uses.  The costly ops (the entry-growth pair, the big
exchange searches, the largest circulants) are in every op list, so the
work per pass stays nearly the same from seed to seed.
"""

import json
import random
from dataclasses import dataclass
from itertools import combinations

POOL_SEED = 1201_1056

WORKLOADS = ("exchange_sweep", "corpus_check", "staircase_search")


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    A CLI op runs ``cktiles.cli.main(argv)`` with ``doc`` as standard input.
    A library op calls ``call`` (``"module.function"`` inside ``cktiles``)
    on the system built from ``doc`` during set-up.
    ``valid`` is false for documents that must be refused with an exit code
    from 2 to 5.
    """

    key: str
    argv: tuple = ()
    doc: str = ""
    call: str = ""
    valid: bool = True

    @property
    def is_cli(self):
        return not self.call


def _doc(a, b, kappa="canonical"):
    return json.dumps({"A": a, "B": b, "kappa": kappa}, separators=(",", ":"))


def _exchange_doc(n, m):
    return _doc([[n]], [[m]], "exchange")


def _cli(key, argv, doc="", valid=True):
    return Op(key=key, argv=tuple(argv), doc=doc, valid=valid)


# --- exchange_sweep -----------------------------------------------------------

EXCHANGE_GRID = 8
GROWTH_PAIR = (9, 14)
# Grid ops appear several times in a pass (spread out by the shuffle), so
# that each op's median latency rests on samples taken across the whole
# grid phase; the growth pair alone takes about 12 s and runs once.
GRID_REPEATS = 12
GROWTH_REPEATS = 1


def _exchange_ops():
    pairs = [(n, m) for n in range(2, EXCHANGE_GRID + 1) for m in range(n, EXCHANGE_GRID + 1)]
    ops = [_cli(f"closedform {n} {m}", ["closedform", str(n), str(m)]) for n, m in pairs]
    ops += [
        _cli(f"kgroups exchange({n},{m})", ["kgroups"], _exchange_doc(n, m)) for n, m in pairs
    ]
    n, m = GROWTH_PAIR
    return ops, _cli(f"closedform {n} {m}", ["closedform", str(n), str(m)])


def _exchange_pool():
    grid, growth = _exchange_ops()
    return [grid + [growth]]


# --- corpus_check -------------------------------------------------------------


def circulant(n, shifts):
    return [[1 if (j - i) % n in shifts else 0 for j in range(n)] for i in range(n)]


def _random_essential(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(m[i][j] for i in range(n)):
            m[rng.randrange(n)][j] = 1
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.3:
                m[i][j] = 1
    return m


def _edges(matrix):
    """Edge identifiers [source, range, index] in the package's canonical order."""
    n = len(matrix)
    return [
        [i + 1, j + 1, k]
        for i in range(n)
        for j in range(n)
        for k in range(1, matrix[i][j] + 1)
    ]


def explicit_kappa(rng, a, b):
    """A random endpoint-preserving bijection, written as an explicit kappa list.

    Paths alpha.b and a.beta with the same outer endpoints are matched by a
    random permutation inside each block; AB = BA makes the blocks equal in
    size, so the result is a valid specification.
    """
    ea, eb = _edges(a), _edges(b)
    blocks_ab, blocks_ba = {}, {}
    for alpha in ea:
        for e in eb:
            if alpha[1] == e[0]:
                blocks_ab.setdefault((alpha[0], e[1]), []).append([alpha, e])
    for e in eb:
        for beta in ea:
            if e[1] == beta[0]:
                blocks_ba.setdefault((e[0], beta[1]), []).append([e, beta])
    entries = []
    for key, domain in blocks_ab.items():
        images = list(blocks_ba[key])
        rng.shuffle(images)
        entries.extend([pair, image] for pair, image in zip(domain, images))
    return entries


# (n, |shifts of A|, |shifts of B|, documents)
CIRCULANT_STRATA = (
    (2, 1, 1, 2),
    (3, 1, 2, 4),
    (4, 1, 3, 4),
    (4, 2, 2, 5),
    (5, 2, 3, 5),
    (6, 2, 2, 5),
    (6, 3, 3, 5),
)
# Documents with variants come in this many; a run draws one of each.
VARIANTS = 4


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def relabel(matrix, perm):
    """The matrix with its vertices renumbered by ``perm``."""
    n = len(matrix)
    return [[matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _relabelled(rng, label, a, b):
    """Variants of the pair (A, B) under common vertex renumberings.

    A renumbered pair still commutes and builds an isomorphic system of the
    same size, so the variants cost about the same while their outputs
    differ.
    """
    n = len(a)
    perms = [list(range(n))] + [rng.sample(range(n), n) for _ in range(VARIANTS - 1)]
    return [(f"{label}~{v}", _doc(relabel(a, p), relabel(b, p))) for v, p in enumerate(perms)]


def _corpus_documents():
    """The valid documents of corpus_check, each as its list of variants.

    The circulant pairs, the largest documents, have one variant each, so
    the costliest ops (and the p90 rank among them) are the same for every
    seed; the seed varies the (A, I), (A, A) and explicit-kappa documents.
    """
    rng = random.Random(POOL_SEED)
    documents = []
    for n, ka, kb, count in CIRCULANT_STRATA:
        shift_pairs = [
            (sa, sb) for sa in combinations(range(n), ka) for sb in combinations(range(n), kb)
        ]
        rng.shuffle(shift_pairs)
        for sa, sb in shift_pairs[:count]:
            label = f"circulant({n};{','.join(map(str, sa))};{','.join(map(str, sb))})"
            documents.append([(label, _doc(circulant(n, sa), circulant(n, sb)))])
    for kind in ("pair-with-identity", "pair-with-self"):
        for n in (2, 3, 4):
            for idx in range(2):
                a = _random_essential(rng, n)
                b = _identity(n) if kind == "pair-with-identity" else a
                documents.append(_relabelled(rng, f"{kind}({n})#{idx}", a, b))
    for n in (2, 3, 4):
        documents.append([(f"identity({n})", _doc(_identity(n), _identity(n)))])
    for n in (2, 3, 4):
        for m in range(n, 5):
            documents.append([(f"exchange({n},{m})", _exchange_doc(n, m))])
    for idx in range(12):
        if idx % 2:
            a, b = [[rng.randint(2, 3)]], [[rng.randint(2, 4)]]
        else:
            n = rng.randint(2, 3)
            a = circulant(n, rng.sample(range(n), rng.randint(1, n)))
            b = circulant(n, rng.sample(range(n), rng.randint(1, n)))
        documents.append(
            [(f"explicit-kappa#{idx}~{v}", _doc(a, b, explicit_kappa(rng, a, b))) for v in range(VARIANTS)]
        )
    return documents


# Invalid documents: (label, document, command).  The first three are the
# known crashers that exit 1 with a traceback today; they stay in every op
# list so that fail_frac shows them until they are fixed.
KNOWN_CRASHERS = (
    ("crash-mismatched-sizes", _doc([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "kgroups"),
    ("crash-malformed-kappa-entry", _doc([[2]], [[2]], [[1, 2]]), "kgroups"),
    ("crash-check-zero-matrices", _doc([[0]], [[0]]), "check"),
)

INVALID_STRATA = (
    (
        "exit-2-parse",
        [
            ("parse-not-json", "{not json", "check"),
            ("parse-top-level-array", "[[1]]", "kgroups"),
            ("parse-missing-b", json.dumps({"A": [[1]]}), "check"),
            ("parse-float-entry", _doc([[1.5]], [[1]]), "kgroups"),
            ("parse-kappa-type", _doc([[2]], [[2]], 7), "check"),
            ("parse-bad-edge-id", _doc([[2]], [[2]], [[[[1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]]]), "kgroups"),
        ],
    ),
    (
        "exit-3-input",
        [
            ("input-negative-entry", _doc([[-1]], [[1]]), "check"),
            ("input-not-square", _doc([[1, 1]], [[1, 1]]), "kgroups"),
            ("input-exchange-2x2", _doc(_identity(2), _identity(2), "exchange"), "check"),
            ("input-exchange-one-loop", _exchange_doc(1, 3), "kgroups"),
            ("input-unknown-edge", _doc([[2]], [[2]], [[[[1, 1, 9], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]]]), "check"),
        ],
    ),
    (
        "exit-4-commutation",
        [
            ("commute-shear", _doc([[1, 1], [0, 1]], [[1, 0], [1, 1]]), "check"),
            ("commute-swap", _doc([[0, 1], [1, 0]], [[1, 1], [0, 1]]), "kgroups"),
            ("commute-3x3", _doc(circulant(3, (1,)), [[1, 1, 0], [0, 1, 0], [0, 0, 1]]), "check"),
        ],
    ),
    (
        "exit-5-specification",
        [
            ("spec-missing-entry", _doc([[2]], [[2]], [[[[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]]]), "kgroups"),
            (
                "spec-duplicate-entry",
                _doc([[1]], [[1]], [[[[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]]] * 2),
                "check",
            ),
            (
                "spec-not-injective",
                _doc([[2]], [[1]], [[[[1, 1, k], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]] for k in (1, 2)]),
                "kgroups",
            ),
        ],
    ),
)

# Two full corpus runs, the same in every op list.
CORPUS_SEEDS = (1302, 2012)


def _doc_ops(label, doc):
    return [_cli(f"check {label}", ["check"], doc), _cli(f"kgroups {label}", ["kgroups"], doc)]


def _invalid_op(label, doc, command):
    return _cli(f"{command} {label}", [command], doc, valid=False)


def _corpus_ops_fixed():
    ops = [_invalid_op(*entry) for entry in KNOWN_CRASHERS]
    return ops + [_cli(f"corpus --seed {s}", ["corpus", "--seed", str(s)]) for s in CORPUS_SEEDS]


def _corpus_pool():
    groups = [[op for label, doc in variants for op in _doc_ops(label, doc)] for variants in _corpus_documents()]
    groups += [[_invalid_op(*entry) for entry in cands] for _, cands in INVALID_STRATA]
    return groups + [_corpus_ops_fixed()]


def _corpus_ops(rng):
    ops = [op for variants in _corpus_documents() for op in _doc_ops(*rng.choice(variants))]
    ops += [_invalid_op(*rng.choice(cands)) for _, cands in INVALID_STRATA]
    return ops + _corpus_ops_fixed()


# --- staircase_search ---------------------------------------------------------

SEARCH_EXCHANGE = tuple((n, m) for n in range(4, 8) for m in range(n + 1, 9))

# (n, |shifts of A|, |shifts of B|, subgroup the shifts are drawn from or None).
# Shifts inside a proper subgroup split the graphs, so the system is not
# transitive and the failing breadth-first search runs to exhaustion.
SEARCH_CIRCULANT_STRATA = (
    (5, 2, 2, None),
    (4, 3, 2, None),
    (6, 2, 3, None),
    (5, 3, 3, None),
    (6, 3, 3, None),
    (6, 3, 2, (0, 2, 4)),
    (6, 2, 2, (0, 3)),
)
WITNESS_PAIRS_PER_SYSTEM = 12
WITNESS_OPS_PER_PASS = 96


def _search_circulants():
    """One circulant system per stratum, fixed by the pool seed."""
    rng = random.Random(POOL_SEED + 1)
    systems = []
    for n, ka, kb, sub in SEARCH_CIRCULANT_STRATA:
        base = sub or tuple(range(n))
        sa = tuple(sorted(rng.sample(base, ka)))
        sb = tuple(sorted(rng.sample(base, kb)))
        label = f"circulant({n};{','.join(map(str, sa))};{','.join(map(str, sb))})"
        systems.append((label, _doc(circulant(n, sa), circulant(n, sb))))
    return systems


def tile_count(doc):
    """Tiles of a system document: one per composable A-then-B path."""
    payload = json.loads(doc)
    a, b = payload["A"], payload["B"]
    n = len(a)
    return sum(a[i][k] * b[k][j] for i in range(n) for k in range(n) for j in range(n))


def _search_op(label, doc):
    return Op(key=f"is_transitive_search {label}", call="tiling.is_transitive_search", doc=doc)


def _witness_ops(label, doc):
    rng = random.Random(f"{POOL_SEED}:{label}")
    count = tile_count(doc)
    pairs = [divmod(p, count) for p in rng.sample(range(count * count), WITNESS_PAIRS_PER_SYSTEM)]
    return [
        _cli(f"witness {i} {j} {label}", ["witness", str(i), str(j)], doc) for i, j in pairs
    ]


def _search_systems():
    return [(f"exchange({n},{m})", _exchange_doc(n, m)) for n, m in SEARCH_EXCHANGE] + _search_circulants()


def _staircase_pool():
    systems = _search_systems()
    return [[_search_op(*s) for s in systems], [op for s in systems for op in _witness_ops(*s)]]


SEARCH_REPEATS = 2
WITNESS_REPEATS = 2


def _staircase_ops(rng):
    systems = _search_systems()
    witnesses = [op for s in systems for op in _witness_ops(*s)]
    searches = [_search_op(*s) for s in systems]
    return searches * SEARCH_REPEATS + rng.sample(witnesses, WITNESS_OPS_PER_PASS) * WITNESS_REPEATS


# --- public interface ---------------------------------------------------------

WARMUP = {
    "exchange_sweep": _cli("closedform 2 3", ["closedform", "2", "3"]),
    "corpus_check": _cli("check exchange(2,3)", ["check"], _exchange_doc(2, 3)),
    "staircase_search": _search_op("exchange(2,3)", _exchange_doc(2, 3)),
}


def pool(workload):
    """Every op the workload can ever run, in a fixed order."""
    groups = {
        "exchange_sweep": _exchange_pool,
        "corpus_check": _corpus_pool,
        "staircase_search": _staircase_pool,
    }[workload]()
    return [op for group in groups for op in group]


# Seconds one pass takes on a 2-core shared x86-64 virtual machine (Python 3.11); a run
# makes round(seconds / this) passes, at least one, so that the work in a
# run, and with it the number of samples per op, is fixed by --seconds.
NOMINAL_PASS_SECONDS = {
    "exchange_sweep": 33.0,
    "corpus_check": 2.2,
    "staircase_search": 12.0,
}


def passes_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_SECONDS[workload]))


def op_list(workload, seed):
    """The op list of one pass: the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exchange_sweep":
        # The growth pair closes the pass, so that where the seed puts it
        # cannot change the conditions the grid ops are timed under.
        grid, growth = _exchange_ops()
        ops = grid * GRID_REPEATS
        rng.shuffle(ops)
        return ops + [growth] * GROWTH_REPEATS
    if workload == "corpus_check":
        ops = _corpus_ops(rng)
    elif workload == "staircase_search":
        ops = _staircase_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
