"""Deterministic families of commuting matrix pairs for exercising the pipeline.

Generating arbitrary commuting {0,1} pairs is hard; these families are exact
and varied instead: circulant pairs (all circulants of one size commute),
(A, I) and (A, A) pairs for random essential A, identity pairs (which are
never transitive), and the single-vertex loop pairs with the exchange
specification.
"""

import random
from dataclasses import dataclass

from .errors import InputError
from .textile import canonical_system, exchange_system

MAX_CIRCULANT_PAIRS = 1_000  # each entry holds a built system, about 15 KB


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    matrix_a: tuple
    matrix_b: tuple
    system: object


def circulant_matrix(n, shifts):
    """The n x n {0,1} circulant with ones on the given cyclic shifts."""
    offsets = set(s % n for s in shifts)
    return [[1 if (j - i) % n in offsets else 0 for j in range(n)] for i in range(n)]


def _random_shifts(rng, n):
    count = rng.randint(1, n)
    return tuple(sorted(rng.sample(range(n), count)))


def random_essential_matrix(rng, n):
    """A random {0,1} matrix with no zero row or column."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(m[i][j] for i in range(n)):
            m[rng.randrange(n)][j] = 1
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.25:
                m[i][j] = 1
    return m


def _freeze(matrix):
    return tuple(tuple(row) for row in matrix)


def standard_corpus(seed=1302, circulant_pairs=24):
    """The deterministic sweep of systems used by the test suite and CLI.

    Contains every exchange pair with 2 <= N <= M <= 6, identity pairs of
    sizes 2 and 3, a handful of (A, I) and (A, A) pairs, and
    ``circulant_pairs`` random circulant pairs of sizes 2..5.
    """
    if type(circulant_pairs) is not int or circulant_pairs < 0:
        raise InputError(f"circulant_pairs must be a nonnegative int, got {circulant_pairs!r}")
    if circulant_pairs > MAX_CIRCULANT_PAIRS:
        raise InputError(
            f"circulant_pairs must be at most {MAX_CIRCULANT_PAIRS}, got {circulant_pairs}"
        )
    entries = [
        CorpusEntry(f"exchange({n},{m})", ((n,),), ((m,),), exchange_system(n, m))
        for n in range(2, 7)
        for m in range(n, 7)
    ]
    rng = random.Random(seed)
    pairs = [(f"identity({n})", circulant_matrix(n, (0,)), circulant_matrix(n, (0,))) for n in (2, 3)]
    for idx in range(4):
        n = rng.randint(2, 4)
        pairs.append(
            (f"pair-with-identity[{idx}]", random_essential_matrix(rng, n), circulant_matrix(n, (0,)))
        )
    for idx in range(4):
        a = random_essential_matrix(rng, rng.randint(2, 4))
        pairs.append((f"pair-with-self[{idx}]", a, a))
    for idx in range(circulant_pairs):
        n = rng.randint(2, 5)
        a = circulant_matrix(n, _random_shifts(rng, n))
        pairs.append((f"circulant[{idx}]", a, circulant_matrix(n, _random_shifts(rng, n))))
    return entries + [
        CorpusEntry(label, _freeze(a), _freeze(b), canonical_system(a, b)) for label, a, b in pairs
    ]
