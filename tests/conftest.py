import random

import pytest

from cktiles.corpus import circulant_matrix, standard_corpus
from cktiles.textile import (
    Specification, build_system, canonical_system, essential_graphs, exchange_system, sigma_ab,
    sigma_ba,
)

CORPUS_SEED = 1302

# the systems of the staircase benchmark, rebuilt from their matrices:
# (n, m) exchange pairs and (n, shifts of A, shifts of B) circulant pairs
STAIRCASE_EXCHANGE = [(n, m) for n in range(4, 8) for m in range(n + 1, 9)]
STAIRCASE_CIRCULANT = [
    (4, (1, 2, 3), (0, 1)),
    (5, (1, 2, 4), (2, 3, 4)),
    (5, (2, 4), (0, 4)),
    (6, (0, 2, 4), (0, 4)),
    (6, (0, 2), (0, 4, 5)),
    (6, (0, 3), (0, 3)),
    (6, (1, 2, 4), (2, 3, 4)),
]


@pytest.fixture(scope="session")
def corpus():
    """Every test shares one deterministic corpus of built systems."""
    return standard_corpus(seed=CORPUS_SEED, circulant_pairs=24)


@pytest.fixture(scope="session")
def staircase_systems():
    """The staircase benchmark's 17 systems, 20 to 56 tiles: the exchange pairs, then
    the circulant pairs under the canonical specification."""
    systems = [exchange_system(n, m) for n, m in STAIRCASE_EXCHANGE]
    return systems + [
        canonical_system(circulant_matrix(n, shifts_a), circulant_matrix(n, shifts_b))
        for n, shifts_a, shifts_b in STAIRCASE_CIRCULANT
    ]


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Corpus systems small enough for exhaustive pairwise searches."""
    return [entry for entry in corpus if len(entry.system.omega) <= 12]


def random_specification(ga, gb, rng):
    """A seeded random specification: a random bijection within each (s(alpha), r(b)) block.

    Commutation gives each block as many (alpha, b) pairs as (a, beta) pairs,
    so shuffling the images of every block and matching them in order is an
    endpoint-preserving bijection, and every such bijection can be drawn.
    """
    domain = tuple(sigma_ab(ga, gb))
    images = {}
    for a, beta in sigma_ba(ga, gb):
        images.setdefault((a.source, beta.range), []).append((a, beta))
    for block in images.values():
        rng.shuffle(block)
    mapping = {pair: images[(pair[0].source, pair[1].range)].pop() for pair in domain}
    return Specification(domain=domain, mapping=mapping)


def random_system(matrix_a, matrix_b, seed):
    """The system of A and B under the random specification drawn from ``seed``."""
    ga, gb = essential_graphs(matrix_a, matrix_b)
    return build_system(ga, gb, random_specification(ga, gb, random.Random(seed)))


def random_kappa_document(matrix_a, matrix_b, seed):
    """A CLI system document for :func:`random_system`, with kappa listed explicitly."""
    kappa = random_system(matrix_a, matrix_b, seed).kappa
    return {
        "A": matrix_a,
        "B": matrix_b,
        "kappa": [
            [[list(alpha.key), list(b.key)], [list(a.key), list(beta.key)]]
            for (alpha, b), (a, beta) in kappa.items()
        ],
    }


@pytest.fixture(scope="session")
def random_family():
    """64 systems under random specifications, alternately on [[N]], [[M]] with
    2 <= N, M <= 6 and on circulant pairs of sizes 2..5."""
    rng = random.Random(2012)
    family = []
    for idx in range(64):
        if idx % 2 == 0:
            matrix_a, matrix_b = [[rng.randint(2, 6)]], [[rng.randint(2, 6)]]
        else:
            n = rng.randint(2, 5)
            matrix_a, matrix_b = (
                circulant_matrix(n, rng.sample(range(n), rng.randint(1, n))) for _ in range(2)
            )
        family.append(random_system(matrix_a, matrix_b, rng.randrange(2**32)))
    return family
