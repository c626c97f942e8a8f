"""The staircase search, all start tiles in one sweep, against the sweep per
start tile of ``tests/reference_search.py``: the same answer at every bound
from 1 to 2|omega| + 1 and at the default, on the staircase benchmark's
systems, the standard corpus, the random family and random circulant pairs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search as ref
from cktiles.corpus import circulant_matrix, standard_corpus
from cktiles.textile import canonical_system, exchange_system
from cktiles.tiling import is_transitive_search

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


def _circulant_system(n, shifts_a, shifts_b):
    return canonical_system(circulant_matrix(n, shifts_a), circulant_matrix(n, shifts_b))


def _answers(sys_):
    """The search's answers at bounds 1 to 2|omega| + 1 and at the default,
    each asserted equal to the reference's."""
    bounds = [*range(1, 2 * len(sys_.omega) + 2), None]
    answers = [is_transitive_search(sys_, bound) for bound in bounds]
    assert answers == [ref.is_transitive_search(sys_, bound) for bound in bounds]
    return answers


def test_staircase_benchmark_systems_match_the_sweep_per_start():
    systems = [exchange_system(n, m) for n, m in STAIRCASE_EXCHANGE]
    systems += [_circulant_system(*pair) for pair in STAIRCASE_CIRCULANT]
    assert len(systems) == 17
    defaults = [_answers(sys_)[-1] for sys_ in systems]
    assert defaults.count(False) == 2  # circulant(6;0,2,4;0,4) and circulant(6;0,3;0,3)


@pytest.mark.parametrize("seed", [1302, 2012])
def test_corpus_matches_the_sweep_per_start(seed):
    answers = [_answers(entry.system) for entry in standard_corpus(seed=seed)]
    assert any(row[-1] for row in answers) and not all(row[-1] for row in answers)
    assert any(row[-1] and not row[0] for row in answers)  # fails only at small bounds


def test_random_family_matches_the_sweep_per_start(random_family):
    for sys_ in random_family:
        _answers(sys_)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            *(st.sets(st.integers(0, n - 1), min_size=1).map(sorted) for _ in range(2)),
        )
    )
)
def test_circulant_pairs_match_the_sweep_per_start(pair):
    _answers(_circulant_system(*pair))
