"""The staircase search, all start tiles in one sweep, against the sweep per
start tile of ``tests/reference_search.py``: the same answer at every bound
from 1 to 2|omega| + 1 and at the default, on the staircase benchmark's
systems, the standard corpus, the random family and random circulant pairs.
On the same families, the swap lemma that lets the library's searches start
every staircase with a Right, while the reference keeps the Down-only states."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search as ref
from cktiles.corpus import circulant_matrix, standard_corpus
from cktiles.textile import canonical_system
from cktiles.tiling import is_transitive_search

# random circulant pairs (n, shifts of A, shifts of B) with n <= 6
CIRCULANT_PAIRS = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *(st.sets(st.integers(0, n - 1), min_size=1).map(sorted) for _ in range(2)),
    )
)


def _circulant_system(n, shifts_a, shifts_b):
    return canonical_system(circulant_matrix(n, shifts_a), circulant_matrix(n, shifts_b))


def _answers(sys_):
    """The search's answers at bounds 1 to 2|omega| + 1 and at the default,
    each asserted equal to the reference's."""
    bounds = [*range(1, 2 * len(sys_.omega) + 2), None]
    answers = [is_transitive_search(sys_, bound) for bound in bounds]
    assert answers == [ref.is_transitive_search(sys_, bound) for bound in bounds]
    return answers


def _swapped_steps(sys_):
    """The number of Down-then-Right paths w1 -> w2 -> w3, each asserted to have
    exactly one w4 with w1 -> w4 a Right move and w4 -> w3 a Down move."""
    top, right, left, bottom = sys_.edge_ids
    by_left, by_top = defaultdict(list), defaultdict(list)
    for k, (t, l) in enumerate(zip(top, left)):
        by_left[l].append(k)
        by_top[t].append(k)
    paths = 0
    for w1 in range(len(top)):
        for w2 in by_top[bottom[w1]]:
            for w3 in by_left[right[w2]]:
                swaps = [w4 for w4 in by_left[right[w1]] if bottom[w4] == top[w3]]
                assert len(swaps) == 1, (w1, w2, w3, swaps)
                paths += 1
    return paths


def test_staircase_benchmark_systems_match_the_sweep_per_start(staircase_systems):
    assert len(staircase_systems) == 17
    defaults = [_answers(sys_)[-1] for sys_ in staircase_systems]
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
@given(CIRCULANT_PAIRS)
def test_circulant_pairs_match_the_sweep_per_start(pair):
    _answers(_circulant_system(*pair))


def test_every_down_then_right_step_swaps_once(staircase_systems, random_family):
    corpora = [standard_corpus(seed=seed) for seed in (1302, 2012)]
    systems = staircase_systems + random_family + [e.system for c in corpora for e in c]
    assert all(_swapped_steps(sys_) for sys_ in systems)  # each has such paths


@settings(max_examples=40, deadline=None)
@given(CIRCULANT_PAIRS)
def test_circulant_pairs_swap_every_down_then_right_step_once(pair):
    _swapped_steps(_circulant_system(*pair))
