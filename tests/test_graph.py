import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktiles.errors import InputError
from cktiles.graph import (
    graph_from_matrix,
    is_essential,
    is_irreducible,
    satisfies_condition_I,
    unreachable_pair,
)


def test_single_vertex_self_loops():
    g = graph_from_matrix([[2]], "A")
    assert g.vertex_count == 1
    assert [e.key for e in g.edges] == [(1, 1, 1), (1, 1, 2)]


def test_permutation_matrix():
    g = graph_from_matrix([[0, 1], [1, 0]], "A")
    assert [(e.source, e.range) for e in g.edges] == [(1, 2), (2, 1)]


def test_entry_counts():
    g = graph_from_matrix([[1, 2], [0, 1]], "A")
    assert len(g.edges) == 4
    assert [e.key for e in g.edges] == [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1)]


def test_edge_by_key_finds_each_edge_and_names_unknown_keys():
    g = graph_from_matrix([[1, 2], [0, 1]], "A")
    assert [g.edge_by_key(e.key) for e in g.edges] == list(g.edges)
    assert g.edge_by_key([1, 2, 2]) is g.edges[2]
    with pytest.raises(InputError, match=r"no edge \(2, 1, 1\) in graph 'A'"):
        g.edge_by_key((2, 1, 1))


def test_rejects_bad_matrices():
    with pytest.raises(InputError):
        graph_from_matrix([[1, 2]], "A")
    with pytest.raises(InputError):
        graph_from_matrix([[-1]], "A")


def test_edges_stable_under_rebuild():
    m = [[2, 1], [0, 3]]
    g1 = graph_from_matrix(m, "A")
    g2 = graph_from_matrix(m, "A")
    assert g1.edges == g2.edges
    assert [g1.position(e) for e in g1.edges] == list(range(len(g1.edges)))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_roundtrip_reproduces_matrix(matrix):
    assert graph_from_matrix(matrix, "A").to_matrix() == matrix


def test_is_essential():
    assert is_essential([[0, 1], [1, 0]])
    assert not is_essential([[1, 1], [0, 0]])
    assert is_essential([[2]])
    assert not is_essential([[1, 0], [1, 0]])  # zero column


def test_is_irreducible_examples():
    assert is_irreducible([[0, 1], [1, 0]])
    assert not is_irreducible([[1, 0], [0, 1]])
    assert is_irreducible([[1, 1], [1, 1]])
    assert is_irreducible([[2]])
    assert not is_irreducible([[0]])


def test_unreachable_pair_examples():
    assert unreachable_pair([[0, 1], [1, 0]]) is None
    assert unreachable_pair([[2]]) is None
    assert unreachable_pair([[0]]) == (0, 0)
    assert unreachable_pair([[1, 0], [0, 1]]) == (0, 1)
    assert unreachable_pair([[1, 1], [0, 1]]) == (1, 0)
    assert unreachable_pair([[0, 1, 0], [0, 0, 1], [0, 1, 0]]) == (1, 0)
    with pytest.raises(InputError):
        unreachable_pair([])


def is_irreducible_by_powers(rows):
    """Second, independent irreducibility test: OR the boolean powers M^1..M^n.

    A cross-check for :func:`is_irreducible`; quadratic in memory and
    quartic in time, so it lives here rather than in the package.
    """
    n = len(rows)
    if n == 0:
        return False
    sup = [[bool(x) for x in row] for row in rows]
    reach = [row[:] for row in sup]
    acc = [row[:] for row in sup]
    for _ in range(n - 1):
        reach = [
            [any(reach[i][k] and sup[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                acc[i][j] = acc[i][j] or reach[i][j]
    return all(all(row) for row in acc)


def _has_positive_path(rows, p, q):
    """Whether some path of length at least one runs from p to q."""
    reached = set()
    stack = [p]
    while stack:
        for w, x in enumerate(rows[stack.pop()]):
            if x and w not in reached:
                reached.add(w)
                stack.append(w)
    return q in reached


def test_irreducibility_implementations_agree():
    rng = random.Random(417)
    witnesses = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        irreducible = is_irreducible(m)
        assert irreducible == is_irreducible_by_powers(m), m
        witness = unreachable_pair(m)
        assert (witness is None) == irreducible, m
        if witness is not None:
            witnesses += 1
            assert not _has_positive_path(m, *witness), (m, witness)
    assert witnesses > 30


def _all_simple_cycles(rows):
    n = len(rows)
    cycles = []
    for length in range(1, n + 1):
        for perm in permutations(range(n), length):
            if perm[0] != min(perm):
                continue  # canonical rotation only
            if all(rows[perm[i]][perm[(i + 1) % length]] for i in range(length)):
                cycles.append(perm)
    return cycles


def _every_cycle_has_exit(rows):
    n = len(rows)
    for cycle in _all_simple_cycles(rows):
        succ_on_cycle = {cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))}
        has_exit = any(
            rows[v][w] and w != succ_on_cycle[v] for v in cycle for w in range(n)
        )
        if not has_exit:
            return False
    return True


def test_condition_I_examples():
    assert not satisfies_condition_I([[0, 1], [1, 0]])
    assert satisfies_condition_I([[1, 1], [1, 1]])


def test_condition_I_against_cycle_enumeration():
    m = [[1, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert _every_cycle_has_exit(m)
    assert satisfies_condition_I(m)
    # same digraph with the extra escape edge removed: the 3-cycle is exit-free
    m2 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert not _every_cycle_has_exit(m2)
    assert not satisfies_condition_I(m2)


def test_condition_I_matches_enumeration_on_random_matrices():
    rng = random.Random(92)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if not is_essential(m):
            continue
        checked += 1
        assert satisfies_condition_I(m) == _every_cycle_has_exit(m), m
    assert checked > 100


def test_condition_I_preconditions():
    with pytest.raises(InputError):
        satisfies_condition_I([[2]])
    with pytest.raises(InputError):
        satisfies_condition_I([[1, 1], [0, 0]])


def test_two_ones_per_row_implies_condition_I():
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(2, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in rng.sample(range(n), 2):
                m[i][j] = 1
        for j in range(n):  # patch zero columns, keeping rows at >= 2 ones
            if not any(m[i][j] for i in range(n)):
                m[rng.randrange(n)][j] = 1
        assert is_essential(m)
        assert satisfies_condition_I(m)
