"""Metamorphic checks: relabelling a system gives an isomorphic system, so the
same K-groups and the same transitivity.

The vertices of A and B are renamed by one seeded permutation, and the
parallel edges of each (source, range) class by another; on the single
vertex of an exchange system only the edges move.  kappa is carried along as
an explicit mapping, its domain in the order the renamed pairs come (as a
document lists them), and the system is built through ``build_system``.  The
canonical kappa is not recomputed: it is not equivariant under relabelling,
so recomputing it would give a different system.  The exchange kappa is
equivariant, so there the relabelled system holds the same tiles in another
order.  Either way the Smith elimination and the reachability search meet
their rows and vertices in another order.
"""

import random

import pytest

import reference_reachability as ref
from cktiles.graph import graph_from_matrix
from cktiles.ktheory import block_matrix_k0, kgroups_of_system
from cktiles.textile import Specification, build_system, exchange_system
from cktiles.tiling import _unreachable_corner_pair, is_transitive_matrix


def _moved(rng, k):
    """A seeded permutation of 1..k, not the identity when k > 1."""
    labels = list(range(1, k + 1))
    rng.shuffle(labels)
    return labels[1:] + labels[:1] if labels == sorted(labels) else labels


def _relabelled(sys_, rng):
    """``sys_`` with its vertices and parallel edges renamed and kappa carried along."""
    graphs = (sys_.graph_a, sys_.graph_b)
    vertex = dict(enumerate(_moved(rng, sys_.graph_a.vertex_count), 1))
    moved = []
    for graph in graphs:
        rows = [[0] * graph.vertex_count for _ in range(graph.vertex_count)]
        for i, row in enumerate(graph.to_matrix(), 1):
            for j, x in enumerate(row, 1):
                rows[vertex[i] - 1][vertex[j] - 1] = x
        moved.append(graph_from_matrix(rows, graph.label))
    rename = {}
    for graph, new in zip(graphs, moved):
        classes = {}
        for edge in graph.edges:
            classes.setdefault((edge.source, edge.range), []).append(edge)
        for (s, r), edges in classes.items():
            for edge, k in zip(edges, _moved(rng, len(edges))):
                rename[edge] = new.edge_by_key((vertex[s], vertex[r], k))
    mapping = {
        (rename[alpha], rename[b]): (rename[a], rename[beta])
        for (alpha, b), (a, beta) in sys_.kappa.items()
    }
    return build_system(*moved, Specification(domain=tuple(mapping), mapping=mapping))


def _invariants(sys_):
    groups = kgroups_of_system(sys_)
    assert block_matrix_k0(sys_) == groups.k0
    return groups.k0, groups.k1, is_transitive_matrix(sys_)


def _exchange_systems():
    return [exchange_system(n, m) for n in range(2, 7) for m in range(2, 7)]


@pytest.mark.parametrize("family", ["corpus", "exchange"])
def test_relabelling_keeps_k_groups_and_transitivity(family, corpus):
    systems = [entry.system for entry in corpus] if family == "corpus" else _exchange_systems()
    rng = random.Random(3302)
    answers = []
    for sys_ in systems:
        relabelled = _relabelled(sys_, rng)
        assert relabelled.tiles != sys_.tiles
        answers.append(_invariants(relabelled))
        assert answers[-1] == _invariants(sys_)
        assert _unreachable_corner_pair(relabelled) == ref.unreachable_corner_pair(relabelled)
    assert {transitive for _, _, transitive in answers} == (
        {True, False} if family == "corpus" else {True}
    )
