"""The library's graph, specification and tile-system builds against the
reference builds of ``tests/reference_build.py``: equal graphs with equal
indexes, equal specifications, the same tiles and corner pairs in the same
order, the same edge positions and corner-pair indices per tile, the same
successor lists, and the same first differing entry cited by
every commutation error."""

import json
import random
import sys
from pathlib import Path

import pytest

import reference_build as ref
from cktiles.corpus import circulant_matrix, random_essential_matrix, standard_corpus
from cktiles.errors import CommutationError, InputError
from cktiles.graph import Edge, graph_from_matrix
from cktiles.textile import (
    Tile,
    canonical_system,
    essential_graphs,
    exchange_specification,
    exchange_system,
    require_commuting,
)


def _same_graph(new, old):
    assert new == old
    assert all(type(e) is Edge for e in new.edges)
    assert (new._position, new._by_key, new._out) == ref.graph_indexes(old)


def _same_system(new, old):
    _same_graph(new.graph_a, old.graph_a)
    _same_graph(new.graph_b, old.graph_b)
    assert new.kappa == old.kappa
    assert new.tiles == old.tiles and all(type(t) is Tile for t in new.tiles)
    assert new.omega == old.omega
    assert new.edge_ids == old.edge_ids and new.corner_ids == old.corner_ids
    assert new == old
    assert new.successors == ref.successors(old)


def _reference_graphs(matrix_a, matrix_b):
    return ref.graph_from_matrix(matrix_a, "A"), ref.graph_from_matrix(matrix_b, "B")


def _reference_canonical(matrix_a, matrix_b):
    ga, gb = _reference_graphs(matrix_a, matrix_b)
    return ref.assemble(ga, gb, ref.canonical_specification(ga, gb))


def _reference_exchange(n, m):
    ga, gb = _reference_graphs([[n]], [[m]])
    return ref.assemble(ga, gb, exchange_specification(ga, gb))


@pytest.mark.parametrize("n", range(2, 9))
def test_exchange_systems_match_the_reference_build(n):
    for m in range(2, 9):
        old = _reference_exchange(n, m)
        _same_system(exchange_system(n, m), old)
        for new, reference in zip(essential_graphs([[n]], [[m]]), (old.graph_a, old.graph_b)):
            _same_graph(new, reference)


@pytest.mark.parametrize("seed", [1302, 2012])
def test_corpus_systems_match_the_reference_build(seed):
    for entry in standard_corpus(seed=seed, circulant_pairs=24):
        if entry.label.startswith("exchange"):
            old = _reference_exchange(entry.matrix_a[0][0], entry.matrix_b[0][0])
        else:
            old = _reference_canonical(entry.matrix_a, entry.matrix_b)
        _same_system(entry.system, old)


def test_random_kappa_family_matches_the_reference_build(random_family):
    for system in random_family:
        ga, gb = _reference_graphs(system.graph_a.to_matrix(), system.graph_b.to_matrix())
        _same_system(system, ref.assemble(ga, gb, system.kappa))


def test_block_circulants_match_the_reference_build():
    # (s, r) blocks of several pairs, where the canonical matching shows
    for sa, sb in (((1, 2, 4), (2, 3, 4)), ((0, 3), (0, 3)), ((0, 1, 3, 4), (0, 2, 5))):
        a, b = circulant_matrix(6, sa), circulant_matrix(6, sb)
        _same_system(canonical_system(a, b), _reference_canonical(a, b))


def _commutation_outcome(check, matrix_a, matrix_b):
    try:
        check(graph_from_matrix(matrix_a, "A"), graph_from_matrix(matrix_b, "B"))
    except CommutationError as exc:
        return exc.entry, exc.left, exc.right, str(exc)
    except InputError as exc:
        return str(exc)
    return None


def _commutation_documents():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    strata = dict(workloads.INVALID_STRATA)
    documents = [json.loads(doc) for _, doc, _ in strata["exit-4-commutation"]]
    documents.append({"A": [[0, 1], [1, 0]], "B": [[1, 1], [0, 1]]})
    rng = random.Random(2601)
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b = random_essential_matrix(rng, n), random_essential_matrix(rng, n)
        documents.append({"A": a, "B": b})
        # entries up to 3: runs of parallel edges
        a, b = ([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)] for _ in "AB")
        documents += [{"A": a, "B": b}, {"A": a, "B": [[2 * x for x in row] for row in a]}]
    documents.append({"A": [[1, 1], [1, 1]], "B": [[2]]})  # two vertex counts
    return documents


def test_commutation_errors_cite_the_reference_entry():
    outcomes = [
        (_commutation_outcome(require_commuting, d["A"], d["B"]),
         _commutation_outcome(ref.require_commuting, d["A"], d["B"]))
        for d in _commutation_documents()
    ]
    assert all(new == old for new, old in outcomes)
    errors = [new for new, _ in outcomes if isinstance(new, tuple)]
    assert len(errors) > 100 and len({e[0] for e in errors}) > 5  # many distinct entries
    assert any(new is None for new, _ in outcomes)
