"""Transitivity searched corner → edge → corner against the corner-pair search
of ``tests/reference_reachability.py``: the same witness on every system
family the tests use, including systems built from non-essential graphs,
and the peak memory of the search at exchange(200, 300) in a fresh process."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import reference_reachability as ref
from cktiles import tiling
from cktiles.corpus import standard_corpus
from cktiles.graph import graph_from_matrix, unreachable_pair
from cktiles.textile import build_system, canonical_specification, exchange_system
from cktiles.tiling import _unreachable_corner_pair


def _same_witnesses(systems):
    witnesses = [_unreachable_corner_pair(sys_) for sys_ in systems]
    assert witnesses == [ref.unreachable_corner_pair(sys_) for sys_ in systems]
    return witnesses


def _commuting_pairs(k):
    """Every commuting pair of k x k 0/1 matrices with a composable pair of edges.

    A matrix is k row bitmasks.  Row i of AB is the sum of the rows of B that
    row i of A selects, each row packed two bits to an entry, so AB and BA
    are read off one table of row sums per matrix."""
    matrices = list(product(range(1 << k), repeat=k))
    packed = [sum(1 << 2 * j for j in range(k) if row >> j & 1) for row in range(1 << k)]
    sums = {
        m: [sum(packed[m[l]] for l in range(k) if mask >> l & 1) for mask in range(1 << k)]
        for m in matrices
    }
    pairs = []
    for a in matrices:
        columns = 0
        for row in a:
            columns |= row
        for b in matrices:
            if not any(columns >> l & 1 and b[l] for l in range(k)):
                continue  # no edge of A ends where an edge of B starts: no tile
            if [sums[b][row] for row in a] == [sums[a][row] for row in b]:
                pairs.append(tuple([[row >> j & 1 for j in range(k)] for row in m] for m in (a, b)))
    return pairs


def _canonical(matrix_a, matrix_b):
    """The canonical system, built through build_system from graphs that may be non-essential."""
    ga, gb = graph_from_matrix(matrix_a, "A"), graph_from_matrix(matrix_b, "B")
    return build_system(ga, gb, canonical_specification(ga, gb))


@pytest.mark.parametrize("seed", [1302, 2012])
def test_corpus_witnesses_match_the_corner_pair_search(seed):
    witnesses = _same_witnesses([entry.system for entry in standard_corpus(seed=seed)])
    assert None in witnesses and {None} != set(witnesses)


def test_random_family_and_exchange_witnesses_match_the_corner_pair_search(random_family):
    exchange = [exchange_system(n, m) for n in range(2, 9) for m in range(2, 9)]
    assert set(_same_witnesses(exchange)) == {None}
    _same_witnesses(random_family)


def test_witnesses_of_every_2x2_commuting_pair_match_the_corner_pair_search():
    pairs = _commuting_pairs(2)
    assert len(pairs) == 47
    systems = [_canonical(a, b) for a, b in pairs]
    assert all(sys_.tiles for sys_ in systems)
    assert set(_same_witnesses(systems)) == {None, (0, 1), (1, 0)}


def test_witnesses_of_sampled_3x3_commuting_pairs_match_the_corner_pair_search():
    pairs = _commuting_pairs(3)
    assert len(pairs) == 3553
    sample = random.Random(3301).sample(pairs, 600)
    witnesses = _same_witnesses([_canonical(a, b) for a, b in sample])
    assert {None, (0, 0), (0, 1), (1, 0), (0, 2), (2, 0)} < set(witnesses)


def test_edges_are_waypoints_not_vertices_to_reach(monkeypatch):
    # A has no edge into vertex 1, so the B-loop at 1 is a left edge no corner
    # pair reaches: a search that must reach it would report (0, 1)
    sys_ = _canonical([[0, 1], [0, 0]], [[1, 0], [0, 1]])
    assert len(sys_.omega) == 1 and len(sys_.graph_b.edges) == 2
    calls = []
    monkeypatch.setattr(tiling, "unreachable_pair", lambda *args: calls.append(args) or "sentinel")
    assert _unreachable_corner_pair(sys_) == "sentinel"
    ((heads, required),) = calls
    assert required == 1 and len(heads) == 1 + 2 + 1
    assert unreachable_pair(heads, required) is None is ref.unreachable_corner_pair(sys_)
    assert unreachable_pair(heads) == (0, 1)


_PEAK_RSS = """
import resource, sys
from cktiles.textile import exchange_system
from cktiles.tiling import is_transitive_matrix
system = exchange_system(200, 300)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert is_transitive_matrix(system)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(grown / 2**20 if sys.platform == "darwin" else grown / 2**10)
"""


def test_transitivity_at_exchange_200_300_raises_peak_rss_by_under_100_mb():
    # the corner-pair search listed 30 million heads here, +487 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 100
