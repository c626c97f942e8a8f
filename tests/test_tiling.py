import random
from collections import defaultdict, deque
from itertools import product

import pytest

from cktiles import tiling
from cktiles.corpus import circulant_matrix, standard_corpus
from cktiles.errors import InputError
from cktiles.graph import graph_from_matrix, is_irreducible
from cktiles.matrices import IntMatrix
from cktiles.ktheory import block_matrix_k0, kgroups_of_system
from cktiles.textile import (
    Specification,
    TextileSystem,
    Tile,
    build_system,
    canonical_system,
    essential_graphs,
    exchange_system,
)
from cktiles.tiling import (
    DOWN,
    RIGHT,
    PavedPatch,
    StaircaseWitness,
    check_diagonal_property,
    diagonal_property_of_tiles,
    extend_patch,
    find_transitivity_witness,
    is_transitive_matrix,
    is_transitive_search,
    witness_is_valid,
)


def _identity_system(n=2):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return canonical_system(identity, identity)


def test_diagonal_property_exchange():
    assert check_diagonal_property(exchange_system(2, 3)).ok


def test_diagonal_property_full_corpus(corpus):
    for entry in corpus:
        result = check_diagonal_property(entry.system)
        assert result.ok, entry.label


def test_random_specifications_have_the_diagonal_property_and_valid_witnesses(random_family):
    rng = random.Random(20)
    found = 0
    for sys_ in random_family:
        assert check_diagonal_property(sys_).ok, sys_
        for _ in range(5):
            start, target = rng.choice(sys_.tiles), rng.choice(sys_.tiles)
            witness = find_transitivity_witness(sys_, start, target, 2 * len(sys_.omega))
            if witness is not None:
                assert witness_is_valid(sys_, witness, start, target), sys_
                found += 1
    assert found > 200


def test_diagonal_property_detects_corruption():
    sys_ = exchange_system(2, 2)
    tiles = list(sys_.tiles)
    broken = tiles[0]
    # duplicate one tile with an altered bottom edge: two tiles now share
    # (top, right), so some diagonal pair admits two completions
    other_bottom = next(t.bottom for t in tiles if t.bottom != broken.bottom)
    tiles.append(
        Tile(top=broken.top, right=broken.right, left=broken.left, bottom=other_bottom)
    )
    result = diagonal_property_of_tiles(tiles)
    assert not result.ok
    assert result.pair is not None
    assert len(result.completions) > 1


def test_transitive_matrix_exchange_and_identity():
    assert is_transitive_matrix(exchange_system(2, 3))
    assert not is_transitive_matrix(_identity_system())


def test_transitive_when_one_matrix_irreducible():
    # a 3-cycle is irreducible; pairing it with the identity stays transitive
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert is_irreducible(cycle)
    sys_ = canonical_system(cycle, identity)
    assert is_transitive_matrix(sys_)
    assert is_transitive_search(sys_)


def test_witness_exchange_2_3_all_pairs_within_three_moves():
    sys_ = exchange_system(2, 3)
    for start in sys_.tiles:
        for target in sys_.tiles:
            witness = find_transitivity_witness(sys_, start, target, 3)
            assert witness is not None
            assert 2 <= len(witness.moves) <= 3
            assert witness_is_valid(sys_, witness, start, target)
            i, j = witness.end_position
            assert j < 0 < i


def test_witness_to_self_is_two_moves():
    sys_ = exchange_system(2, 3)
    tile = sys_.tiles[0]
    witness = find_transitivity_witness(sys_, tile, tile, 2 * len(sys_.omega))
    assert sorted(witness.moves) == sorted((RIGHT, DOWN))
    assert witness.end_position == (1, -1)


def test_witness_not_found_across_identity_components():
    sys_ = _identity_system()
    # tiles at the two vertices live in different components
    start, target = sys_.tiles[0], sys_.tiles[1]
    assert (start.top, start.left) != (target.top, target.left)
    for bound in (2, 8, 32):
        assert find_transitivity_witness(sys_, start, target, bound) is None
    # within one component a staircase still exists
    assert find_transitivity_witness(sys_, start, start, 4) is not None


def test_witness_rejects_foreign_tiles():
    sys_ = exchange_system(2, 2)
    foreign = exchange_system(3, 3).tiles[-1]  # uses edges the small system lacks
    assert foreign not in sys_.tiles
    with pytest.raises(InputError):
        find_transitivity_witness(sys_, foreign, sys_.tiles[0], 4)


def test_witness_positions_walk_right_and_down():
    sys_ = exchange_system(2, 3)
    witness = find_transitivity_witness(sys_, sys_.tiles[0], sys_.tiles[5], 6)
    positions = witness.positions()
    assert positions[0] == (0, 0)
    assert positions[-1] == witness.end_position
    for (i1, j1), (i2, j2) in zip(positions, positions[1:]):
        assert (i2 - i1, j2 - j1) in ((1, 0), (0, -1))


def test_search_agrees_with_matrix_criterion(small_corpus):
    assert any(not is_transitive_matrix(e.system) for e in small_corpus)
    for entry in small_corpus:
        sys_ = entry.system
        expected = is_transitive_matrix(sys_)
        assert is_transitive_search(sys_, 2 * len(sys_.omega)) == expected, entry.label


def _longest_pairwise_witness(sys_, max_steps):
    """Reference for the pairwise definition: one witness search per ordered pair.

    Breadth-first search returns a shortest witness, so the definition
    ``all(find_transitivity_witness(sys_, s, t, k) is not None ...)`` holds for
    a bound k <= max_steps exactly when every pair's shortest witness has at
    most k moves.  Returns None when some pair has no witness within
    ``max_steps``.
    """
    longest = 0
    for start in sys_.tiles:
        for target in sys_.tiles:
            witness = find_transitivity_witness(sys_, start, target, max_steps)
            if witness is None:
                return None
            assert witness_is_valid(sys_, witness, start, target)
            longest = max(longest, len(witness.moves))
    return longest


def _search_and_oracle_at_bounds(sys_, label):
    """Whether the search passes at bounds 1, 2, 3, 4, 6 and 2|omega|, each
    asserted equal to the pairwise definition at that bound."""
    bounds = (1, 2, 3, 4, 6, 2 * len(sys_.omega))
    longest = _longest_pairwise_witness(sys_, max(bounds))
    row = [longest is not None and longest <= bound for bound in bounds]
    for bound, expected in zip(bounds, row):
        assert is_transitive_search(sys_, bound) == expected, (label, bound)
    return row


def test_search_matches_pairwise_witness_oracle():
    corpus = standard_corpus(seed=1302, circulant_pairs=20)
    assert {"identity(2)", "identity(3)"} <= {entry.label for entry in corpus}
    outcomes = [_search_and_oracle_at_bounds(entry.system, entry.label) for entry in corpus]
    assert any(not any(row) for row in outcomes)  # never transitive
    assert any(row[-1] and not row[1] for row in outcomes)  # fails only at small bounds
    with pytest.raises(InputError):
        is_transitive_search(exchange_system(2, 3), 0)


def test_search_matches_pairwise_witness_oracle_at_staircase_size():
    # exchange and split circulant systems of the staircase benchmark's
    # shapes and sizes, 20 to 36 tiles
    systems = {
        "exchange(4,5)": exchange_system(4, 5),
        "exchange(5,7)": exchange_system(5, 7),
        "circulant(6;0,2,4;0,4)": canonical_system(
            circulant_matrix(6, (0, 2, 4)), circulant_matrix(6, (0, 4))
        ),
        "circulant(6;0,3;0,3)": canonical_system(
            circulant_matrix(6, (0, 3)), circulant_matrix(6, (0, 3))
        ),
    }
    outcomes = {label: _search_and_oracle_at_bounds(s, label) for label, s in systems.items()}
    assert outcomes["exchange(5,7)"][-1]
    assert not any(outcomes["circulant(6;0,3;0,3)"])


def _reference_witness(sys_, start, target, max_steps):
    """The witness search with a FIFO queue of (tile index, saw-a-Right,
    saw-a-Down) tuple states that tests for the goal when it dequeues a state,
    and the walk back along its parent map."""
    by_left, by_top = defaultdict(list), defaultdict(list)
    for idx, t in enumerate(sys_.tiles):
        by_left[t.left].append(idx)
        by_top[t.top].append(idx)
    start_state = (sys_.tiles.index(start), False, False)
    parents = {start_state: None}
    frontier = deque([(start_state, 0)])
    goal = None
    while frontier:
        state, depth = frontier.popleft()
        idx, saw_r, saw_d = state
        tile = sys_.tiles[idx]
        if saw_r and saw_d and (tile.top, tile.left) == (target.top, target.left):
            goal = state
            break
        if depth == max_steps:
            continue
        steps = [((nxt, True, saw_d), RIGHT) for nxt in by_left[tile.right]]
        steps += [((nxt, saw_r, True), DOWN) for nxt in by_top[tile.bottom]]
        for ns, move in steps:
            if ns not in parents:
                parents[ns] = (state, move)
                frontier.append((ns, depth + 1))
    if goal is None:
        return None
    path = []
    while parents[goal] is not None:
        prev, move = parents[goal]
        path.append((move, sys_.tiles[goal[0]]))
        goal = prev
    moves, tiles = zip(*reversed(path))
    rights = moves.count(RIGHT)
    return StaircaseWitness(
        start=start, moves=moves, tiles=tiles, end_position=(rights, rights - len(moves))
    )


def test_witness_matches_the_dequeue_time_search_at_every_bound(random_family, staircase_systems):
    systems = [exchange_system(2, 3), exchange_system(3, 4), exchange_system(4, 5)]
    systems.append(_identity_system())
    systems.append(canonical_system(circulant_matrix(6, (0, 3)), circulant_matrix(6, (0, 3))))
    systems.append(canonical_system(circulant_matrix(4, (1,)), circulant_matrix(4, (0, 2))))
    systems += random_family[::13]
    cases = [(sys_, list(product(sys_.tiles, repeat=2))) for sys_ in systems]
    rng = random.Random(2012)  # the staircase systems: 300 of their 400 to 3,136 tile pairs
    cases += [(s, rng.sample(list(product(s.tiles, repeat=2)), 300)) for s in staircase_systems]
    found = missing = 0
    for sys_, pairs in cases:
        for bound in (1, 2, 3, 2 * len(sys_.omega)):
            for start, target in pairs:
                witness = find_transitivity_witness(sys_, start, target, bound)
                assert witness == _reference_witness(sys_, start, target, bound)
                if witness is None:
                    missing += 1
                else:
                    assert witness_is_valid(sys_, witness, start, target)
                    found += 1
    assert found and missing


@pytest.mark.parametrize("bound", [True, False, 2.5, "3"])
def test_search_and_witness_take_only_a_positive_int_bound(bound):
    sys_ = exchange_system(2, 3)
    with pytest.raises(InputError):
        is_transitive_search(sys_, bound)
    with pytest.raises(InputError):
        find_transitivity_witness(sys_, sys_.tiles[0], sys_.tiles[1], bound)


def test_search_runs_no_bfs_and_stops_before_the_bound(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("the search runs no breadth-first search")

    monkeypatch.setattr(tiling, "_staircase_bfs", no_bfs)
    # a sweep run to a bound of 10**9 would not return: the search stops at the
    # level where every start covers every corner, or where a start that does
    # not is dead (each tile of the identity system reaches only its own corner)
    assert is_transitive_search(exchange_system(4, 5), 10**9)
    assert not is_transitive_search(_identity_system(), 10**9)


def test_block_matrix_irreducibility_matches_matrix_criterion(corpus):
    assert any(not is_transitive_matrix(e.system) for e in corpus)
    for entry in corpus:
        sys_ = entry.system
        assert is_irreducible(sys_.h_kappa) == is_transitive_matrix(sys_), entry.label


def _positivity_within_dimension(sys_):
    """For all corner pairs, some A*(A+B)^n and B*(A+B)^m entry is positive
    with n, m at most the matrix dimension."""
    n = len(sys_.omega)
    c = sys_.a_kappa + sys_.b_kappa
    for first in (sys_.a_kappa, sys_.b_kappa):
        reached = IntMatrix.zeros(n, n)
        power = first
        for _ in range(n + 1):  # exponents 0..n
            reached = reached + power
            power = power @ c
        if not all(all(x > 0 for x in row) for row in reached.data):
            return False
    return True


def test_positivity_criterion_matches_irreducibility(small_corpus):
    for entry in small_corpus:
        sys_ = entry.system
        expected = is_irreducible(sys_.a_kappa + sys_.b_kappa)
        assert _positivity_within_dimension(sys_) == expected, entry.label


def test_extend_patch_empty_patch_allows_everything():
    sys_ = exchange_system(2, 3)
    assert extend_patch(sys_, PavedPatch.empty(), (0, 0)) == list(sys_.tiles)


def test_extend_patch_north_and_east_force_at_most_one():
    # L-shaped patch around the origin: north at (0,1), corner at (1,1),
    # east at (1,0); the vacancy at (0,0) then has both a north and an east
    # neighbor, so at most one tile can complete it
    sys_ = exchange_system(2, 3)
    completions_seen = 0
    for north in sys_.tiles:
        start = PavedPatch.empty().with_tile((0, 1), north)
        for corner in extend_patch(sys_, start, (1, 1)):
            patch = start.with_tile((1, 1), corner)
            for east in extend_patch(sys_, patch, (1, 0)):
                full = patch.with_tile((1, 0), east)
                candidates = extend_patch(sys_, full, (0, 0))
                assert len(candidates) <= 1
                if candidates:
                    completions_seen += 1
                    done = full.with_tile((0, 0), candidates[0])
                    assert done.is_paved() and done.is_connected()
    assert completions_seen > 0


def test_extend_patch_contradictory_neighbors_yield_nothing():
    # in the identity system the two tiles live at different vertices, so a
    # west neighbor from one component and a north neighbor from the other
    # leave nothing that can fill the corner between them
    sys_ = _identity_system()
    t1, t2 = sys_.tiles
    patch = PavedPatch(cells={(-1, 0): t1, (0, 1): t2})
    assert extend_patch(sys_, patch, (0, 0)) == []
    # same shape with compatible neighbors does admit a completion
    patch = PavedPatch(cells={(-1, 0): t1, (0, 1): t1})
    assert extend_patch(sys_, patch, (0, 0)) == [t1]


def test_extend_patch_position_errors():
    sys_ = exchange_system(2, 2)
    patch = PavedPatch.empty().with_tile((0, 0), sys_.tiles[0])
    with pytest.raises(InputError):
        extend_patch(sys_, patch, (5, 5))
    with pytest.raises(InputError):
        extend_patch(sys_, patch, (0, 0))


@pytest.mark.parametrize(
    "positions, connected",
    [
        ([], True),
        ([(0, 0)], True),
        ([(0, 0), (1, 0)], True),
        ([(0, 0), (0, -1)], True),
        ([(0, 0), (2, 0)], False),
        ([(0, 0), (1, 1)], False),  # diagonal cells share no edge
        ([(0, 1), (0, 0), (1, 0)], True),  # an L-shape
        ([(0, 1), (0, 0), (1, 0), (3, 0)], False),
    ],
)
def test_is_connected_on_small_patches(positions, connected):
    # connectivity reads positions only, so one tile fills every cell
    tile = exchange_system(2, 2).tiles[0]
    assert PavedPatch(cells=dict.fromkeys(positions, tile)).is_connected() is connected


def test_equal_patches_hash_equal_whatever_their_build_order():
    t, u = exchange_system(2, 2).tiles[:2]
    empty = PavedPatch.empty()
    one_way = empty.with_tile((0, 0), t).with_tile((1, 0), t).with_tile((1, -1), u)
    other_way = empty.with_tile((1, -1), u).with_tile((1, 0), t).with_tile((0, 0), t)
    assert list(one_way.cells) != list(other_way.cells)
    assert one_way == other_way and hash(one_way) == hash(other_way)
    patches = {one_way, other_way, empty, PavedPatch.empty(), empty.with_tile((0, 0), t)}
    assert len(patches) == 3 and other_way in patches
    assert empty.with_tile((0, 0), u) not in patches
    # the constructor admits disconnected cells, and a patch of them hashes too
    apart = PavedPatch(cells={(0, 0): t, (5, 5): t})
    assert not apart.is_connected()
    assert hash(apart) == hash(PavedPatch(cells={(5, 5): t, (0, 0): t}))


def test_paved_patch_rejects_conflicts_and_disconnection():
    sys_ = exchange_system(2, 2)
    t = sys_.tiles[0]
    patch = PavedPatch.empty().with_tile((0, 0), t)
    with pytest.raises(InputError):
        patch.with_tile((3, 3), t)  # not adjacent
    conflicting = next(u for u in sys_.tiles if u.left != t.right)
    with pytest.raises(InputError):
        patch.with_tile((1, 0), conflicting)


def test_witness_path_is_the_witness_search_on_indices(random_family):
    systems = [exchange_system(3, 4), _identity_system()] + random_family[::16]
    for sys_ in systems:
        for bound in (2, 2 * len(sys_.omega)):
            for i, start in enumerate(sys_.tiles):
                for j, target in enumerate(sys_.tiles):
                    witness = find_transitivity_witness(sys_, start, target, bound)
                    found = tiling.witness_path(sys_, i, j, bound)
                    if witness is None:
                        assert found is None
                    else:
                        moves, indices, end_position = found
                        assert moves == witness.moves and end_position == witness.end_position
                        assert tuple(sys_.tiles[k] for k in indices) == witness.tiles


@pytest.mark.parametrize(
    "start, target, bound, message",
    [
        (0, 6, 4, "tile index 6 out of range 0..5"),
        (-1, 0, 4, "tile index -1 out of range 0..5"),
        (True, 0, 4, "tile index True out of range 0..5"),
        (7, 0, 0, "tile index 7 out of range 0..5"),  # indices before the bound
        (0, 1, 0, "max_steps must be a positive int, got 0"),
    ],
)
def test_witness_path_refuses_bad_indices_and_bounds(start, target, bound, message):
    with pytest.raises(InputError, match=message):
        tiling.witness_path(exchange_system(2, 3), start, target, bound)


def test_edge_ids_hold_each_tiles_edge_positions(random_family):
    for sys_ in random_family[::8] + [exchange_system(4, 5)]:
        columns = sys_.edge_ids
        graphs = (sys_.graph_a, sys_.graph_b, sys_.graph_b, sys_.graph_a)
        assert [len(c) for c in columns] == [len(sys_.tiles)] * 4
        for k, tile in enumerate(sys_.tiles):
            assert tuple(g.edges[c[k]] for g, c in zip(graphs, columns)) == tile
            # _assemble fills both views once; corner_ids index omega
            assert sys_.omega[sys_.corner_ids[k]] == (tile.top, tile.left)


@pytest.mark.parametrize(
    "edges, pair, completions",
    [
        (("cacc", "aabb", "cccc", "ccbb", "bbcc", "abba"), (2, 0),
         [(i, j) for i in (2, 3) for j in (0, 2, 4)]),
        (("abba", "cbba"), (0, 0), [(0, 0), (0, 1)]),  # only a (left, bottom) pair repeats
        (("abba", "abba"), (0, 0), [(0, 0)] * 4),  # one tile listed twice
    ],
)
def test_diagonal_property_names_the_first_counterexample(edges, pair, completions):
    # recorded from the pair-by-pair count, before tile sets with no shared
    # (top, right) or (left, bottom) pair were passed after one pass
    tiles = [Tile(*e) for e in edges]
    result = diagonal_property_of_tiles(tiles)
    assert not result.ok
    assert result.pair == tuple(tiles[i] for i in pair)
    assert result.completions == tuple((tiles[i], tiles[j]) for i, j in completions)


class _CountedIterations(tuple):
    """Tiles that count how often they are iterated over."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def test_diagonal_property_of_a_built_system_counts_no_pairs():
    # one pass over the tiles, none per tile: exchange(100, 150) has 2.25e8 pairs
    tiles = _CountedIterations(exchange_system(30, 40).tiles)
    assert diagonal_property_of_tiles(tiles).ok
    assert _CountedIterations.iterations == 1


def _exchange_pairs():
    return [exchange_system(n, m) for n in range(2, 9) for m in range(2, 9)]


def test_transitivity_matrix_matches_the_dense_sum(corpus, random_family):
    systems = [e.system for e in corpus] + random_family + _exchange_pairs()
    answers = [is_transitive_matrix(sys_) for sys_ in systems]
    assert answers == [is_irreducible(sys_.a_kappa + sys_.b_kappa) for sys_ in systems]
    assert True in answers and False in answers


def _no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense IntMatrix was built")

    monkeypatch.setattr(IntMatrix, "__init__", refuse)


def test_transitivity_matrix_builds_no_dense_matrix(monkeypatch, corpus):
    systems = [_identity_system(3), exchange_system(4, 5)]
    systems += [canonical_system(e.matrix_a, e.matrix_b) for e in corpus[:8]]
    _no_dense_matrix(monkeypatch)
    answers = [is_transitive_matrix(sys_) for sys_ in systems]
    assert answers[:2] == [False, True]


def test_transitivity_matrix_at_the_paper_scale(monkeypatch):
    sys_ = exchange_system(200, 300)
    assert len(sys_.omega) == 60_000
    _no_dense_matrix(monkeypatch)
    monkeypatch.setattr(TextileSystem, "successors", property(_refuse_successors))
    assert is_transitive_matrix(sys_)
    assert check_diagonal_property(sys_).ok


def _refuse_successors(sys_):
    raise AssertionError("the successor lists were built")


def test_transitivity_matrix_of_a_system_without_tiles():
    ga, gb = graph_from_matrix([[0]], "A"), graph_from_matrix([[0]], "B")
    sys_ = build_system(ga, gb, Specification(domain=(), mapping={}))
    assert sys_.tiles == sys_.omega == ()
    assert sys_.edge_ids == ((),) * 4 and sys_.corner_ids == ()
    assert is_transitive_matrix(sys_) is False


def test_transitivity_search_of_a_system_without_tiles():
    ga, gb = graph_from_matrix([[0]], "A"), graph_from_matrix([[0]], "B")
    sys_ = build_system(ga, gb, Specification(domain=(), mapping={}))
    assert is_transitive_search(sys_) is False  # the default bound is not refused
    assert is_transitive_search(sys_, 5) is False
    for bound in (0, -1, True, 2.5):
        with pytest.raises(InputError, match=f"^max_steps must be a positive int, got {bound!r}$"):
            is_transitive_search(sys_, bound)


class _NoLookups(dict):
    """A position dict that refuses every lookup."""

    def __getitem__(self, key):
        raise AssertionError("an edge position was looked up after the build")

    get = __contains__ = __getitem__


def _integer_view_reads(sys_):
    last = len(sys_.tiles) - 1
    return (
        sys_.successors, kgroups_of_system(sys_), block_matrix_k0(sys_),
        is_transitive_search(sys_), tiling.witness_path(sys_, last, 0, 2 * len(sys_.omega)),
        is_transitive_matrix(sys_),
    )


def test_consumers_read_the_integer_view_and_look_up_no_edge(random_family):
    families = [
        lambda: exchange_system(3, 4),
        lambda: _identity_system(3),
        lambda: canonical_system(circulant_matrix(4, (1, 2)), circulant_matrix(4, (0, 3))),
    ]
    for sys_ in random_family[1:3]:  # a circulant pair and an exchange pair, random kappa
        a, b, kappa = sys_.graph_a.to_matrix(), sys_.graph_b.to_matrix(), sys_.kappa
        families.append(lambda a=a, b=b, kappa=kappa: build_system(*essential_graphs(a, b), kappa))
    for build in families:
        expected = _integer_view_reads(build())
        sys_ = build()
        for graph in (sys_.graph_a, sys_.graph_b):
            object.__setattr__(graph, "_position", _NoLookups())
        assert _integer_view_reads(sys_) == expected
