import pytest

from cktiles.errors import InputError
from cktiles.graph import is_irreducible
from cktiles.matrices import IntMatrix
from cktiles.textile import Tile, canonical_system, exchange_system
from cktiles.tiling import (
    DOWN,
    RIGHT,
    PavedPatch,
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


def test_paved_patch_rejects_conflicts_and_disconnection():
    sys_ = exchange_system(2, 2)
    t = sys_.tiles[0]
    patch = PavedPatch.empty().with_tile((0, 0), t)
    with pytest.raises(InputError):
        patch.with_tile((3, 3), t)  # not adjacent
    conflicting = next(u for u in sys_.tiles if u.left != t.right)
    with pytest.raises(InputError):
        patch.with_tile((1, 0), conflicting)
