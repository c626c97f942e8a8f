"""Finite-patch semantics of the two-dimensional tiling shift.

Coordinates follow the usual convention: moving Right goes from (i, j) to
(i+1, j) and requires the new tile's left edge to equal the old tile's right
edge; moving Down goes to (i, j-1) and requires the new tile's top edge to
equal the old tile's bottom edge.

Transitivity is certified on finite staircases: a witness from tile w to tile
w' is a chain of Right/Down moves, using at least one of each, that ends on a
tile sharing the (top, left) corner of w'.  The diagonal property extends such
a staircase to a full plane configuration, so a finite witness is the
computational meaning of "both tiles occur in one configuration with the
second strictly right-and-below the first".
"""

from collections import defaultdict, deque
from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .graph import is_irreducible

RIGHT = "right"
DOWN = "down"


@dataclass(frozen=True)
class PavedPatch:
    """A finite connected assignment of lattice positions to tiles."""

    cells: dict

    @classmethod
    def empty(cls):
        return cls(cells={})

    def with_tile(self, position, tile):
        """Return a new patch with ``tile`` placed; neighbors must agree on edges."""
        if position in self.cells:
            raise InputError(f"position {position} already occupied")
        if self.cells and not self._adjacent_to_domain(position):
            raise InputError(f"position {position} is not adjacent to the patch")
        for neighbor, problem in _neighbor_conflicts(self.cells, position, tile):
            raise InputError(f"tile conflicts with neighbor at {neighbor}: {problem}")
        cells = dict(self.cells)
        cells[position] = tile
        return PavedPatch(cells=cells)

    def _adjacent_to_domain(self, position):
        i, j = position
        return any(
            p in self.cells for p in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
        )

    def is_paved(self):
        """True iff every pair of adjacent cells agrees on the shared edge."""
        for position, tile in self.cells.items():
            if any(True for _ in _neighbor_conflicts(self.cells, position, tile)):
                return False
        return True

    def is_connected(self):
        if not self.cells:
            return True
        seen = set()
        frontier = deque([next(iter(self.cells))])
        while frontier:
            i, j = frontier.popleft()
            if (i, j) in seen:
                continue
            seen.add((i, j))
            for p in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if p in self.cells and p not in seen:
                    frontier.append(p)
        return len(seen) == len(self.cells)


def _neighbor_conflicts(cells, position, tile):
    """Yield (neighbor position, description) for every edge disagreement."""
    i, j = position
    north = cells.get((i, j + 1))
    if north is not None and tile.top != north.bottom:
        yield (i, j + 1), f"top {tile.top!r} != bottom {north.bottom!r}"
    south = cells.get((i, j - 1))
    if south is not None and tile.bottom != south.top:
        yield (i, j - 1), f"bottom {tile.bottom!r} != top {south.top!r}"
    west = cells.get((i - 1, j))
    if west is not None and tile.left != west.right:
        yield (i - 1, j), f"left {tile.left!r} != right {west.right!r}"
    east = cells.get((i + 1, j))
    if east is not None and tile.right != east.left:
        yield (i + 1, j), f"right {tile.right!r} != left {east.left!r}"


@dataclass(frozen=True)
class StaircaseWitness:
    """A Right/Down chain of tiles certifying that two tiles co-occur.

    ``tiles`` holds the tile placed by each move; ``end_position`` is the
    lattice offset of the final tile from the start and satisfies j < 0 < i.
    """

    start: object
    moves: tuple
    tiles: tuple
    end_position: tuple

    def positions(self):
        """Lattice positions visited, starting at (0, 0)."""
        i = j = 0
        out = [(0, 0)]
        for move in self.moves:
            if move == RIGHT:
                i += 1
            else:
                j -= 1
            out.append((i, j))
        return out


@dataclass(frozen=True)
class DiagonalPropertyResult:
    """Outcome of the diagonal-property count; false-y with a counterexample on failure."""

    ok: bool
    pair: tuple | None = None
    completions: tuple | None = None

    def __bool__(self):
        return self.ok


def diagonal_property_of_tiles(tiles):
    """Count joint completions for every diagonal pair of tiles.

    For tiles w1 at (i, j) and w2 at (i+1, j-1), a completion is a pair
    (w3, w4) for positions (i, j-1) and (i+1, j): w3 must satisfy
    t(w3) = b(w1) and r(w3) = l(w2); w4 must satisfy l(w4) = r(w1) and
    b(w4) = t(w2).  The property holds iff every such count is at most 1.
    """
    by_top_right = defaultdict(list)
    by_left_bottom = defaultdict(list)
    for t in tiles:
        by_top_right[(t.top, t.right)].append(t)
        by_left_bottom[(t.left, t.bottom)].append(t)
    for w1 in tiles:
        for w2 in tiles:
            below = by_top_right.get((w1.bottom, w2.left), ())
            beside = by_left_bottom.get((w1.right, w2.top), ())
            if len(below) * len(beside) > 1:
                completions = tuple((w3, w4) for w3 in below for w4 in beside)
                return DiagonalPropertyResult(ok=False, pair=(w1, w2), completions=completions)
    return DiagonalPropertyResult(ok=True)


def check_diagonal_property(sys):
    """Diagonal-property check for a built system's tile set."""
    return diagonal_property_of_tiles(sys.tiles)


def is_transitive_matrix(sys):
    """Matrix criterion for transitivity: the sum of transition matrices is irreducible.

    Irreducibility of the doubled block matrix H_k is the same condition; the
    test suite checks that the two agree, so it is not recomputed here.
    """
    return is_irreducible(sys.a_kappa + sys.b_kappa)


def _successor_maps(sys):
    """Tile-level Right and Down successor lists, by tile index."""
    by_left = defaultdict(list)
    by_top = defaultdict(list)
    for idx, t in enumerate(sys.tiles):
        by_left[t.left].append(idx)
        by_top[t.top].append(idx)
    right_succ = [by_left.get(t.right, []) for t in sys.tiles]
    down_succ = [by_top.get(t.bottom, []) for t in sys.tiles]
    return right_succ, down_succ


def witness_is_valid(sys, witness, start, target):
    """Re-verify a staircase witness link by link, independently of the search."""
    if witness.start != start or witness.start not in sys.tiles:
        return False
    if len(witness.moves) != len(witness.tiles):
        return False
    current = witness.start
    rights = downs = 0
    for move, tile in zip(witness.moves, witness.tiles):
        if tile not in sys.tiles:
            return False
        if move == RIGHT:
            if tile.left != current.right:
                return False
            rights += 1
        elif move == DOWN:
            if tile.top != current.bottom:
                return False
            downs += 1
        else:
            return False
        current = tile
    if witness.end_position != (rights, -downs):
        return False
    i, j = witness.end_position
    if not (j < 0 < i):
        return False
    return (current.top, current.left) == (target.top, target.left)


def find_transitivity_witness(sys, start, target, max_steps):
    """Breadth-first search for a staircase witness from ``start`` to ``target``.

    States are (tile, saw-a-Right, saw-a-Down); the goal is any state with
    both flags set whose tile shares the (top, left) corner of ``target``.
    Returns None when no witness exists within ``max_steps`` moves; that is a
    result, not an error.
    """
    if max_steps < 1:
        raise InputError("max_steps must be positive")
    tile_index = {t: i for i, t in enumerate(sys.tiles)}
    if start not in tile_index or target not in tile_index:
        raise InputError("both tiles must belong to the system's tile set")
    right_succ, down_succ = _successor_maps(sys)
    goal_corner = (target.top, target.left)

    start_state = (tile_index[start], False, False)
    parents = {start_state: None}
    frontier = deque([(start_state, 0)])
    goal = None
    while frontier:
        state, depth = frontier.popleft()
        idx, saw_r, saw_d = state
        tile = sys.tiles[idx]
        if saw_r and saw_d and (tile.top, tile.left) == goal_corner:
            goal = state
            break
        if depth == max_steps:
            continue
        for nxt in right_succ[idx]:
            ns = (nxt, True, saw_d)
            if ns not in parents:
                parents[ns] = (state, RIGHT)
                frontier.append((ns, depth + 1))
        for nxt in down_succ[idx]:
            ns = (nxt, saw_r, True)
            if ns not in parents:
                parents[ns] = (state, DOWN)
                frontier.append((ns, depth + 1))
    if goal is None:
        return None
    moves = []
    tiles = []
    state = goal
    while parents[state] is not None:
        prev, move = parents[state]
        moves.append(move)
        tiles.append(sys.tiles[state[0]])
        state = prev
    moves.reverse()
    tiles.reverse()
    rights = sum(1 for m in moves if m == RIGHT)
    downs = len(moves) - rights
    witness = StaircaseWitness(
        start=start, moves=tuple(moves), tiles=tuple(tiles), end_position=(rights, -downs)
    )
    if not witness_is_valid(sys, witness, start, target):
        raise InternalCheckError("search produced an invalid staircase witness")
    return witness


def is_transitive_search(sys, max_steps=None):
    """True iff every ordered pair of tiles admits a staircase witness.

    The default bound of twice the number of corner pairs is enough for the
    search to agree with the matrix criterion: positivity of an irreducible
    0/1 matrix power entry occurs within the dimension, doubled to make room
    for one forced move of each kind.
    """
    if max_steps is None:
        max_steps = 2 * len(sys.omega)
    for start in sys.tiles:
        for target in sys.tiles:
            if find_transitivity_witness(sys, start, target, max_steps) is None:
                return False
    return True


def extend_patch(sys, patch, position):
    """All tiles that could legally occupy ``position`` next to a patch.

    For an empty patch there are no constraints and every tile qualifies.
    Otherwise the position must be vacant and adjacent to the patch domain.
    """
    if patch.cells:
        if position in patch.cells:
            raise InputError(f"position {position} already occupied")
        if not patch._adjacent_to_domain(position):
            raise InputError(f"position {position} is not adjacent to the patch")
    return [
        t
        for t in sys.tiles
        if not any(True for _ in _neighbor_conflicts(patch.cells, position, t))
    ]
