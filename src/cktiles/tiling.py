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
second strictly right-and-below the first".  :func:`is_transitive_search`
asks this of every pair in one sweep; :func:`find_transitivity_witness`
builds one shortest witness by a level sweep over integer states.

Both searches look only at chains of the form R^i D^j (i, j >= 1), by a swap
lemma.  Take a Down then a Right move, w1 -> w2 -> w3.  kappa's endpoint rules
and the links give
r(right w1) = r(bottom w1) = r(top w2) = s(right w2) = s(left w3) = s(top w3),
so (right w1, top w3) is a B-then-A path.  kappa maps Sigma_AB onto Sigma_BA
one to one, so exactly one tile w4 has that left and bottom edge: w1 -> w4 -> w3
is a Right then a Down move.  Swapping until no Down comes before a Right turns
a chain with both kinds of move into an R^i D^j one of the same length and ends.

The witness search sweeps (tile, saw-a-Right, saw-a-Down) states level by
level, each making its Right moves before its Down moves, and names the
witness a FIFO search over all states names.  It makes no Down move before the
first Right: the start's Right moves come first, so at every level that search
meets the Right-first states first.  Nor does it make a Right move after a
Down, which changes no parent: by induction on the level L, no such move
discovers a state.  Say P = (w2, both flags) at level L moves Right to w3.  By
the hypothesis a Down move from some Q = (w1, saw a Right) at level L - 1
first reached P.  Q's Right move into the swap tile w4 came first, so its state
Y, which saw a Right, was discovered before P at a level of at most L, and Y's
Down move into (w3, both flags) came before P's moves.  Goals have both flags,
so only a Down move first reaches one.
"""

from collections import defaultdict, namedtuple

from .errors import InputError
from .graph import unreachable_pair

RIGHT = "right"
DOWN = "down"


class PavedPatch(namedtuple("PavedPatch", "cells")):
    """A finite assignment of lattice positions to tiles, hashed by its cells.

    The constructor admits any cells, connected and agreeing or not;
    :meth:`with_tile` and :func:`extend_patch` take only a vacant position
    next to some cell of a nonempty patch.  :meth:`is_paved` and
    :meth:`is_connected` report on whatever cells a patch holds.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.cells.items()))

    @classmethod
    def empty(cls):
        return cls(cells={})

    def with_tile(self, position, tile):
        """Return a new patch with ``tile`` placed; neighbors must agree on edges."""
        self._require_open(position)
        for neighbor, problem in _neighbor_conflicts(self.cells, position, tile):
            raise InputError(f"tile conflicts with neighbor at {neighbor}: {problem}")
        return PavedPatch(cells={**self.cells, position: tile})

    def _require_open(self, position):
        """Refuse an occupied position, or one no cell of a nonempty patch touches."""
        if position in self.cells:
            raise InputError(f"position {position} already occupied")
        if self.cells and not any(p in self.cells for p in _neighbors(position)):
            raise InputError(f"position {position} is not adjacent to the patch")

    def is_paved(self):
        """True iff every pair of adjacent cells agrees on the shared edge."""
        cells = self.cells
        return all(next(_neighbor_conflicts(cells, p, t), None) is None for p, t in cells.items())

    def is_connected(self):
        """True iff the cells' adjacency graph is connected (and so when fewer than two)."""
        if len(self.cells) < 2:
            return True
        index = {p: k for k, p in enumerate(self.cells)}
        heads = [[index[q] for q in _neighbors(p) if q in index] for p in index]
        return unreachable_pair(heads) is None


def _neighbors(position):
    """The four lattice positions that share an edge with ``position``."""
    i, j = position
    return (i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)


def _neighbor_conflicts(cells, position, tile):
    """Yield (neighbor position, description) for every edge disagreement."""
    i, j = position
    for neighbor, mine, theirs in (
        ((i, j + 1), "top", "bottom"), ((i, j - 1), "bottom", "top"),
        ((i - 1, j), "left", "right"), ((i + 1, j), "right", "left"),
    ):
        other = cells.get(neighbor)
        if other is not None and getattr(tile, mine) != getattr(other, theirs):
            yield neighbor, f"{mine} {getattr(tile, mine)!r} != {theirs} {getattr(other, theirs)!r}"


class StaircaseWitness(namedtuple("StaircaseWitness", "start moves tiles end_position")):
    """A Right/Down chain of tiles certifying that two tiles co-occur.

    ``tiles`` holds the tile placed by each move; ``end_position`` is the
    lattice offset of the final tile from the start and satisfies j < 0 < i.
    """

    __slots__ = ()

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


class DiagonalPropertyResult(
    namedtuple("DiagonalPropertyResult", "ok pair completions", defaults=(None, None))
):
    """Outcome of the diagonal-property count; false-y with a counterexample on failure."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def diagonal_property_of_tiles(tiles):
    """Count joint completions for every diagonal pair of tiles.

    For tiles w1 at (i, j) and w2 at (i+1, j-1), a completion is a pair
    (w3, w4) for positions (i, j-1) and (i+1, j): w3 must satisfy
    t(w3) = b(w1) and r(w3) = l(w2); w4 must satisfy l(w4) = r(w1) and
    b(w4) = t(w2).  The property holds iff every such count is at most 1, as
    it does at once when no two tiles share a (top, right) or (left, bottom).
    """
    by_top_right = defaultdict(list)
    by_left_bottom = defaultdict(list)
    for t in tiles:
        by_top_right[(t.top, t.right)].append(t)
        by_left_bottom[(t.left, t.bottom)].append(t)
    if len(by_top_right) == len(by_left_bottom) == len(tiles):
        return DiagonalPropertyResult(ok=True)
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


def _unreachable_corner_pair(sys):
    """:func:`~cktiles.graph.unreachable_pair` on A_k + B_k = RL, corner → edge → corner:
    corner pair i is vertex i < n, B-edge e is n + e and A-edge e is n + |E_B| + e, a tile
    at c giving c → its right, bottom edge and its left, top edge → c.  None iff irreducible."""
    n, shift = len(sys.omega), len(sys.omega) + len(sys.graph_b.edges)
    heads = [[] for _ in range(shift + len(sys.graph_a.edges))]
    for c, t, r, l, b in zip(sys.corner_ids, *sys.edge_ids):
        heads[c] += n + r, shift + b
        heads[n + l].append(c)
        heads[shift + t].append(c)
    return unreachable_pair(heads, n)


def is_transitive_matrix(sys):
    """Matrix criterion for transitivity: the sum of transition matrices is irreducible.

    Decided on the integer view's corners and edges; no matrix, no ``successors``.
    The dense A_k + B_k or H_k is irreducible on the same condition; tests check it.
    """
    return bool(sys.omega) and _unreachable_corner_pair(sys) is None


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


def _require_bound(max_steps):
    if type(max_steps) is not int or max_steps < 1:
        raise InputError(f"max_steps must be a positive int, got {max_steps!r}")


def _staircase_bfs(sys, start_idx, max_steps, target_idx):
    """Breadth-first search over the (tile, saw-a-Right, saw-a-Down) states of R^i D^j chains.

    A state is the int ``4 * tile index + 2 * saw_right + saw_down``.  Only a
    state that saw no Down makes Right moves, only one that saw a Right makes
    Down moves, and each state a Down move first reaches is tested as a goal;
    the module docstring shows that this names the witness of a FIFO search over
    all states that tests at dequeue.

    Returns the parent map, ``{state: (parent state, move)}`` with None for the
    start, and the first state with both flags set whose tile has the
    (top, left) corner of tile ``target_idx``, or None.
    """
    top, right, left, bottom = sys.edge_ids
    by_left = [[] for _ in sys.graph_b.edges]
    by_top = [[] for _ in sys.graph_a.edges]
    for base, l, t in zip(range(0, 4 * len(top), 4), left, top):
        by_left[l].append(base)
        by_top[t].append(base)
    goal_top = top[target_idx]
    goals = {base | 3 for base in by_left[left[target_idx]] if top[base >> 2] == goal_top}
    parents = {4 * start_idx: None}
    level = [4 * start_idx]
    for _ in range(max_steps):
        discovered = []
        for state in level:
            idx = state >> 2
            for base in () if state & 1 else by_left[right[idx]]:  # no Right after a Down
                nxt = base | 2  # a Right move sets saw_right
                if nxt not in parents:
                    parents[nxt] = (state, RIGHT)
                    discovered.append(nxt)
            for base in by_top[bottom[idx]] if state & 2 else ():  # no Down before a Right
                nxt = base | 3  # so a Down move sets both flags
                if nxt not in parents:
                    parents[nxt] = (state, DOWN)
                    if nxt in goals:
                        return parents, nxt
                    discovered.append(nxt)
        if not discovered:
            break
        level = discovered
    return parents, None


def witness_path(sys, start, target, max_steps):
    """:func:`find_transitivity_witness` on tile indices: the shortest witness from
    ``sys.tiles[start]`` to ``sys.tiles[target]`` as (moves, indices, end position), or None."""
    for value in (start, target):
        if type(value) is not int or not 0 <= value < len(sys.tiles):
            raise InputError(f"tile index {value} out of range 0..{len(sys.tiles) - 1}")
    _require_bound(max_steps)
    parents, goal = _staircase_bfs(sys, start, max_steps, target)
    if goal is None:
        return None
    path = []
    while parents[goal] is not None:
        prev, move = parents[goal]
        path.append((move, goal >> 2))
        goal = prev
    moves, indices = zip(*reversed(path))  # nonempty: the goal saw both moves
    rights = moves.count(RIGHT)
    return moves, indices, (rights, rights - len(moves))


def find_transitivity_witness(sys, start, target, max_steps):
    """Shortest staircase witness from ``start`` to ``target``, by breadth-first search.

    States are (tile, saw-a-Right, saw-a-Down) along R^i D^j chains; the goal is
    any state with both flags set whose tile shares the (top, left) corner of
    ``target``, and it is found at the level and by the parent chain a FIFO
    search over all states testing at dequeue finds.  Returns None when no
    witness exists within ``max_steps`` moves; that is a result, not an error.
    Every link is read off the tiles listed by edge, so the witness is valid as
    built; :func:`witness_is_valid` re-verifies it in tests.
    """
    tiles = sys.tiles
    if start not in tiles or target not in tiles:
        raise InputError("both tiles must belong to the system's tile set")
    found = witness_path(sys, tiles.index(start), tiles.index(target), max_steps)
    if found is None:
        return None
    moves, indices, end_position = found
    return StaircaseWitness(
        start=start, moves=moves, tiles=tuple(map(tiles.__getitem__, indices)),
        end_position=end_position,
    )


def is_transitive_search(sys, max_steps=None):
    """True iff every ordered pair of tiles admits a staircase witness.

    A witness may be taken as R^i D^j (module docstring), so one level sweep on
    the staircase edge digraph runs every start at once, one bit per start tile.
    Node b is B-edge b (Right phase) and node ``len(E_B) + a`` is A-edge a (Down
    phase); each tile adds the arcs left -> right, left -> bottom (the first
    Down) and top -> bottom (a later Down), and start s enters node right(s) at
    level 1.  Reaching a node at level k is making the k-th move into every tile
    with that left (or top) edge, so reaching an A-edge covers every corner pair
    on it, and w' has a witness from s within ``max_steps`` moves exactly when s
    reaches top(w') within that many levels.  A start with no new node has none
    later, so the sweep stops at the first level where every start has reached
    every tile's top (True) or some start that has not is dead (False).  A level
    costs O(T + m) operations on T-bit ints; on a non-transitive system every
    start advances until the first one dies.

    The default bound of twice the number of corner pairs is enough for the
    search to agree with the matrix criterion: positivity of an irreducible
    0/1 matrix power entry occurs within the dimension, doubled to make room
    for one forced move of each kind.  A system with no tiles is not
    transitive, as the matrix criterion says, at any bound.
    """
    if max_steps is None:
        max_steps = 2 * len(sys.omega) or 1  # 1 with no tiles, so the default passes
    _require_bound(max_steps)
    if not sys.tiles:
        return False
    shift = len(sys.graph_b.edges)
    heads = [set() for _ in range(shift + len(sys.graph_a.edges))]
    arriving = [0] * len(heads)  # by node: the starts entering it at this level
    for s, (t, r, l, b) in enumerate(zip(*sys.edge_ids)):
        heads[l].update((r, shift + b))
        heads[shift + t].add(shift + b)
        arriving[r] |= 1 << s
    tops = {shift + t for t in sys.edge_ids[0]}
    everyone = (1 << len(sys.tiles)) - 1
    reached = [0] * len(heads)
    for _ in range(max_steps):
        onward = [0] * len(heads)
        live = 0
        for node, new in enumerate(arriving):
            new &= ~reached[node]
            if new:
                reached[node] |= new
                live |= new
                for head in heads[node]:
                    onward[head] |= new
        complete = everyone
        for node in tops:
            complete &= reached[node]
        if complete == everyone:
            return True
        if live | complete != everyone:
            return False
        arriving = onward
    return False


def extend_patch(sys, patch, position):
    """All tiles that could legally occupy ``position`` next to a patch.

    For an empty patch there are no constraints and every tile qualifies.
    Otherwise the position must be vacant and adjacent to the patch domain.
    """
    patch._require_open(position)
    return [t for t in sys.tiles if next(_neighbor_conflicts(patch.cells, position, t), None) is None]
