"""Reference staircase search: ``tiling.is_transitive_search`` as written before
it swept every start tile at once.  It runs one level-by-level sweep of tile
bitsets per start tile and stops at the first start whose sweep fails.
``tests/test_search.py`` checks that the library gives its answer at every
bound on every system family the tests use.
"""


def _step(masks, tiles):
    """The tiles one move away from the tile bitset ``tiles``, given the
    (leaving, entering) tile bitsets of each edge."""
    reached = 0
    for leaving, entering in masks:
        if leaving & tiles:
            reached |= entering
    return reached


def _staircase_sweep(start_idx, max_steps, right, down, corners):
    """True iff the states with both flags set reached from ``start_idx`` within
    ``max_steps`` moves meet every tile bitset in ``corners``.

    Each layer of states (saw a Right, a Down, or both) is swept level by level
    as a visited and a new tile bitset; a state joins its layer at its
    breadth-first distance.  The start, with neither flag, is in level 0 only.
    """
    first = 1 << start_idx
    seen_r = seen_d = seen_rd = new_r = new_d = new_rd = 0
    for _ in range(max_steps):
        new_r, new_d, new_rd = (
            _step(right, first | new_r) & ~seen_r,
            _step(down, first | new_d) & ~seen_d,
            (_step(right, new_d | new_rd) | _step(down, new_r | new_rd)) & ~seen_rd,
        )
        first = 0
        seen_r, seen_d, seen_rd = seen_r | new_r, seen_d | new_d, seen_rd | new_rd
        if new_rd:  # only new both-flag states meet corners; with some, the start is live
            corners = [c for c in corners if not c & new_rd]
            if not corners:
                return True
        elif not (new_r or new_d):
            return False
    return False


def is_transitive_search(sys, max_steps=None):
    """True iff every start tile's sweep meets every corner within ``max_steps``
    moves (default 2|omega|); False for a system with no tiles."""
    if max_steps is None:
        max_steps = 2 * len(sys.omega)
    if not sys.tiles:
        return False
    right = [[0, 0] for _ in sys.graph_b.edges]  # by B-edge: tiles leaving, entering
    down = [[0, 0] for _ in sys.graph_a.edges]  # by A-edge
    corners = [0] * len(sys.omega)
    for k, (t, r, l, b, c) in enumerate(zip(*sys.edge_ids, sys.corner_ids)):
        right[r][0] |= 1 << k
        right[l][1] |= 1 << k
        down[b][0] |= 1 << k
        down[t][1] |= 1 << k
        corners[c] |= 1 << k
    return all(_staircase_sweep(k, max_steps, right, down, corners) for k in range(len(sys.tiles)))
