"""Reference builds: the graph, specification and tile-system construction as
written before Edge, Tile and the corner-pair order were made from tuple
slices and integer keys, before the commutation check counted paths off the
out-edge lists, and before one pass over the tiles gave their edge positions
and corner-pair indices.  ``tests/test_reference_build.py`` compares the library's
builds with these on every system family the tests use.
"""

from cktiles.errors import CommutationError, InputError
from cktiles.graph import DirectedMultigraph, Edge
from cktiles.matrices import IntMatrix
from cktiles.textile import Specification, TextileSystem, Tile, sigma_ab, sigma_ba


def square_rows(matrix):
    """Validated row lists, each entry checked in turn."""
    rows = matrix.to_lists() if isinstance(matrix, IntMatrix) else [list(r) for r in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError("matrix must be square")
        for x in row:
            if type(x) is not int:
                raise InputError(f"matrix entries must be ints, got {x!r}")
            if x < 0:
                raise InputError(f"matrix entries must be nonnegative, got {x}")
    return rows


def graph_from_matrix(matrix, tag):
    """Entry (i, j) as that many parallel edges, through Edge's constructor."""
    rows = square_rows(matrix)
    edges = tuple(
        Edge(tag, i, j, k)
        for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1) for k in range(1, x + 1)
    )
    return DirectedMultigraph(vertex_count=len(rows), edges=edges, label=tag)


def graph_indexes(graph):
    """The position, key and out-edge indexes of a graph, keyed by the named fields."""
    out = {}
    for e in graph.edges:
        out.setdefault(e.source, []).append(e)
    position = {e: i for i, e in enumerate(graph.edges)}
    return position, {e.key: e for e in graph.edges}, out


def _path_counts(first, second):
    matrix = second.to_matrix()
    counts = [[0] * len(matrix) for _ in matrix]
    for e in first.edges:
        counts[e.source - 1] = [x + y for x, y in zip(counts[e.source - 1], matrix[e.range - 1])]
    return counts


def require_commuting(ga, gb):
    """CommutationError at the first differing entry of AB and BA, row by row."""
    if ga.vertex_count != gb.vertex_count:
        raise InputError(f"vertex counts differ: {ga.vertex_count} vs {gb.vertex_count}")
    for i, (ab, ba) in enumerate(zip(_path_counts(ga, gb), _path_counts(gb, ga)), 1):
        for j, (x, y) in enumerate(zip(ab, ba), 1):
            if x != y:
                raise CommutationError(i, j, x, y)


def canonical_specification(ga, gb):
    """Each (s, r) block of alpha.b paths matched in order with its a.beta paths."""
    require_commuting(ga, gb)
    domain = tuple(sigma_ab(ga, gb))
    blocks_ab = {}
    for alpha, b in domain:
        blocks_ab.setdefault((alpha.source, b.range), []).append((alpha, b))
    blocks_ba = {}
    for a, beta in sigma_ba(ga, gb):
        blocks_ba.setdefault((a.source, beta.range), []).append((a, beta))
    mapping = {}
    for key, ab_list in blocks_ab.items():
        for pair, image in zip(ab_list, blocks_ba.get(key, [])):
            mapping[pair] = image
    return Specification(domain=domain, mapping=mapping)


def assemble(ga, gb, kappa):
    """Tiles through Tile's constructor; corner pairs sorted by a key of two lookups;
    each tile's edges looked up by position one at a time, and its corner pair found
    in a ``{corner: index}`` dict."""
    tiles = tuple(Tile(alpha, b, a, beta) for (alpha, b), (a, beta) in kappa.items())
    pos_a, pos_b = ga._position, gb._position
    omega = tuple(
        sorted({(t.top, t.left) for t in tiles}, key=lambda p: (pos_a[p[0]], pos_b[p[1]]))
    )
    rows = [(pos_a[t.top], pos_b[t.right], pos_b[t.left], pos_a[t.bottom]) for t in tiles]
    edge_ids = tuple(tuple(row[i] for row in rows) for i in range(4))
    row_of = {corner: i for i, corner in enumerate(omega)}
    return TextileSystem(
        graph_a=ga, graph_b=gb, kappa=kappa, tiles=tiles, omega=omega, edge_ids=edge_ids,
        corner_ids=tuple(row_of[(t.top, t.left)] for t in tiles),
    )


def successors(system):
    """(i, right, below) per tile, from dictionaries keyed by the corner pairs' edges."""
    row_of = {corner: i for i, corner in enumerate(system.omega)}
    by_top, by_left = {}, {}
    for j, (top, left) in enumerate(system.omega):
        by_top.setdefault(top, []).append(j)
        by_left.setdefault(left, []).append(j)
    return tuple(
        (row_of[(t.top, t.left)], by_left.get(t.right, ()), by_top.get(t.bottom, ()))
        for t in system.tiles
    )
