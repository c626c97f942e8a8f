"""Tile systems glued from two commuting matrices.

Given two essential nonnegative integer matrices A, B on a common vertex set
with AB = BA, a *specification* is a bijection kappa from two-step paths
alpha.b (an A-edge followed by a B-edge) to two-step paths a.beta (a B-edge
followed by an A-edge) that preserves all four boundary vertices.  Each
matched pair becomes a unit-square tile

        top  = alpha        (A-edge)
        right = b, left = a (B-edges)
        bottom = beta       (A-edge)

and the whole collection is an LR-textile system: a Wang tile set together
with the 0/1 transition matrices describing horizontal and vertical
concatenation of tiles.
"""

from collections import namedtuple
from functools import cached_property
from itertools import groupby
from operator import itemgetter, mul

from .errors import CommutationError, InputError, SpecificationError
from .graph import Edge, _square_rows, graph_from_matrix, is_essential
from .matrices import IntMatrix


class Specification(namedtuple("Specification", "domain mapping")):
    """A bijection from A-then-B edge paths to B-then-A edge paths.

    ``domain`` is ordered, and a built system numbers its tiles in that
    order: the canonical and exchange specifications list it
    lexicographically by edge position, an explicit kappa keeps the order of
    its document.  ``mapping`` sends each (alpha, b) with r(alpha) = s(b) to
    some (a, beta) with r(a) = s(beta), s(alpha) = s(a) and r(b) = r(beta).
    """

    __slots__ = ()

    def __call__(self, alpha, b):
        return self.mapping[(alpha, b)]

    def items(self):
        """Pairs ((alpha, b), (a, beta)) in domain order."""
        return tuple((pair, self.mapping[pair]) for pair in self.domain)


class Tile(namedtuple("Tile", "top right left bottom")):
    """A unit square tile; the four edges satisfy kappa(top, right) = (left, bottom).
    Tuple-backed: it hashes (in C) and pickles as the tuple of its fields."""

    __slots__ = ()

    def __repr__(self):
        return f"Tile(t={self.top!r}, r={self.right!r}, l={self.left!r}, b={self.bottom!r})"


class ValidationReport(
    namedtuple("ValidationReport", "ok failure detail pair", defaults=(None, None, None))
):
    """Outcome of validating a specification; false-y iff some constraint failed.
    ``failure`` names the constraint, ``detail`` says how and ``pair`` is the domain pair."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


class TextileSystem(
    namedtuple("TextileSystem", "graph_a graph_b kappa tiles omega edge_ids corner_ids")
):
    """A built tile system: tiles, corner pairs and their integer view; matrices on read.

    ``omega`` lists the (top, left) corners of tiles in lexicographic order of
    edge positions.  The integer view, which :func:`_assemble` builds and every
    check and search reads, is ``edge_ids``, four tuples indexed like ``tiles``
    (each tile's top, right, left and bottom edge as its position in its graph),
    and ``corner_ids``, each tile's corner pair as its index in ``omega``.  The
    dense {0,1} matrices ``a_kappa``, ``b_kappa`` and ``h_kappa`` are built on first read,
    into the instance dict that ``cached_property`` needs.
    """

    @cached_property
    def successors(self):
        """(i, right, below) per tile: its corner pair i, from ``corner_ids``, and the corner
        pairs whose left edge is its right edge (A_k's 1s in row i) and whose top edge
        is its bottom edge (B_k's 1s in row i).  Only the block-matrix cross-check and
        the dense matrices read it; transitivity searches the integer view itself."""
        top, right, left, bottom = self.edge_ids
        tile_at = dict(zip(self.corner_ids, range(len(top))))  # corner pair -> a tile there
        by_top, by_left = [[] for _ in self.graph_a.edges], [[] for _ in self.graph_b.edges]
        for i in range(len(self.omega)):
            by_top[top[tile_at[i]]].append(i)
            by_left[left[tile_at[i]]].append(i)
        beside, below = map(by_left.__getitem__, right), map(by_top.__getitem__, bottom)
        return tuple(zip(self.corner_ids, beside, below))

    def _transition_matrix(self, vertical):
        n = len(self.omega)
        rows = [[0] * n for _ in range(n)]
        for i, right, below in self.successors:
            for j in below if vertical else right:
                rows[i][j] = 1
        return IntMatrix(rows)

    @cached_property
    def a_kappa(self):
        """A_k: 1 at ((alpha, a), (delta, b)) iff kappa(alpha, b) = (a, beta) for some beta."""
        return self._transition_matrix(vertical=False)

    @cached_property
    def b_kappa(self):
        """B_k: 1 at ((alpha, a), (beta, d)) iff kappa(alpha, b) = (a, beta) for some b."""
        return self._transition_matrix(vertical=True)

    @cached_property
    def h_kappa(self):
        """H_k = [[A_k, A_k], [B_k, B_k]], whose Cuntz-Krieger algebra the K-theory studies."""
        return IntMatrix(
            [row + row for row in self.a_kappa.data] + [row + row for row in self.b_kappa.data]
        )

    def __repr__(self):
        return (
            f"TextileSystem(|E_A|={len(self.graph_a.edges)}, "
            f"|E_B|={len(self.graph_b.edges)}, |tiles|={len(self.tiles)}, "
            f"|omega|={len(self.omega)})"
        )


def _require_same_vertices(ga, gb):
    if ga.vertex_count != gb.vertex_count:
        raise InputError(
            f"vertex counts differ: {ga.vertex_count} vs {gb.vertex_count}"
        )


MAX_EDGES = 100_000  # |E_A| + |E_B|
MAX_TILES = 250_000  # sum_k colsum_k(A) rowsum_k(B); exchange(200, 300) has 60,000


def essential_graphs(matrix_a, matrix_b):
    """The graphs of A and B; InputError if either has a zero row or column.

    The one input gate, checking each entry once: the CLI, :func:`canonical_system`
    and :func:`exchange_system` build graphs here.  Sizes over MAX_EDGES or
    MAX_TILES are refused before any edge exists (A and B of two sizes are refused
    later, before any tile exists).
    """
    rows_a, rows_b = _square_rows(matrix_a), _square_rows(matrix_b)
    for name, rows in (("A", rows_a), ("B", rows_b)):
        if not is_essential(rows):
            raise InputError(f"matrix {name} is not essential: it has a zero row or column")
    edges = sum(map(sum, rows_a)) + sum(map(sum, rows_b))
    if edges > MAX_EDGES:
        raise InputError(f"system too large: {edges} edges, over the limit of {MAX_EDGES}")
    if len(rows_a) == len(rows_b):
        tiles = sum(map(mul, map(sum, zip(*rows_a)), map(sum, rows_b)))
        if tiles > MAX_TILES:
            raise InputError(f"system too large: {tiles} tiles, over the limit of {MAX_TILES}")
    return graph_from_matrix(rows_a, "A"), graph_from_matrix(rows_b, "B")


def sigma_ab(ga, gb):
    """All pairs (alpha, b) with alpha an A-edge, b a B-edge and r(alpha) = s(b).

    Ordered lexicographically by (position of alpha, position of b).
    """
    _require_same_vertices(ga, gb)
    return [(alpha, b) for alpha in ga.edges for b in gb._out.get(alpha.range, ())]


def sigma_ba(ga, gb):
    """All pairs (a, beta) with a a B-edge, beta an A-edge and r(a) = s(beta)."""
    _require_same_vertices(ga, gb)
    return [(a, beta) for a in gb.edges for beta in ga._out.get(a.range, ())]


def _path_counts(first, second):
    """Entry n (i - 1) + j - 1 counts the paths e.f from vertex i to vertex j, e in
    ``first``, f in ``second``: the product matrix, row-major, read off ``_out`` a run
    of parallel edges e at a time (work: nonzero entries times out-degrees, not paths)."""
    n, out = first.vertex_count, second._out
    counts = [0] * (n * n)
    for (i, k), run in groupby(first.edges, itemgetter(1, 2)):
        base, weight = (i - 1) * n - 1, len([*run])
        for f in out.get(k, ()):
            counts[base + f[2]] += weight
    return counts


def require_commuting(ga, gb):
    """Raise CommutationError (citing the first differing entry) unless AB = BA.

    Graphs on different vertex counts raise InputError first.
    """
    _require_same_vertices(ga, gb)
    ab, ba = _path_counts(ga, gb), _path_counts(gb, ga)
    if ab != ba:
        k = next(k for k, (x, y) in enumerate(zip(ab, ba)) if x != y)
        i, j = divmod(k, ga.vertex_count)
        raise CommutationError(i + 1, j + 1, ab[k], ba[k])


def canonical_specification(ga, gb):
    """The deterministic specification obtained by sorted blockwise matching.

    For each ordered vertex pair (i, j), the lexicographically sorted list of
    two-step paths alpha.b from i to j is matched position by position with
    the sorted list of paths a.beta from i to j.  Both lists have length
    (AB)(i, j) = (BA)(i, j), so commutation is exactly what makes this work.
    """
    require_commuting(ga, gb)
    domain, n = tuple(sigma_ab(ga, gb)), ga.vertex_count + 1

    def block(path):  # (s, r) as an int; sorted is stable, so each block keeps its order
        return path[0][1] * n + path[1][2]

    mapping = dict(zip(sorted(domain, key=block), sorted(sigma_ba(ga, gb), key=block)))
    return Specification(domain=domain, mapping=mapping)


def exchange_specification(ga, gb):
    """The exchange specification on the single-vertex graphs of [n] and [m].

    Every domain pair is simply swapped: kappa(alpha, a) = (a, alpha).
    """
    if ga.vertex_count != 1 or gb.vertex_count != 1:
        raise InputError('kappa "exchange" requires 1x1 matrices [[N]], [[M]]')
    if len(ga.edges) <= 1 or len(gb.edges) <= 1:
        raise InputError("exchange specification requires n > 1 and m > 1")
    domain = tuple(sigma_ab(ga, gb))
    mapping = {(alpha, a): (a, alpha) for alpha, a in domain}
    return Specification(domain=domain, mapping=mapping)


def _composable(pair, first, second):
    """True iff ``pair`` is (e, f) with Edges e in ``first``, f in ``second`` and r(e) = s(f)."""
    return (
        isinstance(pair, tuple) and len(pair) == 2 and type(pair[0]) is type(pair[1]) is Edge
        and pair[0] in first and pair[1] in second and pair[0].range == pair[1].source
    )


def validate_specification(kappa, ga, gb):
    """Check bijectivity and the four endpoint constraints of a specification.

    Returns a ValidationReport naming the first violated constraint and the
    offending domain pair, rather than raising.  Each domain pair and each
    image is checked where it stands; |Sigma_AB| and |Sigma_BA| are the entry
    sums of AB and BA from :func:`_path_counts`, so neither is enumerated.
    """
    _require_same_vertices(ga, gb)
    edges_a, edges_b = ga._position, gb._position  # dicts keyed by the edges
    domain = set(kappa.domain)
    expected = sum(_path_counts(ga, gb))
    if len(domain) != len(kappa.domain) or len(domain) != expected or not all(
        _composable(pair, edges_a, edges_b) for pair in domain
    ):
        return ValidationReport(
            ok=False,
            failure="domain-mismatch",
            detail=f"domain has {len(domain)} pairs, expected all "
            f"{expected} composable (alpha, b) pairs",
        )
    seen_images = {}
    for pair in kappa.domain:
        alpha, b = pair
        image = kappa.mapping.get(pair)
        if image is None:
            return ValidationReport(
                ok=False, failure="domain-mismatch",
                detail="pair missing from mapping", pair=pair,
            )
        if not _composable(image, edges_b, edges_a):
            return ValidationReport(
                ok=False, failure="endpoint-r(a)=s(beta)",
                detail=f"image {image!r} is not a composable (a, beta) pair",
                pair=pair,
            )
        if image in seen_images:
            return ValidationReport(
                ok=False, failure="not-injective",
                detail=f"image {image!r} already taken by {seen_images[image]!r}",
                pair=pair,
            )
        seen_images[image] = pair
        a, beta = image
        if alpha.source != a.source:
            return ValidationReport(
                ok=False, failure="endpoint-s(alpha)=s(a)",
                detail=f"s(alpha)={alpha.source} but s(a)={a.source}", pair=pair,
            )
        if b.range != beta.range:
            return ValidationReport(
                ok=False, failure="endpoint-r(b)=r(beta)",
                detail=f"r(b)={b.range} but r(beta)={beta.range}", pair=pair,
            )
    images = sum(_path_counts(gb, ga))
    if len(seen_images) != images:
        return ValidationReport(
            ok=False, failure="not-surjective",
            detail=f"image covers {len(seen_images)} of {images} (a, beta) pairs",
        )
    return ValidationReport(ok=True)


def _assemble(ga, gb, kappa):
    """Tiles, corner pairs and their integer view for a kappa known valid; no matrix.
    The one place a built system's edges become ints: each tile's four edges are
    looked up once; each corner pair's key position(top) |E_B| + position(left)
    orders Ω and gives ``corner_ids``.  Tiles skip Tile's Python-level __new__."""
    mapping, new = kappa.mapping, tuple.__new__
    tiles = tuple(new(Tile, pair + mapping[pair]) for pair in kappa.domain)
    pos_a, pos_b = ga._position.__getitem__, gb._position.__getitem__
    columns = zip(*tiles) if tiles else ((),) * 4  # top, right, left, bottom
    ids = tuple(tuple(map(pos, c)) for pos, c in zip((pos_a, pos_b, pos_b, pos_a), columns))
    keys = [t * len(gb.edges) + l for t, l in zip(ids[0], ids[2])]
    corners = dict(zip(keys, map(itemgetter(0, 2), tiles)))  # key -> (top, left)
    order = dict(zip(sorted(corners), range(len(corners))))  # key -> index in Ω
    omega = tuple(map(corners.__getitem__, order))
    return TextileSystem(ga, gb, kappa, tiles, omega, ids, tuple(map(order.__getitem__, keys)))


def build_system(ga, gb, kappa):
    """Validate ``kappa`` (SpecificationError names the first violation), then assemble."""
    report = validate_specification(kappa, ga, gb)
    if not report.ok:
        raise SpecificationError(f"{report.failure}: {report.detail}")
    return _assemble(ga, gb, kappa)


def check_commutation(sys):
    """True iff the horizontal and vertical transition matrices commute exactly."""
    return sys.a_kappa @ sys.b_kappa == sys.b_kappa @ sys.a_kappa


def canonical_system(matrix_a, matrix_b):
    """Build the system for two essential commuting matrices under the canonical specification."""
    ga, gb = essential_graphs(matrix_a, matrix_b)
    return _assemble(ga, gb, canonical_specification(ga, gb))


def exchange_system(n, m):
    """Build the exchange system for the single-vertex graphs [n] and [m], through the gate."""
    ga, gb = essential_graphs([[n]], [[m]])
    return _assemble(ga, gb, exchange_specification(ga, gb))
