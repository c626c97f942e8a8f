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

from dataclasses import dataclass, field

from .errors import CommutationError, InputError, SpecificationError
from .graph import graph_from_matrix
from .matrices import IntMatrix


@dataclass(frozen=True)
class Specification:
    """A bijection from A-then-B edge paths to B-then-A edge paths.

    ``domain`` is ordered (lexicographically by edge position); ``mapping``
    sends each (alpha, b) with r(alpha) = s(b) to some (a, beta) with
    r(a) = s(beta), s(alpha) = s(a) and r(b) = r(beta).
    """

    domain: tuple
    mapping: dict

    def __call__(self, alpha, b):
        return self.mapping[(alpha, b)]

    def items(self):
        """Pairs ((alpha, b), (a, beta)) in domain order."""
        return tuple((pair, self.mapping[pair]) for pair in self.domain)


@dataclass(frozen=True)
class Tile:
    """A unit square tile; the four edges satisfy kappa(top, right) = (left, bottom)."""

    top: object
    right: object
    left: object
    bottom: object

    def __repr__(self):
        return f"Tile(t={self.top!r}, r={self.right!r}, l={self.left!r}, b={self.bottom!r})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a specification; false-y iff some constraint failed."""

    ok: bool
    failure: str | None = None
    detail: str | None = None
    pair: tuple | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class TextileSystem:
    """A built tile system with its transition matrices.

    ``omega`` lists the (top, left) corners of tiles in lexicographic order of
    edge positions; ``a_kappa`` and ``b_kappa`` are the horizontal and
    vertical {0,1} transition matrices indexed by ``omega``; ``h_kappa`` is
    the doubled block matrix [[A_k, A_k], [B_k, B_k]] whose Cuntz-Krieger
    algebra the K-theory routines study.
    """

    graph_a: object
    graph_b: object
    kappa: Specification
    tiles: tuple
    omega: tuple
    a_kappa: IntMatrix
    b_kappa: IntMatrix
    h_kappa: IntMatrix
    _omega_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_omega_index", {pair: i for i, pair in enumerate(self.omega)}
        )

    def omega_index(self, pair):
        return self._omega_index[pair]

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


def sigma_ab(ga, gb):
    """All pairs (alpha, b) with alpha an A-edge, b a B-edge and r(alpha) = s(b).

    Ordered lexicographically by (position of alpha, position of b).
    """
    _require_same_vertices(ga, gb)
    return [
        (alpha, b) for alpha in ga.edges for b in gb.edges if alpha.range == b.source
    ]


def sigma_ba(ga, gb):
    """All pairs (a, beta) with a a B-edge, beta an A-edge and r(a) = s(beta)."""
    _require_same_vertices(ga, gb)
    return [(a, beta) for a in gb.edges for beta in ga.edges if a.range == beta.source]


def require_commuting(ga, gb):
    """Raise CommutationError (citing the first differing entry) unless AB = BA.

    Graphs on different vertex counts raise InputError first.
    """
    _require_same_vertices(ga, gb)
    a = IntMatrix(ga.to_matrix())
    b = IntMatrix(gb.to_matrix())
    ab = a @ b
    ba = b @ a
    for i in range(a.rows):
        for j in range(a.rows):
            if ab[i, j] != ba[i, j]:
                raise CommutationError(i + 1, j + 1, ab[i, j], ba[i, j])


def canonical_specification(ga, gb):
    """The deterministic specification obtained by sorted blockwise matching.

    For each ordered vertex pair (i, j), the lexicographically sorted list of
    two-step paths alpha.b from i to j is matched position by position with
    the sorted list of paths a.beta from i to j.  Both lists have length
    (AB)(i, j) = (BA)(i, j), so commutation is exactly what makes this work.
    """
    require_commuting(ga, gb)
    blocks_ab = {}
    for alpha, b in sigma_ab(ga, gb):
        blocks_ab.setdefault((alpha.source, b.range), []).append((alpha, b))
    blocks_ba = {}
    for a, beta in sigma_ba(ga, gb):
        blocks_ba.setdefault((a.source, beta.range), []).append((a, beta))
    mapping = {}
    for key, ab_list in blocks_ab.items():
        ba_list = blocks_ba.get(key, [])
        for pair, image in zip(ab_list, ba_list):
            mapping[pair] = image
    return Specification(domain=tuple(sigma_ab(ga, gb)), mapping=mapping)


def exchange_specification(n, m):
    """The exchange specification on single-vertex graphs [n] and [m].

    Every domain pair is simply swapped: kappa(alpha, a) = (a, alpha).
    """
    if n <= 1 or m <= 1:
        raise InputError("exchange specification requires n > 1 and m > 1")
    ga = graph_from_matrix([[n]], "A")
    gb = graph_from_matrix([[m]], "B")
    domain = tuple(sigma_ab(ga, gb))
    mapping = {(alpha, a): (a, alpha) for alpha, a in domain}
    return Specification(domain=domain, mapping=mapping)


def validate_specification(kappa, ga, gb):
    """Check bijectivity and the four endpoint constraints of a specification.

    Returns a ValidationReport naming the first violated constraint and the
    offending domain pair, rather than raising.
    """
    sab = sigma_ab(ga, gb)
    sba = sigma_ba(ga, gb)
    if set(kappa.domain) != set(sab) or len(kappa.domain) != len(sab):
        return ValidationReport(
            ok=False,
            failure="domain-mismatch",
            detail=f"domain has {len(set(kappa.domain))} pairs, expected all "
            f"{len(sab)} composable (alpha, b) pairs",
        )
    sba_set = set(sba)
    seen_images = {}
    for pair in kappa.domain:
        alpha, b = pair
        image = kappa.mapping.get(pair)
        if image is None:
            return ValidationReport(
                ok=False, failure="domain-mismatch",
                detail="pair missing from mapping", pair=pair,
            )
        a, beta = image
        if image not in sba_set:
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
    if len(seen_images) != len(sba):
        return ValidationReport(
            ok=False, failure="not-surjective",
            detail=f"image covers {len(seen_images)} of {len(sba)} (a, beta) pairs",
        )
    return ValidationReport(ok=True)


def build_system(ga, gb, kappa):
    """Assemble tiles, corner pairs and transition matrices from a specification.

    The horizontal matrix has entry 1 at ((alpha, a), (delta, b)) iff
    kappa(alpha, b) = (a, beta) for some beta; the vertical matrix has entry 1
    at ((alpha, a), (beta, d)) iff kappa(alpha, b) = (a, beta) for some b.
    Both formulas are implemented literally; membership of the column pair in
    the corner set already forces composability.
    """
    report = validate_specification(kappa, ga, gb)
    if not report.ok:
        raise SpecificationError(f"{report.failure}: {report.detail}")
    tiles = tuple(
        Tile(top=alpha, right=b, left=a, bottom=beta)
        for (alpha, b), (a, beta) in kappa.items()
    )
    corner_set = {(t.top, t.left) for t in tiles}
    omega = tuple(
        sorted(corner_set, key=lambda p: (ga.position(p[0]), gb.position(p[1])))
    )
    n = len(omega)
    left_of = {}  # (alpha, b) -> a
    glues = set()  # (alpha, a, beta) triples witnessed by some tile
    for (alpha, b), (a, beta) in kappa.mapping.items():
        left_of[(alpha, b)] = a
        glues.add((alpha, a, beta))
    a_rows = [[0] * n for _ in range(n)]
    b_rows = [[0] * n for _ in range(n)]
    for i, (alpha, a) in enumerate(omega):
        for j, (delta, b) in enumerate(omega):
            if left_of.get((alpha, b)) == a:
                a_rows[i][j] = 1
            if (alpha, a, delta) in glues:
                b_rows[i][j] = 1
    a_kappa = IntMatrix(a_rows)
    b_kappa = IntMatrix(b_rows)
    h_kappa = IntMatrix.block2(a_kappa, a_kappa, b_kappa, b_kappa)
    return TextileSystem(
        graph_a=ga,
        graph_b=gb,
        kappa=kappa,
        tiles=tiles,
        omega=omega,
        a_kappa=a_kappa,
        b_kappa=b_kappa,
        h_kappa=h_kappa,
    )


def check_commutation(sys):
    """True iff the horizontal and vertical transition matrices commute exactly."""
    return sys.a_kappa @ sys.b_kappa == sys.b_kappa @ sys.a_kappa


def canonical_system(matrix_a, matrix_b):
    """Build the system for two commuting matrices under the canonical specification."""
    ga = graph_from_matrix(matrix_a, "A")
    gb = graph_from_matrix(matrix_b, "B")
    return build_system(ga, gb, canonical_specification(ga, gb))


def exchange_system(n, m):
    """Build the exchange system for the single-vertex graphs [n] and [m]."""
    kappa = exchange_specification(n, m)
    ga = graph_from_matrix([[n]], "A")
    gb = graph_from_matrix([[m]], "B")
    return build_system(ga, gb, kappa)
