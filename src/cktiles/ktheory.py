"""Exact integer linear algebra for K-group computations.

The K-groups of the Cuntz-Krieger algebra attached to a built tile system are
    K0 = Z^n / (A_k + B_k - I_n) Z^n     (cokernel)
    K1 = Ker(A_k + B_k - I_n) in Z^n     (always free)
with n the number of corner pairs.  Both reduce to the Smith normal form of an
integer matrix, computed here over Python ints with unimodular transforms, and
cross-checked by an independent oracle built from determinantal divisors
(d_k = gcd of all k x k minors; successive quotients are the invariant
factors).
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod

from .errors import InputError, InternalCheckError, OracleScaleError
from .matrices import IntMatrix


@dataclass(frozen=True)
class SnfResult:
    """Unimodular U, V and diagonal S with U * M * V = S exactly."""

    left: IntMatrix
    diag: IntMatrix
    right: IntMatrix

    @property
    def diagonal(self):
        """The diagonal entries d1 | d2 | ... followed by zeros."""
        return [self.diag[i, i] for i in range(min(self.diag.rows, self.diag.cols))]


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` is the ascending divisibility chain d1 | d2 | ... with every
    factor at least 2; the group is Z^free_rank + sum of Z/dZ.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InputError("free rank must be nonnegative")
        factors = tuple(self.torsion)
        object.__setattr__(self, "torsion", factors)
        for d in factors:
            if not isinstance(d, int) or d < 2:
                raise InputError(f"invariant factors must be ints >= 2, got {d!r}")
        for small, large in zip(factors, factors[1:]):
            if large % small:
                raise InputError(f"invariant factors must divide in turn: {small} | {large}")

    @classmethod
    def trivial(cls):
        return cls(free_rank=0)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.torsion)

    def __str__(self):
        if self.is_trivial():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}Z" for d in self.torsion)
        return " + ".join(parts)


@dataclass(frozen=True)
class KGroups:
    """K0 and K1 of a Cuntz-Krieger algebra; K1 is torsion-free."""

    k0: AbelianGroup
    k1: AbelianGroup

    def __post_init__(self):
        if self.k1.torsion:
            raise InternalCheckError("K1 of a Cuntz-Krieger algebra is torsion-free")


def _diagonalize(a, rows, cols, track):
    """Smith diagonalization of row lists ``a`` in place.

    Pivots are chosen with smallest nonzero absolute value to slow entry
    growth.  Returns (diagonal entries, U rows, V rows); the transforms are
    None unless ``track``.
    """
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if track else None
    v = [[int(i == j) for j in range(cols)] for i in range(cols)] if track else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if track:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if track:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        row_d, row_s = a[dst], a[src]
        for k in range(cols):
            row_d[k] += q * row_s[k]
        if track:
            row_d, row_s = u[dst], u[src]
            for k in range(rows):
                row_d[k] += q * row_s[k]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        if track:
            for row in v:
                row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if track:
            u[i] = [-x for x in u[i]]

    size = min(rows, cols)
    for t in range(size):
        # smallest nonzero |entry| in the trailing submatrix becomes the pivot
        best = 0
        pi = pj = -1
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    ax = x if x > 0 else -x
                    if pi < 0 or ax < best:
                        best = ax
                        pi, pj = i, j
        if pi < 0:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        while True:
            # Euclidean clearing of column t; remainders stay in [0, pivot)
            for i in range(t + 1, rows):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(i, t)
            # clearing row t can re-dirty the column via column swaps
            for j in range(t + 1, cols):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(j, t)
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            if any(a[t][j] for j in range(t + 1, cols)):
                continue
            pivot = a[t][t]
            offender = None
            for i in range(t + 1, rows):
                row = a[i]
                if any(row[j] % pivot for j in range(t + 1, cols)):
                    offender = i
                    break
            if offender is None:
                break
            # fold the nondivisible row into row t; re-clearing shrinks the
            # pivot to a gcd, which is what makes the chain d1 | d2 | ... hold
            add_row(t, offender, 1)
    return [a[i][i] for i in range(size)], u, v


def smith_normal_form(m):
    """Smith normal form with transforms, verified before returning.

    The result satisfies U * M * V = S exactly (checked by multiplication),
    U and V are unimodular (checked via exact determinants), and the diagonal
    is a nonnegative divisibility chain followed by zeros.
    """
    work = m.to_lists()
    diagonal, u_rows, v_rows = _diagonalize(work, m.rows, m.cols, track=True)
    u = IntMatrix(u_rows) if m.rows else IntMatrix.identity(0)
    v = IntMatrix(v_rows) if m.cols else IntMatrix.identity(0)
    s = IntMatrix.zeros(m.rows, m.cols)
    for i, d in enumerate(diagonal):
        s.data[i][i] = d
    if u @ m @ v != s:
        raise InternalCheckError("Smith normal form verification failed: U*M*V != S")
    if abs(u.det()) != 1 or abs(v.det()) != 1:
        raise InternalCheckError("Smith normal form transforms are not unimodular")
    return SnfResult(left=u, diag=s, right=v)


def invariant_factors_oracle(m):
    """Invariant factors via determinantal divisors, independent of elimination.

    d_k is the gcd of all k x k minors; the k-th invariant factor equals
    d_k / d_{k-1}.  Minor enumeration is combinatorial, so inputs with more
    than 8 rows and columns on the short side are refused.
    """
    short_side = min(m.rows, m.cols)
    if short_side > 8:
        raise OracleScaleError(
            f"oracle limited to matrices with min(rows, cols) <= 8, got {short_side}"
        )
    rows = m.data
    row_range = range(m.rows)
    col_range = range(m.cols)
    divisors = [1]
    for k in range(1, short_side + 1):
        g = 0
        for rsel in combinations(row_range, k):
            for csel in combinations(col_range, k):
                sub = IntMatrix([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, sub.det())
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break  # rank reached: all larger minors vanish too
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def cokernel(m):
    """The quotient Z^n / M Z^n as an abelian group in canonical form.

    Only the diagonal of the Smith form is computed; no transforms are kept.
    """
    if not m.is_square():
        raise InputError("cokernel requires a square matrix")
    diagonal, _, _ = _diagonalize(m.to_lists(), m.rows, m.cols, track=False)
    rank = sum(1 for d in diagonal if d)
    return AbelianGroup(
        free_rank=m.rows - rank, torsion=tuple(d for d in diagonal if d > 1)
    )


def kernel_rank(m):
    """Rank of the integer kernel, which for a square matrix equals the free
    rank of its cokernel: both are n minus the rank over the rationals."""
    if not m.is_square():
        raise InputError("kernel_rank requires a square matrix")
    return cokernel(m).free_rank


def group_equal(g1, g2):
    """Isomorphism test for groups already in invariant-factor form."""
    return g1.free_rank == g2.free_rank and g1.torsion == g2.torsion


def _factorize(n):
    """Prime factorization by trial division; fine for the orders seen here."""
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def canonicalize(summands):
    """Turn a list of cyclic orders (0 meaning Z) into invariant-factor form.

    Works prime by prime: the largest invariant factor collects the largest
    power of every prime, and so on down.  Order-independent; summands of
    order 1 vanish.
    """
    free_rank = 0
    exponents = {}
    for order in summands:
        if not isinstance(order, int) or order < 0:
            raise InputError(f"cyclic orders must be nonnegative ints, got {order!r}")
        if order == 0:
            free_rank += 1
            continue
        for p, e in _factorize(order).items():
            exponents.setdefault(p, []).append(e)
    for exps in exponents.values():
        exps.sort(reverse=True)
    depth = max((len(exps) for exps in exponents.values()), default=0)
    factors = []
    for i in range(depth):  # i = 0 builds the largest factor
        f = 1
        for p, exps in exponents.items():
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    factors.reverse()
    return AbelianGroup(free_rank=free_rank, torsion=tuple(factors))


def kgroups_of_system(sys):
    """K0 and K1 of the Cuntz-Krieger algebra of a built tile system.

    K0 is the cokernel and K1 the kernel of A_k + B_k - I_n.  One Smith
    diagonalisation gives both: the kernel of a square matrix has the rank
    of its cokernel's free part.  The block-matrix presentation of K0 is
    not recomputed here; see :func:`block_matrix_k0`.
    """
    n = len(sys.omega)
    k0 = cokernel(sys.a_kappa + sys.b_kappa - IntMatrix.identity(n))
    return KGroups(k0=k0, k1=AbelianGroup(free_rank=k0.free_rank))


def block_matrix_k0(sys):
    """K0 through the doubled block matrix H: the cokernel of I_2n - H^T.

    Equal to ``kgroups_of_system(sys).k0``.  The CLI's check, kgroups and
    corpus reports and the tests compare the two; the library's K-group path
    does not pay for this 2n x 2n Smith form.
    """
    n = len(sys.omega)
    return cokernel(IntMatrix.identity(2 * n) - sys.h_kappa.transpose())
