"""Exact integer linear algebra for K-group computations.

The K-groups of the Cuntz-Krieger algebra of a built tile system are the
cokernel K0 and the (free) kernel K1 of A_k + B_k - I_n, n the number of
corner pairs.  Here A_k + B_k = RL: R (n x m) has a 1 at corner pair
(alpha, a) and each right and bottom edge of a tile there, L (m x n) at edge
e and each corner pair with left or top edge e, m = |E_B| + |E_A|.  Block
moves on [[I_n, R], [L, I_m]] reduce it to diag(I_n - RL, I_m) and to
diag(I_n, I_m - LR), so both groups are read off the m x m matrix LR - I_m:
the Bowen-Franks group is invariant under elementary strong shift
equivalence (Williams, Ann. Math. 1973; Bowen and Franks, Ann. Math. 1977).
Tile (alpha, b, a, beta) adds 1 to LR at rows {a, alpha} x columns {b, beta};
for exchange(N, M), LR - I_m is [[(N-1) I_M, J], [J, (M-1) I_N]], J all ones.
:func:`block_matrix_k0` checks K0 on the n corner pairs instead: the cokernel
of I_2n - H^T, H = [[A_k, A_k], [B_k, B_k]], is that of its Schur complement
I_n - (A_k + B_k)^T on a unit block and of its transpose, with columns
reversed and rows differenced by earlier rows with the same A_k part, then
the same B_k pair: unit lower-triangular, so unimodular.  It reads only the
tiles' successors, with no R, no L, no RL <-> LR exchange and no claimed
group: a fault in the edge path does not carry over.
:func:`cokernel` finds the invariant factors in two steps, on sparse rows
that :func:`kgroups_of_system` and :func:`block_matrix_k0` read off the tiles:

(a) the +-1 pivots are eliminated, each taken from the shortest row that
    holds one and cleared from the rows a column index lists; each gives
    the factor 1, and what is left is a
    square core, 19 x 19 for the 21 x 21 matrix of exchange(9, 12);
(b) :func:`rank_minor`, one fraction-free elimination on the core's rows,
    gives its rank r and a nonzero r x r minor D, and the core is
    diagonalised over Z/DZ, so no entry ever exceeds D, whether the core is
    singular (K1 nonzero) or not.  No :class:`IntMatrix` is built.

:func:`canonicalize` is the one way a list of cyclic orders, the cokernel's
or the closed form's, becomes an :class:`AbelianGroup`; it factors nothing.

:func:`smith_normal_form` runs the exact elimination on the whole matrix,
over Z with step (b)'s 2 x 2 :func:`_clearing_transform`, and returns
unimodular transforms verified by multiplication; an independent oracle
built from determinantal divisors (d_k = gcd of all k x k minors;
successive quotients are the invariant factors) checks small inputs.
"""

from collections import Counter, namedtuple
from itertools import combinations
from math import gcd, prod

from .errors import InputError, InternalCheckError, OracleScaleError
from .matrices import IntMatrix, rank_minor


class SnfResult(namedtuple("SnfResult", "left diag right")):
    """Unimodular U, V and diagonal S with U * M * V = S exactly."""

    __slots__ = ()

    @property
    def diagonal(self):
        """The diagonal entries d1 | d2 | ... followed by zeros."""
        return [self.diag[i, i] for i in range(min(self.diag.rows, self.diag.cols))]


class AbelianGroup(namedtuple("AbelianGroup", "free_rank torsion")):
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` is the ascending divisibility chain d1 | d2 | ... with every
    factor at least 2; the group is Z^free_rank + sum of Z/dZ.
    """

    __slots__ = ()

    def __new__(cls, free_rank, torsion=()):
        if type(free_rank) is not int or free_rank < 0:
            raise InputError(f"free rank must be a nonnegative int, got {free_rank!r}")
        try:
            factors = tuple(torsion)
        except TypeError:
            raise InputError(f"torsion must be a list of ints, got {torsion!r}") from None
        for d in factors:
            if type(d) is not int or d < 2:
                raise InputError(f"invariant factors must be ints >= 2, got {d!r}")
        for small, large in zip(factors, factors[1:]):
            if large % small:
                raise InputError(f"invariant factors must divide in turn: {small} | {large}")
        return super().__new__(cls, free_rank, factors)

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so ``_replace`` runs its checks too."""
        return cls(*fields)

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


class KGroups(namedtuple("KGroups", "k0 k1")):
    """K0 and K1 of a Cuntz-Krieger algebra; K1 is torsion-free."""

    __slots__ = ()

    def __new__(cls, k0, k1):
        if k1.torsion:
            raise InternalCheckError("K1 of a Cuntz-Krieger algebra is torsion-free")
        return super().__new__(cls, k0, k1)

    @classmethod
    def _make(cls, fields):
        """Build through ``__new__``, so ``_replace`` runs its checks too."""
        return cls(*fields)


def _diagonalize(a, rows, cols):
    """Smith diagonalization of row lists ``a`` in place: (diagonal, U rows, V rows).

    Each pivot, the least nonzero |entry| left (to slow entry growth) made
    positive, clears its column by row transforms, on U too, and its row by
    column transforms, on V too, from :func:`_clearing_transform`.  A later
    row it does not divide is added to its row, so it shrinks to a gcd and
    d1 | d2 | ... holds.
    """
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    size = min(rows, cols)
    for t in range(size):
        entries = [(abs(x), i, j) for i in range(t, rows) for j, x in enumerate(a[i][t:], t) if x]
        if not entries:
            break
        _, pi, pj = min(entries)
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        for row in a + v:
            row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    x, y, p, q = _clearing_transform(a[t][t], a[i][t])
                    for m in (a, u):
                        top, low = m[t], m[i]
                        m[t] = [x * e + y * f for e, f in zip(top, low)]
                        m[i] = [q * f - p * e for e, f in zip(top, low)]
            for j in range(t + 1, cols):
                if a[t][j]:
                    x, y, p, q = _clearing_transform(a[t][t], a[t][j])
                    for row in a + v:
                        row[t], row[j] = x * row[t] + y * row[j], q * row[j] - p * row[t]
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            fold = next((i for i in range(t + 1, rows) if any(x % a[t][t] for x in a[i][t:])), None)
            if fold is None:
                break
            for m in (a, u):
                m[t] = [e + f for e, f in zip(m[t], m[fold])]
    return [a[i][i] for i in range(size)], u, v


def smith_normal_form(m):
    """Smith normal form with transforms, verified before returning.

    The result satisfies U * M * V = S exactly (checked by multiplication),
    U and V are unimodular (checked via exact determinants), and the diagonal
    is a nonnegative divisibility chain followed by zeros.
    """
    work = m.to_lists()
    diagonal, u_rows, v_rows = _diagonalize(work, m.rows, m.cols)
    u, v = IntMatrix(u_rows), IntMatrix(v_rows)
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
                rank, minor = rank_minor([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor if rank == k else 0)
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break  # rank reached: all larger minors vanish too
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def _unit_eliminated_core(rows, size):
    """Step (a): eliminate the +-1 pivots of ``size`` sparse rows, shortest row first.

    ``rows``, column -> nonzero entry dicts with keys ascending, is consumed.
    Each step takes the shortest row holding a unit (the earliest on ties;
    the scan stops at a one-entry row holding one) and pivots on its first
    unit; row operations clear the pivot's column, deleted once from each
    row, from the rows a lazily kept column index lists under it, and the
    pivot row then splits off with invariant factor 1, since column
    operations would clear it without touching any other row.  Returns the
    dense core: the rows no pivot removed, in their original order, over
    the columns no pivot removed, zero columns included, so the core is
    square.
    """
    live = dict(enumerate(rows))
    holders = [[] for _ in range(size)]
    for i, row in live.items():
        for j in row:
            holders[j].append(i)
    pivot_cols = set()
    while True:
        p, shortest = None, size + 1
        for i, row in live.items():
            if len(row) < shortest and (1 in row.values() or -1 in row.values()):
                p, shortest = i, len(row)
                if shortest == 1:
                    break
        if p is None:
            break
        pivot_row = live.pop(p)
        c, sign = next((j, x) for j, x in pivot_row.items() if x in (1, -1))
        pivot_cols.add(c)
        rest = [(j, x) for j, x in pivot_row.items() if j != c]
        for i in holders[c]:
            row = live.get(i)
            if row is None or c not in row:
                continue
            f = row[c] * sign  # a unit is its own inverse
            del row[c]
            for j, x in rest:
                if j in row:
                    y = row[j] - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                else:
                    holders[j].append(i)
                    row[j] = -f * x
    cols = [j for j in range(size) if j not in pivot_cols]
    return [[row.get(j, 0) for j in cols] for row in live.values()]


def _clearing_transform(p, q):
    """(x, y, u, v) of determinant 1 with x*p + y*q | p and v*q - u*p = 0.

    (1, 0, q/p, 1) when the pivot p > 0 divides q, which leaves p in place;
    otherwise x*p + y*q = g = gcd(p, q) < p, and (u, v) = (q/g, p/g).
    """
    if q % p == 0:
        return 1, 0, q // p, 1
    g = gcd(p, q)
    x = pow(p // g, -1, q // g)
    return x, (g - x * p) // q, q // g, p // g


def _diagonal_mod(a, d):
    """Step (b): a diagonal of the square core ``a`` over Z/dZ.

    Each pivot clears its column with row transforms and its row with
    column transforms (:func:`_clearing_transform`), until both are clear.
    A row transform by a pivot that divides changes the lower row only, and
    only where the top row is nonzero.  While the pivot's column holds
    nothing else, a row entry the pivot divides is zeroed directly, since
    subtracting a multiple of that column touches no other row; after a
    column transform that shrank the pivot, the column has filled in and
    every later entry takes the full transform.  The pivot only ever
    shrinks to a proper divisor, so this ends; entries stay in [0, d).
    """
    k = len(a)
    a = [[x % d for x in row] for row in a]
    diagonal = []
    for t in range(k):
        best = pi = pj = 0
        for i in range(t, k):
            for j, x in enumerate(a[i][t:], t):
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
        if not best:
            return diagonal + [0] * (k - t)
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        top = a[t]
        while True:
            support = [j for j in range(t + 1, k) if top[j]]
            for low in a[t + 1:]:
                q = low[t]
                if not q:
                    continue
                if q % top[t] == 0:
                    u = q // top[t]
                    low[t] = 0
                    for j in support:
                        low[j] = (low[j] - u * top[j]) % d
                else:
                    x, y, u, v = _clearing_transform(top[t], q)
                    top[t:], low[t:] = (
                        [(x * e + y * f) % d for e, f in zip(top[t:], low[t:])],
                        [(v * f - u * e) % d for e, f in zip(top[t:], low[t:])],
                    )
                    support = [j for j in range(t + 1, k) if top[j]]
            clear = True  # column t holds the pivot alone
            for j in support:
                if clear and top[j] % top[t] == 0:
                    top[j] = 0  # subtracting a multiple of column t changes no other row
                    continue
                clear = False
                x, y, u, v = _clearing_transform(top[t], top[j])
                for row in a[t:]:
                    row[t], row[j] = (x * row[t] + y * row[j]) % d, (v * row[j] - u * row[t]) % d
            if clear or not any(low[t] for low in a[t + 1:]):
                break
        diagonal.append(top[t])
    return diagonal


def cokernel(m):
    """The quotient Z^n / M Z^n as an abelian group in canonical form.

    Two steps, with no transforms kept.  (a) The +-1 pivots are eliminated
    sparsely, each giving the invariant factor 1; what is left is a square
    k x k core of rank r.  (b) Every nonzero invariant factor of the core
    divides its r-th determinantal divisor, and so the nonzero r x r minor
    D that :func:`rank_minor` finds on the core's rows.
    The core is diagonalised over Z/DZ and each diagonal entry s gives
    Z/gcd(s, D)Z: the nonzero factors come back whole and each of the
    k - r zero factors comes back as D.  :func:`canonicalize` turns these
    orders into the chain d1 | d2 | ..., whose top k - r entries are those
    copies of D; they are dropped for k - r copies of Z (when D = 1 the
    chain is empty and there is nothing to drop).
    """
    if not m.is_square():
        raise InputError("cokernel requires a square matrix")
    return _cokernel_of_rows([{j: x for j, x in enumerate(row) if x} for row in m.data], m.rows)


def _cokernel_of_rows(rows, size):
    """:func:`cokernel` of ``size`` sparse rows, as step (a) takes them."""
    core = _unit_eliminated_core(rows, size)
    rank, minor = rank_minor(core)
    d = abs(minor)
    chain = canonicalize([gcd(s, d) for s in _diagonal_mod(core, d)]).torsion
    free_rank = len(core) - rank
    return AbelianGroup(free_rank=free_rank, torsion=chain[: len(chain) - free_rank])


def kernel_rank(m):
    """Rank of the integer kernel, which for a square matrix equals the free
    rank of its cokernel: both are n minus the rank over the rationals."""
    if not m.is_square():
        raise InputError("kernel_rank requires a square matrix")
    return cokernel(m).free_rank


def canonicalize(summands):
    """Turn a list of cyclic orders (0 meaning Z) into invariant-factor form.

    Sorted orders above 1 that divide in turn are the invariant factors.
    Otherwise equal orders are counted once, and the distinct orders above 1
    are refined into a pairwise-coprime base without factoring: a newcomer x
    sharing g = gcd(x, b) > 1 with a member b takes b out and queues x/g, g and
    b/g, until no two members share a factor (each split divides the product of
    base and queue by g, so this ends).  A prime divides at most one member, so
    members stand in for primes: the largest factor collects the largest power
    of each, and so on down.  Order-independent; summands of order 1 vanish.
    """
    try:
        orders = list(summands)
    except TypeError:
        raise InputError(f"cyclic orders must be a list of ints, got {summands!r}") from None
    for order in orders:
        if type(order) is not int or order < 0:
            raise InputError(f"cyclic orders must be nonnegative ints, got {order!r}")
    chain = sorted(order for order in orders if order > 1)
    if all(large % small == 0 for small, large in zip(chain, chain[1:])):
        return AbelianGroup(free_rank=orders.count(0), torsion=chain)
    counts = Counter(orders)
    free_rank = counts.pop(0, 0)
    base, queue = [], [order for order in counts if order > 1]
    while queue:
        x = queue.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                queue += [y for y in (x // g, g, b // g) if y > 1]
                break
        else:
            base.append(x)
    exponents = {}
    for order, count in counts.items():
        for b in base:
            e = 0
            while order % b == 0:
                order //= b
                e += 1
            if e:
                exponents.setdefault(b, []).extend([e] * count)
    for exps in exponents.values():
        exps.sort(reverse=True)
    depth = max((len(exps) for exps in exponents.values()), default=0)
    factors = []
    for i in range(depth):  # i = 0 builds the largest factor
        f = 1
        for b, exps in exponents.items():
            if i < len(exps):
                f *= b ** exps[i]
        factors.append(f)
    factors.reverse()
    return AbelianGroup(free_rank=free_rank, torsion=tuple(factors))


def kgroups_of_system(sys):
    """K0 and K1 of the Cuntz-Krieger algebra of a built tile system.

    K0 is the cokernel and K1 the kernel of LR - I_m (see the module
    docstring).  One Smith diagonalisation gives both: the kernel of a square
    matrix has the rank of its cokernel's free part.  The block-matrix
    presentation of K0 is not recomputed here; see :func:`block_matrix_k0`.
    """
    nb = len(sys.graph_b.edges)  # B-edges first, then A-edges, each in graph order
    m = nb + len(sys.graph_a.edges)
    rows = [{} for _ in range(m)]
    for top, right, left, bottom in zip(*sys.edge_ids):
        bottom += nb
        for i in (left, nb + top):
            row = rows[i]
            row[right] = row.get(right, 0) + 1
            row[bottom] = row.get(bottom, 0) + 1
    for i, row in enumerate(rows):
        row[i] = row.get(i, 0) - 1
    k0 = _cokernel_of_rows([{j: row[j] for j in sorted(row) if row[j]} for row in rows], m)
    return KGroups(k0=k0, k1=AbelianGroup(free_rank=k0.free_rank))


def block_matrix_k0(sys):
    """K0 through the doubled block matrix H, as the cokernel of T (I_n - (A_k + B_k)) J.

    Equal to ``kgroups_of_system(sys).k0``, by an independent presentation on
    the corner pairs.  The standard one is I_2n - H^T = [[I - A_k^T, -B_k^T],
    [-A_k^T, I - B_k^T]]; subtracting its top rows from its bottom ones leaves
    [-I, I] there, and clearing with that unit block leaves I_n - (A_k + B_k)^T
    beside an identity, so the cokernel is the same group, as is that of its
    transpose (the same Smith form).  Row i is e_i minus the right and below
    lists of the tiles at corner pair i, from ``successors``: two tiles at one
    corner pair differ in their right and in their bottom edge, so A_k and B_k
    come out 0/1, and a corner pair both beside and below one tile gets -2.

    T differences the rows in corner-pair order, so step (a) starts sparse:
    row i, keyed by its A_k part (the sorted right lists), less the last
    earlier row p with that key is e_i - e_p - B_k(i) + B_k(p); if B_k(i) !=
    B_k(p), the last earlier such difference i' - p' with the same pair of
    B_k parts is subtracted too, leaving e_i - e_p - e_i' + e_p'.  Each row
    subtracted comes earlier, so T is unit lower-triangular and unimodular
    whatever the keys: a key can cost speed, never the group.  J reverses the
    columns, so the unit step (a) pivots on, a row's first, is e_i, which
    only later rows hold.  The CLI's check, kgroups and corpus reports and
    the tests compare this with the edge path.
    """
    n = len(sys.omega)
    right, below = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, beside, under in sys.successors:
        right[i] += beside
        below[i] += under
    rows, last, last_pair = [], {}, {}
    for i in range(n):
        key, b = tuple(sorted(right[i])), tuple(sorted(below[i]))
        p, bp = last.get(key, (None, None))
        last[key] = i, b
        if p is None:
            plus, minus = (i,), key + b
        elif b == bp:
            plus, minus = (i,), (p,)
        else:
            q = last_pair.get((b, bp))
            last_pair[b, bp] = i, p
            plus, minus = ((i,) + bp, (p,) + b) if q is None else ((i, q[1]), (p, q[0]))
        row = {}
        for j in plus:
            row[j] = row.get(j, 0) + 1
        for j in minus:
            row[j] = row.get(j, 0) - 1
        rows.append({n - 1 - j: row[j] for j in sorted(row, reverse=True) if row[j]})
    return _cokernel_of_rows(rows, n)
