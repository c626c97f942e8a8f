"""Closed-form K-groups for exchange systems on single-vertex graphs.

For the exchange system built from N self-loops and M self-loops (1 < N <= M)
the K0 group has an exact closed form driven by the Euclidean algorithm on
m = M - 1 and n = N - 1:

    K0 = (Z/(N-1))^(M-2) + (Z/(M-1))^(N-2) + Z/d + Z/(c * g)

with d = gcd(m, n), g = (M-1)(M+N-1), and c the continuant of the Euclidean
quotients after the first (c = 1 in the divisible case r0 = 0, where the
tail is the diagonal pair (N-1, g) directly).  K1 is trivial.  Everything
here is cross-validated against the Smith-normal-form pipeline.
"""

from dataclasses import dataclass
from math import prod

from .errors import InputError
from .ktheory import AbelianGroup, KGroups, canonicalize, cokernel, kgroups_of_system
from .matrices import IntMatrix
from .textile import MAX_TILES, exchange_system

MAX_SUMMANDS = 2_000_002  # M + N - 2; (10**6, 10**6 + 1) is admitted and takes about 1 s


@dataclass(frozen=True)
class EuclidTrace:
    """Quotients and remainders of the Euclidean algorithm on (m, n), m >= n >= 1.

    ``quotients`` is k0, k1, ..., with m = n*k0 + r0 and each later step
    dividing the previous remainder; ``remainders`` lists the nonzero
    remainders r0, r1, ..., or just (0,) in the divisible case r0 = 0, where
    there is one quotient.
    """

    m: int
    n: int
    quotients: tuple
    remainders: tuple
    gcd: int
    divisible: bool


@dataclass(frozen=True)
class ClosedFormResult:
    """Closed-form K0 for an exchange system.

    ``summands`` keeps the raw cyclic orders, including any order-1 entries,
    so the formula stays visible; ``canonical`` is their invariant-factor
    form; ``g`` equals (M-1)(M+N-1).
    """

    N: int
    M: int
    summands: tuple
    canonical: AbelianGroup
    trace: EuclidTrace
    g: int

    @property
    def k1(self):
        return AbelianGroup.trivial()


@dataclass(frozen=True)
class ClosedFormComparison:
    """Side-by-side result of the closed form against the matrix pipeline."""

    N: int
    M: int
    computed: KGroups
    closed: ClosedFormResult
    k0_agree: bool
    k1_agree: bool

    @property
    def agree(self):
        return self.k0_agree and self.k1_agree


def euclid_trace(m, n):
    """Run the Euclidean algorithm on m >= n >= 1, keeping all quotients."""
    if not (type(m) is int and type(n) is int):
        raise InputError("m and n must be ints")
    if n < 1:
        raise InputError("n must be at least 1")
    if m < n:
        raise InputError(f"require m >= n, got m={m}, n={n}")
    quotients, remainders = [], []
    a, b = m, n
    while b:
        k, r = divmod(a, b)
        quotients.append(k)
        remainders.append(r)
        a, b = b, r
    return EuclidTrace(
        m=m,
        n=n,
        quotients=tuple(quotients),
        remainders=tuple(remainders[:-1]) or (0,),
        gcd=a,
        divisible=remainders[0] == 0,
    )


def continuant(ks):
    """The continuant of a quotient list: [] -> 1, [k] -> k, and the
    three-term recurrence c_t = c_{t-1} * k_t + c_{t-2} beyond that."""
    prev, cur = 0, 1  # continuants of the (-1)-length and empty lists
    for k in ks:
        if type(k) is not int or k < 1:
            raise InputError(f"continuant entries must be positive ints, got {k!r}")
        prev, cur = cur, cur * k + prev
    return cur


def torsion_tail_matrix(N, M):
    """The 2x2 matrix whose cokernel is the non-obvious torsion tail of K0.

    Equals [[N-1, 0], [M+N-2, (M-1)(M+N-1)]]; its determinant is
    (N-1) * (M-1)(M+N-1).
    """
    _require_pair(N, M)
    return IntMatrix([[N - 1, 0], [M + N - 2, (M - 1) * (M + N - 1)]])


def torsion_tail_orders(N, M):
    """The two cyclic orders of the torsion tail: (d, c * g), which is
    (N-1, g) in the divisible case, where d = N-1 and c = 1."""
    _require_pair(N, M)
    m = M - 1
    trace = euclid_trace(m, N - 1)
    g = m * (m + N)
    return (trace.gcd, continuant(trace.quotients[1:]) * g), trace, g


def _require_pair(N, M):
    if not (type(N) is int and type(M) is int):
        raise InputError("N and M must be ints")
    if N <= 1:
        raise InputError("require N > 1")
    if N > M:
        raise InputError(f"require N <= M (no silent swap), got N={N}, M={M}")


def exchange_k0_blockwise(N, M):
    """K0 of the exchange system as a direct sum of block cokernels.

    The defining matrix reduces blockwise to N-2 copies of E_M - I_M plus one
    copy of (M+N-2) E_M - (N-1) I_M; each block cokernel is computed by the
    Smith pipeline on the explicit M x M matrix and the results are summed.
    Blocks of more than MAX_TILES entries (M > 500) are refused before any is built.
    """
    _require_pair(N, M)
    if M * M > MAX_TILES:
        raise InputError(f"blocks too large: {M} x {M} entries, over the limit of {MAX_TILES}")
    e_m = IntMatrix.all_ones(M)
    i_m = IntMatrix.identity(M)
    orders = []
    first_block = cokernel(e_m - i_m)
    for _ in range(N - 2):
        orders.extend([0] * first_block.free_rank)
        orders.extend(first_block.torsion)
    last_block = cokernel((M + N - 2) * e_m - (N - 1) * i_m)
    orders.extend([0] * last_block.free_rank)
    orders.extend(last_block.torsion)
    return canonicalize(orders)


def closed_form_kgroups(N, M):
    """The closed-form K0 summands for the exchange system on [N], [M].

    M-2 copies of order N-1, N-2 copies of order M-1, then the torsion tail
    (d, c*g); K1 is trivial.  More than MAX_SUMMANDS summands (M + N - 2)
    are refused before any is listed.
    """
    _require_pair(N, M)
    if M + N - 2 > MAX_SUMMANDS:
        raise InputError(
            f"closed form too large: {M + N - 2} summands, over the limit of {MAX_SUMMANDS}"
        )
    tail, trace, g = torsion_tail_orders(N, M)
    summands = [N - 1] * (M - 2) + [M - 1] * (N - 2) + list(tail)
    return ClosedFormResult(
        N=N,
        M=M,
        summands=tuple(summands),
        canonical=canonicalize(summands),
        trace=trace,
        g=g,
    )


def verify_closed_form(N, M):
    """Compare the closed form against the full matrix pipeline for one (N, M).

    Builds the exchange system, computes its K-groups through Smith normal
    forms, evaluates the closed form, and reports whether the canonical
    groups agree.  Disagreement is a report outcome, not an exception.
    """
    _require_pair(N, M)
    computed = kgroups_of_system(exchange_system(N, M))
    closed = closed_form_kgroups(N, M)
    return ClosedFormComparison(
        N=N,
        M=M,
        computed=computed,
        closed=closed,
        k0_agree=computed.k0 == closed.canonical,
        k1_agree=computed.k1 == closed.k1,
    )


def closed_form_order(N, M):
    """Expected |K0| = product of the closed-form summand orders."""
    result = closed_form_kgroups(N, M)
    return prod(result.summands)
