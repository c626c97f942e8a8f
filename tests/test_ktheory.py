import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktiles import ktheory
from cktiles.closedform import closed_form_kgroups
from cktiles.corpus import circulant_matrix, standard_corpus
from cktiles.errors import InputError, OracleScaleError
from cktiles.ktheory import (
    AbelianGroup,
    block_matrix_k0,
    canonicalize,
    cokernel,
    invariant_factors_oracle,
    kernel_rank,
    kgroups_of_system,
    smith_normal_form,
)
from cktiles.matrices import IntMatrix, rank_minor
from cktiles.textile import exchange_system
from conftest import random_system


def _random_matrix(rng, max_dim=6, bound=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def _assert_valid_snf(m, result):
    assert result.left @ m @ result.right == result.diag
    assert abs(result.left.det()) == 1
    assert abs(result.right.det()) == 1
    diag = result.diagonal
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero  # zeros only at the end
    for small, large in zip(nonzero, nonzero[1:]):
        assert large % small == 0


def test_snf_identity():
    for n in (1, 2, 5):
        result = smith_normal_form(IntMatrix.identity(n))
        assert result.diagonal == [1] * n
        _assert_valid_snf(IntMatrix.identity(n), result)


def test_snf_diag_2_3():
    m = IntMatrix([[2, 0], [0, 3]])
    result = smith_normal_form(m)
    assert result.diagonal == [1, 6]
    _assert_valid_snf(m, result)


def test_snf_exchange_2_3_core():
    sys_ = exchange_system(2, 3)
    core = sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(6)
    result = smith_normal_form(core)
    assert result.diagonal == [1, 1, 1, 1, 1, 8]
    assert invariant_factors_oracle(core) == [1, 1, 1, 1, 1, 8]
    _assert_valid_snf(core, result)


def test_snf_rectangular_and_degenerate():
    m = IntMatrix([[2, 4, 6]])
    result = smith_normal_form(m)
    assert result.diagonal == [2]
    _assert_valid_snf(m, result)
    z = IntMatrix.zeros(2, 3)
    result = smith_normal_form(z)
    assert result.diagonal == [0, 0]
    _assert_valid_snf(z, result)


def test_oracle_examples():
    assert invariant_factors_oracle(IntMatrix([[4]])) == [4]
    assert invariant_factors_oracle(IntMatrix([[2, 1], [1, 2]])) == [1, 3]
    e3 = IntMatrix.all_ones(3) - IntMatrix.identity(3)
    assert invariant_factors_oracle(e3) == [1, 1, 2]


def test_oracle_scale_guard():
    big = IntMatrix.identity(9)
    with pytest.raises(OracleScaleError):
        invariant_factors_oracle(big)


def test_snf_matches_oracle_on_random_corpus():
    rng = random.Random(90125)
    for _ in range(250):
        m = _random_matrix(rng)
        result = smith_normal_form(m)
        _assert_valid_snf(m, result)
        nonzero = [d for d in result.diagonal if d]
        assert nonzero == invariant_factors_oracle(m), m


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.integers(min_value=1, max_value=5).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_snf_oracle_property(rows):
    m = IntMatrix(rows)
    result = smith_normal_form(m)
    _assert_valid_snf(m, result)
    assert [d for d in result.diagonal if d] == invariant_factors_oracle(m)


def test_invariant_factors_transpose_invariant():
    rng = random.Random(110)
    for _ in range(120):
        m = _random_matrix(rng)
        assert smith_normal_form(m).diagonal == smith_normal_form(m.transpose()).diagonal


def test_cokernel_examples():
    assert cokernel(IntMatrix.identity(4)).is_trivial()
    zero = cokernel(IntMatrix([[0]]))
    assert zero.free_rank == 1 and zero.torsion == ()
    e5 = IntMatrix.all_ones(5) - IntMatrix.identity(5)
    assert cokernel(e5) == AbelianGroup(free_rank=0, torsion=(4,))


def test_cokernel_requires_square():
    with pytest.raises(InputError):
        cokernel(IntMatrix([[1, 2]]))


def test_cokernel_order_matches_determinant():
    rng = random.Random(555)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        group = cokernel(m)
        d = m.det()
        if d == 0:
            assert group.free_rank > 0
        else:
            assert group.free_rank == 0
            assert group.order() == abs(d)


def test_kernel_rank_examples():
    assert kernel_rank(IntMatrix.identity(3)) == 0
    assert kernel_rank(IntMatrix.zeros(4, 4)) == 4
    for n, m in [(2, 2), (2, 3), (3, 4)]:
        sys_ = exchange_system(n, m)
        core = sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(n * m)
        assert kernel_rank(core) == 0


def test_kernel_rank_is_n_minus_oracle_rank():
    # K1 is read off the cokernel's free rank; the determinantal-divisor
    # oracle gives the rank independently of elimination
    rng = random.Random(58)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        rows = []
        for _ in range(n):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            rows.append([sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(n)])
        m = IntMatrix(rows)
        singular += m.det() == 0
        assert kernel_rank(m) == n - len(invariant_factors_oracle(m)), rows
    assert singular > 20
    with pytest.raises(InputError):
        kernel_rank(IntMatrix.zeros(2, 3))


def test_kgroups_exchange_2_3():
    kg = kgroups_of_system(exchange_system(2, 3))
    assert kg.k0 == AbelianGroup(free_rank=0, torsion=(8,))
    assert kg.k1.is_trivial()


def test_kgroups_exchange_2_m_single_cyclic():
    for m in range(2, 8):
        kg = kgroups_of_system(exchange_system(2, m))
        assert kg.k0 == AbelianGroup(free_rank=0, torsion=(m * m - 1,))
        assert kg.k1.is_trivial()


def test_kgroups_exchange_3_3():
    kg = kgroups_of_system(exchange_system(3, 3))
    assert kg.k0 == AbelianGroup(free_rank=0, torsion=(2, 2, 2, 10))
    assert kg.k1.is_trivial()


def _canonicalize_by_primes(orders):
    """The invariant-factor form prime by prime: the independent reference.

    Each order is factored by trial division; the largest invariant factor
    collects the largest power of every prime, and so on down.
    """
    free_rank = 0
    exponents = {}
    for order in orders:
        if order == 0:
            free_rank += 1
        p = 2
        while 1 < order and p * p <= order:
            e = 0
            while order % p == 0:
                order //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1 if p == 2 else 2
        if order > 1:
            exponents.setdefault(order, []).append(1)
    for exps in exponents.values():
        exps.sort(reverse=True)
    depth = max((len(exps) for exps in exponents.values()), default=0)
    factors = [
        prod(p ** exps[i] for p, exps in exponents.items() if i < len(exps))
        for i in range(depth)
    ]
    return AbelianGroup(free_rank=free_rank, torsion=tuple(reversed(factors)))


def test_canonicalize_and_group_equality():
    assert canonicalize([2, 3]) == canonicalize([6])
    assert canonicalize([4]) != canonicalize([2, 2])
    assert AbelianGroup(free_rank=1) != canonicalize([5])
    assert canonicalize([2, 10]).torsion == (2, 10)
    assert canonicalize([2, 3]).torsion == (6,)
    assert canonicalize([4, 6]).torsion == (2, 12)
    assert canonicalize([1, 1, 8]).torsion == (8,)
    assert canonicalize([0, 0, 12]) == AbelianGroup(free_rank=2, torsion=(12,))
    # 1s and repeats, as a cokernel's diagonal modulo D gives them
    assert canonicalize([]) == AbelianGroup.trivial()
    assert canonicalize([1, 6, 4, 1]).torsion == (2, 12)
    assert canonicalize([8, 2, 4]).torsion == (2, 4, 8)
    assert canonicalize(iter([12, 18, 0])) == AbelianGroup(free_rank=1, torsion=(6, 36))
    for bad in ([-2], [True, False, 4], [1, True], [2.0], ["6"], [[2]], 5, None):
        with pytest.raises(InputError):
            canonicalize(bad)
    for rank in (1.5, "a", True, -1, None):
        with pytest.raises(InputError):
            AbelianGroup(free_rank=rank)
    for torsion in ((2, True), (2.0,), 5):
        with pytest.raises(InputError):
            AbelianGroup(free_rank=0, torsion=torsion)
    # primes of 64 and 89 bits: trial division would never reach p
    p, q = 2**64 - 59, 2**89 - 1
    assert canonicalize([p * q, p]) == AbelianGroup(free_rank=0, torsion=(p, p * q))
    assert canonicalize([p * p, p * q, q]) == AbelianGroup(free_rank=0, torsion=(p * q, p * p * q))


# lists of orders drawn with repeats from a small pool, 0s and 1s included
_ORDER_LISTS = st.lists(st.integers(0, 400), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool + [0, 1]), max_size=12)
)


@settings(max_examples=300, deadline=None)
@given(_ORDER_LISTS)
def test_canonicalize_matches_the_prime_by_prime_reference(orders):
    assert canonicalize(orders) == _canonicalize_by_primes(orders)


def test_abelian_group_validation_and_text():
    with pytest.raises(InputError):
        AbelianGroup(free_rank=0, torsion=(3, 4))  # 3 does not divide 4
    with pytest.raises(InputError):
        AbelianGroup(free_rank=0, torsion=(1,))
    assert str(AbelianGroup(free_rank=0, torsion=(8,))) == "Z/8Z"
    assert str(AbelianGroup(free_rank=2, torsion=(3,))) == "Z^2 + Z/3Z"
    assert str(AbelianGroup(free_rank=1)) == "Z"
    assert str(AbelianGroup.trivial()) == "0"
    assert AbelianGroup(free_rank=0, torsion=(2, 4)).order() == 8
    assert AbelianGroup(free_rank=1).order() is None


def test_theorem_cross_check_on_corpus(corpus, random_family):
    labelled = [(e.label, e.system) for e in corpus] + [(repr(s), s) for s in random_family]
    for label, sys_ in labelled:
        n = len(sys_.omega)
        core = sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(n)
        k0 = cokernel(core)
        k0_from_block = cokernel(
            IntMatrix.identity(2 * n) - sys_.h_kappa.transpose()
        )
        assert k0 == k0_from_block, label
        # kgroups_of_system no longer compares the two routes itself
        assert kgroups_of_system(sys_).k0 == k0 == block_matrix_k0(sys_), label


def _edge_factors(sys_):
    """R (n x m) and L (m x n) with A_k + B_k = RL, from their definitions.

    The m edges are the B-edges, then the A-edges.  R has a 1 at corner pair
    (alpha, a) and edge e when a tile at (alpha, a) has right or bottom edge
    e; L has a 1 at edge e and corner pair (gamma, c) when c = e or gamma = e.
    """
    edges = sys_.graph_b.edges + sys_.graph_a.edges
    ends = {}
    for t in sys_.tiles:
        ends.setdefault((t.top, t.left), set()).update((t.right, t.bottom))
    r = IntMatrix([[int(e in ends[corner]) for e in edges] for corner in sys_.omega])
    l = IntMatrix([[int(e in corner) for corner in sys_.omega] for e in edges])
    return r, l


def _presented(monkeypatch, k0_of, sys_):
    """The one matrix whose cokernel ``k0_of(sys_)`` takes, densified from
    the sparse rows it hands the cokernel."""
    seen = []

    def captured(rows, size):
        # nonzero entries only, keys ascending, as step (a) expects
        assert all(list(row) == sorted(row) and all(row.values()) for row in rows)
        seen.append(IntMatrix([[row.get(j, 0) for j in range(size)] for row in rows]))
        return AbelianGroup(free_rank=0)

    monkeypatch.setattr(ktheory, "_cokernel_of_rows", captured)
    k0_of(sys_)
    (matrix,) = seen
    return matrix


def test_both_k0_presentations_are_the_stated_matrices(monkeypatch, random_family):
    # the edge presentation is LR - I_m, the cross-check I_n - (A_k + B_k)^T,
    # entry by entry, on every family the groups are compared on
    systems = [exchange_system(n, m) for n in range(2, 9) for m in range(n, 9)]
    systems += [e.system for e in standard_corpus(seed=1302, circulant_pairs=40)]
    systems += random_family
    systems += [
        random_system([[12]], [[15]], seed=1),
        random_system(
            circulant_matrix(8, (0, 1, 3, 4, 6)), circulant_matrix(8, (0, 1, 2, 5, 7)), seed=1
        ),
    ]
    assert [len(s.omega) for s in systems[-2:]] == [117, 141]
    for sys_ in systems:
        r, l = _edge_factors(sys_)
        assert r @ l == sys_.a_kappa + sys_.b_kappa, sys_
        edge_matrix = _presented(monkeypatch, kgroups_of_system, sys_)
        assert edge_matrix == l @ r - IntMatrix.identity(l.rows), sys_
        block = _presented(monkeypatch, block_matrix_k0, sys_)
        n = len(sys_.omega)
        assert block == IntMatrix.identity(n) - (sys_.a_kappa + sys_.b_kappa).transpose(), sys_


def test_block_matrix_k0_matches_kgroups_on_exchange_pairs():
    for n in range(2, 9):
        for m in range(n, 9):
            sys_ = exchange_system(n, m)
            assert block_matrix_k0(sys_) == kgroups_of_system(sys_).k0, (n, m)


def test_negation_gives_same_cokernel():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert cokernel(m) == cokernel(-m)


def test_torsion_orders_multiply_to_diag_product():
    rng = random.Random(31)
    for _ in range(80):
        m = _random_matrix(rng, max_dim=5, bound=6)
        diag = smith_normal_form(m).diagonal
        nonzero = [d for d in diag if d]
        assert prod(nonzero) == prod(invariant_factors_oracle(m))


# --- the three-step cokernel against independent routes ------------------------


def _exact_cokernel(m):
    """The cokernel from the exact Smith elimination alone."""
    diagonal, _, _ = ktheory._diagonalize(m.to_lists(), m.rows, m.cols)
    return AbelianGroup(
        free_rank=m.rows - sum(1 for d in diagonal if d),
        torsion=tuple(d for d in diagonal if d > 1),
    )


def _k0_matrices(systems):
    """Both K0 presentations of each system: A_k + B_k - I and I - H_k^T."""
    for sys_ in systems:
        n = len(sys_.omega)
        yield sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(n)
        yield IntMatrix.identity(2 * n) - sys_.h_kappa.transpose()


def test_cokernel_matches_exact_diagonalisation_on_k0_matrices():
    systems = [exchange_system(n, m) for n in range(2, 9) for m in range(n, 9)]
    systems += [e.system for e in standard_corpus(seed=1302, circulant_pairs=40)]
    matrices = list(_k0_matrices(systems))
    assert len(matrices) == 186
    for m in matrices:
        assert cokernel(m) == _exact_cokernel(m), m.shape


def _sympy_cokernel(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    factors = [abs(int(f)) for f in invariant_factors(sympy.Matrix(m.data), domain=sympy.ZZ)]
    zeros = factors.count(0) + m.rows - len(factors)
    return AbelianGroup(free_rank=zeros, torsion=tuple(sorted(f for f in factors if f > 1)))


def test_cokernel_matches_sympy_past_the_oracle_limit(corpus):
    # the determinantal-divisor oracle stops at 8 x 8; sympy's Smith form
    # reaches n = 42 (exchange(6, 7)) in hundredths of a second
    matrices = [
        next(_k0_matrices([exchange_system(n, m)])) for n in range(3, 7) for m in range(n, 8)
    ]
    matrices += [next(_k0_matrices([e.system])) for e in corpus if len(e.system.omega) > 8]
    assert max(m.rows for m in matrices) == 42
    for m in matrices:
        assert cokernel(m) == _sympy_cokernel(m), m.shape


# A planted cokernel: diag(scale * d) moved by sparse elementary operations.
# A scale above 1 leaves no unit entry at all; a zero d plants a free summand,
# and when few operations touch its line, a zero row or column.
_MOVES = st.lists(
    st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 9), st.integers(-3, 3)),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([0, 1, 1, 1, 2, 3, 4, 6, 9, 12, 25]), min_size=1, max_size=10),
    _MOVES,
    st.sampled_from([1, 1, 2, 3]),
)
def test_cokernel_recovers_planted_torsion(diagonal, moves, scale):
    k = len(diagonal)
    a = [[scale * d if i == j else 0 for j in range(k)] for i, d in enumerate(diagonal)]
    for on_rows, i, j, c in moves:
        i, j = i % k, j % k
        if on_rows and c == 0:
            a[i], a[j] = a[j], a[i]
        elif on_rows and i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif c == 0:
            for row in a:
                row[i], row[j] = row[j], row[i]
        elif i != j:
            for row in a:
                row[i] += c * row[j]
    m = IntMatrix(a)
    expected = _canonicalize_by_primes([scale * d for d in diagonal])
    assert cokernel(m) == expected
    assert _exact_cokernel(m) == expected


def _core(m):
    """Step (a)'s core of the square IntMatrix ``m``."""
    return ktheory._unit_eliminated_core(
        [{j: x for j, x in enumerate(row) if x} for row in m.data], m.rows
    )


def test_cokernel_core_keeps_zero_columns():
    # a core built from the nonzero columns only is 1 x 0 here, not square
    assert _core(IntMatrix([[0]])) == [[0]]
    assert cokernel(IntMatrix([[0]])) == AbelianGroup(free_rank=1)
    assert _core(IntMatrix([[0, 1], [0, 0]])) == [[0]]
    assert cokernel(IntMatrix([[0, 1], [0, 0]])) == AbelianGroup(free_rank=1)


class _LoggedRow(dict):
    """A sparse row that logs every entry it gains, changes or loses."""

    def __init__(self, log, entries):
        super().__init__(entries)
        self.log = log

    def __setitem__(self, j, x):
        self.log.append(("set", j))
        super().__setitem__(j, x)

    def __delitem__(self, j):
        self.log.append(("del", j))
        super().__delitem__(j)


def test_unit_elimination_clears_a_refilled_entry_once():
    # pivot (0, 0) cancels row 3's entry in column 2 and pivot (1, 1) fills
    # it in again, so row 3 is listed twice under column 2; pivot (2, 2)
    # clears it on the first listing and skips the stale second one
    log = []
    rows = [
        {0: 1, 2: 1},
        {1: 1, 2: 1},
        {2: 1, 4: 3},
        _LoggedRow(log, {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}),
        {3: 5, 4: 7},
    ]
    dense = IntMatrix([[row.get(j, 0) for j in range(5)] for row in rows])
    core = ktheory._unit_eliminated_core(rows, 5)
    assert core == [[2, 8], [5, 7]]
    assert log == [("del", 0), ("del", 2), ("del", 1), ("set", 2), ("del", 2), ("set", 4)]
    assert cokernel(dense) == canonicalize(invariant_factors_oracle(dense)) == canonicalize([26])


def test_unit_elimination_takes_the_shortest_unit_row_past_earlier_ones():
    # row 2 is the shortest row holding a unit, so it is the pivot and row 1
    # keeps its 3; taking the earlier row 1 instead leaves -3 in row 2
    assert _core(IntMatrix([[0, 0, 0], [0, 3, 1], [0, 0, 1]])) == [[0, 0], [0, 3]]


_DENSE_SQUARES = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=100, deadline=None)
@given(_DENSE_SQUARES)
def test_unit_elimination_on_dense_matrices(rows):
    # planted torsion is sparse; here most entries are nonzero and units
    # keep reappearing as pivots are cleared
    m = IntMatrix(rows)
    core = _core(m)
    assert all(len(row) == len(core) for row in core)
    assert not any(x in (1, -1) for row in core for x in row)
    oracle = invariant_factors_oracle(m)
    assert cokernel(m) == canonicalize(oracle + [0] * (m.rows - len(oracle)))


@pytest.mark.parametrize("n, m, bound", [(11, 12, 23), (20, 20, 55)])
def test_unit_elimination_core_size(n, m, bound):
    # the core is what the rank-minor and modular passes pay for; the bounds
    # are the core sizes the two-sided Markowitz search left
    sys_ = exchange_system(n, m)
    k0_matrix = sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(len(sys_.omega))
    assert len(_core(k0_matrix)) <= bound


def test_modular_diagonal_keeps_a_pivot_that_divides():
    # the core of exchange(8, 8) has a pivot 7 beside entries 7; an extended
    # gcd that returns (0, 1) for (7, 7) swaps the lines without shrinking
    # the pivot, and clearing the row and column never ends
    assert ktheory._clearing_transform(7, 7) == (1, 0, 1, 1)
    assert ktheory._diagonal_mod([[7, 7], [7, 14]], 49) == [7, 7]
    sys_ = exchange_system(8, 8)
    expected = closed_form_kgroups(8, 8).canonical
    assert kgroups_of_system(sys_).k0 == expected == block_matrix_k0(sys_)


def test_modular_diagonal_zeroes_a_divisible_row_entry_only_while_its_column_is_clear():
    # no entry is a unit, so this is its own core, with D = 1792; at the
    # fourth pivot a Bezout step on a column (pivot 4, entry 582) refills the
    # pivot's column and leaves the pivot 2, which divides the next entry,
    # 590; zeroing that entry without the column transform gives
    # 2, 2, 2, 2, 2, 56
    rows = [
        [-24, -20, 4, 4, 4, 4],
        [-20, -16, 2, 2, 2, 2],
        [4, 2, 0, -2, -2, -2],
        [4, 2, -2, 0, -2, -2],
        [4, 2, -2, -2, 0, -2],
        [4, 2, -2, -2, -2, 0],
    ]
    m = IntMatrix(rows)
    assert _core(m) == rows
    assert rank_minor(rows)[1] == 1792
    assert canonicalize(invariant_factors_oracle(m)) == canonicalize([2, 2, 2, 2, 4, 28])
    assert cokernel(m) == canonicalize([2, 2, 2, 2, 4, 28])


@pytest.mark.parametrize(
    "n, m",
    [(9, 12), (11, 12), (12, 17), (20, 30), (30, 40)]
    + [pytest.param(None, None, id="corpus-1302-40")],
)
def test_nonsingular_cores_never_reach_the_exact_path(monkeypatch, n, m):
    # entry growth in the exact elimination depends on pivot order, not on
    # size: on whole matrices it was about 100 times slower at exchange(9, 12),
    # n = 108, than at exchange(11, 12), n = 132, so no core is left to it,
    # singular or not; 60 of the corpus's 130 K0 matrices have a singular core.
    # Past exchange(8, 8), where the presentations are compared entry by
    # entry, the closed form is the oracle for both, up to 1,200 corner pairs
    if n is None:
        systems = [e.system for e in standard_corpus(seed=1302, circulant_pairs=40)]
    else:
        systems = [exchange_system(n, m)]
    calls = []
    exact = ktheory._diagonalize

    def counted(*args):
        calls.append(args[1:])
        return exact(*args)

    monkeypatch.setattr(ktheory, "_diagonalize", counted)
    for sys_ in systems:
        groups = kgroups_of_system(sys_)
        assert block_matrix_k0(sys_) == groups.k0
        if n is not None:
            assert groups.k0 == closed_form_kgroups(n, m).canonical
    assert calls == []
