import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktiles.errors import InputError, OracleScaleError
from cktiles.ktheory import (
    AbelianGroup,
    block_matrix_k0,
    canonicalize,
    cokernel,
    group_equal,
    invariant_factors_oracle,
    kernel_rank,
    kgroups_of_system,
    smith_normal_form,
)
from cktiles.matrices import IntMatrix
from cktiles.textile import exchange_system


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
        assert smith_normal_form(m).diagonal == smith_normal_form(m.T).diagonal


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


def test_group_equal_and_canonicalize():
    assert group_equal(canonicalize([2, 3]), canonicalize([6]))
    assert not group_equal(canonicalize([4]), canonicalize([2, 2]))
    assert not group_equal(AbelianGroup(free_rank=1), canonicalize([5]))
    assert canonicalize([2, 10]).torsion == (2, 10)
    assert canonicalize([2, 3]).torsion == (6,)
    assert canonicalize([4, 6]).torsion == (2, 12)
    assert canonicalize([1, 1, 8]).torsion == (8,)
    assert canonicalize([0, 0, 12]) == AbelianGroup(free_rank=2, torsion=(12,))
    with pytest.raises(InputError):
        canonicalize([-2])


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


def test_theorem_cross_check_on_corpus(corpus):
    for entry in corpus:
        sys_ = entry.system
        n = len(sys_.omega)
        core = sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(n)
        k0 = cokernel(core)
        k0_from_block = cokernel(
            IntMatrix.identity(2 * n) - sys_.h_kappa.transpose()
        )
        assert group_equal(k0, k0_from_block), entry.label
        # kgroups_of_system no longer compares the two routes itself
        assert kgroups_of_system(sys_).k0 == k0 == block_matrix_k0(sys_), entry.label


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
        assert group_equal(cokernel(m), cokernel(-m))


def test_torsion_orders_multiply_to_diag_product():
    rng = random.Random(31)
    for _ in range(80):
        m = _random_matrix(rng, max_dim=5, bound=6)
        diag = smith_normal_form(m).diagonal
        nonzero = [d for d in diag if d]
        assert prod(nonzero) == prod(invariant_factors_oracle(m))
