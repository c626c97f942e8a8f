import random
from math import prod

import pytest

from cktiles.errors import InputError
from cktiles.ktheory import invariant_factors_oracle
from cktiles.matrices import IntMatrix, rank_minor


def test_construction_validates_shape_and_entries():
    with pytest.raises(InputError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix([[1.5]])
    with pytest.raises(InputError):
        IntMatrix([[True, False]])


def test_arithmetic_is_exact():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a + b).to_lists() == [[1, 3], [4, 4]]
    assert (a - b).to_lists() == [[1, 1], [2, 4]]
    assert (-a).to_lists() == [[-1, -2], [-3, -4]]
    assert (3 * a).to_lists() == [[3, 6], [9, 12]]
    assert (a @ b).to_lists() == [[2, 1], [4, 3]]
    big = 10**40
    c = IntMatrix([[big]])
    assert (c @ c).to_lists() == [[big * big]]


def test_transpose_identity_ones():
    a = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert IntMatrix.identity(3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert IntMatrix.all_ones(2).to_lists() == [[1, 1], [1, 1]]


def test_kron_matches_block_description():
    e2 = IntMatrix.all_ones(2)
    i2 = IntMatrix.identity(2)
    assert e2.kron(i2).to_lists() == [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    assert i2.kron(e2).to_lists() == [
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ]


def test_det():
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix([[2, 0], [0, 3]]).det() == 6
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    # 3x3 with a zero pivot forces a row swap
    assert IntMatrix([[0, 1, 2], [1, 0, 3], [4, 5, 6]]).det() == 16


def test_rank_minor_on_rank_deficient_matrices():
    # rows drawn from a random basis of at most n vectors, so many are singular
    rng = random.Random(2024)
    deficient = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
        rows = []
        for _ in range(n):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            rows.append([sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(n)])
        m = IntMatrix(rows)
        factors = invariant_factors_oracle(m)
        before = [row[:] for row in rows]
        rank, minor = rank_minor(rows)
        assert rows == before  # it eliminates on a copy
        assert rank == len(factors), rows
        assert minor != 0 and minor % prod(factors) == 0, rows
        if rank == n:
            assert m.det() == minor
        else:
            deficient += 1
            assert m.det() == 0
    assert deficient > 50
    assert rank_minor(IntMatrix.zeros(3, 3).data) == (0, 1)
    assert rank_minor([]) == (0, 1)
