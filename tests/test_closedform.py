import time
from math import gcd

import pytest

from cktiles import closedform
from cktiles.closedform import (
    closed_form_kgroups,
    closed_form_order,
    continuant,
    euclid_trace,
    exchange_k0_blockwise,
    torsion_tail_matrix,
    torsion_tail_orders,
    verify_closed_form,
)
from cktiles.errors import InputError
from cktiles.ktheory import canonicalize, cokernel, kgroups_of_system
from cktiles.matrices import IntMatrix
from cktiles.textile import exchange_system


def test_euclid_trace_5_2():
    trace = euclid_trace(5, 2)
    assert trace.quotients == (2, 2)
    assert trace.remainders == (1,)
    assert trace.gcd == 1
    assert not trace.divisible


def test_euclid_trace_divisible_cases():
    trace = euclid_trace(4, 2)
    assert trace.divisible
    assert trace.quotients == (2,)
    assert trace.gcd == 2
    trace = euclid_trace(2, 2)
    assert trace.divisible
    assert trace.quotients == (1,)
    assert trace.gcd == 2


def test_euclid_trace_reconstructs_divisions():
    for m in range(1, 40):
        for n in range(1, m + 1):
            trace = euclid_trace(m, n)
            assert trace.gcd == gcd(m, n)
            if trace.divisible:
                assert m == n * trace.quotients[0]
                continue
            dividends = [m, n] + list(trace.remainders)
            for t, k in enumerate(trace.quotients):
                remainder = 0 if t + 2 >= len(dividends) else dividends[t + 2]
                assert dividends[t] == dividends[t + 1] * k + remainder
                if remainder:
                    assert 0 < remainder < dividends[t + 1]


def test_euclid_trace_preconditions():
    with pytest.raises(InputError):
        euclid_trace(3, 0)
    with pytest.raises(InputError):
        euclid_trace(2, 5)
    with pytest.raises(InputError):
        euclid_trace(True, True)


def test_continuant_base_cases():
    assert continuant([]) == 1
    assert continuant([3]) == 3
    assert continuant([2, 3]) == 7
    with pytest.raises(InputError):
        continuant([True, 2])


def test_continuant_recurrence():
    ks = [1, 2, 3, 4, 5, 6]
    for t in range(2, len(ks) + 1):
        assert continuant(ks[:t]) == continuant(ks[: t - 1]) * ks[t - 1] + continuant(
            ks[: t - 2]
        )
    assert all(continuant(ks[:t]) >= 1 for t in range(len(ks) + 1))
    with pytest.raises(InputError):
        continuant([0])


def test_tail_matrix_values():
    assert torsion_tail_matrix(2, 3).to_lists() == [[1, 0], [3, 8]]
    assert torsion_tail_matrix(3, 3).to_lists() == [[2, 0], [4, 10]]


def test_tail_matrix_cokernel_matches_closed_orders():
    for n in range(2, 9):
        for m in range(n, 9):
            (d_order, big_order), trace, g = torsion_tail_orders(n, m)
            direct = cokernel(torsion_tail_matrix(n, m))
            assert direct == canonicalize([d_order, big_order]), (n, m)
            # |det| = (N-1) * (M-1)(M+N-1) equals the product of the orders
            assert d_order * big_order == (n - 1) * (m - 1) * (m + n - 1)
            if not trace.divisible:
                assert continuant(trace.quotients[1:]) * trace.gcd == n - 1


def test_all_ones_minus_identity_cokernel():
    for m in range(2, 9):
        block = IntMatrix.all_ones(m) - IntMatrix.identity(m)
        group = cokernel(block)
        assert group == canonicalize([m - 1]), m


def test_blockwise_decomposition_3_4():
    # the big block splits as M-2 copies of Z/(N-1) plus the 2x2 tail
    n, m = 3, 4
    big_block = (m + n - 2) * IntMatrix.all_ones(m) - (n - 1) * IntMatrix.identity(m)
    lhs = cokernel(big_block)
    tail = cokernel(torsion_tail_matrix(n, m))
    rhs = canonicalize([n - 1] * (m - 2) + [0] * tail.free_rank + list(tail.torsion))
    assert lhs == rhs


def test_blockwise_decomposition_all_pairs():
    for n in range(2, 9):
        for m in range(n, 9):
            big_block = (m + n - 2) * IntMatrix.all_ones(m) - (n - 1) * IntMatrix.identity(m)
            tail = cokernel(torsion_tail_matrix(n, m))
            rhs = canonicalize(
                [n - 1] * (m - 2) + [0] * tail.free_rank + list(tail.torsion)
            )
            assert cokernel(big_block) == rhs, (n, m)


def test_quadratic_identity_for_big_block():
    # (M+N-2) E - (N-1) I  ==  E^2 + (N-2) E - (N-1) I, since E^2 = M E
    for n in range(2, 9):
        for m in range(2, 9):
            e = IntMatrix.all_ones(m)
            i = IntMatrix.identity(m)
            assert (m + n - 2) * e - (n - 1) * i == (e @ e) + (n - 2) * e - (n - 1) * i


def test_blockwise_equals_pipeline():
    for n in range(2, 9):
        for m in range(n, 9):
            blockwise = exchange_k0_blockwise(n, m)
            pipeline = kgroups_of_system(exchange_system(n, m)).k0
            assert blockwise == pipeline, (n, m)


def test_closed_form_2_3():
    result = closed_form_kgroups(2, 3)
    assert result.canonical.torsion == (8,)
    assert result.k1.is_trivial()
    assert result.g == 8


def test_closed_form_2_m_is_m_squared_minus_one():
    for m in range(2, 21):
        result = closed_form_kgroups(2, m)
        assert result.canonical == canonicalize([m * m - 1]), m
        assert result.trace.divisible  # n = 1 always divides


def test_closed_form_3_6_summands():
    result = closed_form_kgroups(3, 6)
    assert result.summands == (2, 2, 2, 2, 5, 1, 80)
    assert result.trace.quotients == (2, 2)
    assert result.g == 40
    assert result.canonical.torsion == (2, 2, 2, 10, 80)


def test_closed_form_preconditions():
    with pytest.raises(InputError):
        closed_form_kgroups(1, 5)
    with pytest.raises(InputError):
        closed_form_kgroups(4, 3)  # no silent swap


def test_closed_form_order_matches_determinant():
    for n in range(2, 7):
        for m in range(n, 7):
            sys_ = exchange_system(n, m)
            core = sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(n * m)
            assert closed_form_order(n, m) == abs(core.det()), (n, m)


def test_verify_closed_form_2_3():
    comparison = verify_closed_form(2, 3)
    assert comparison.agree
    assert comparison.computed.k0.torsion == (8,)


@pytest.mark.parametrize(
    "n, m", [(9, m) for m in range(9, 15)] + [(11, 12), (12, 14), (20, 20)]
)
def test_verify_closed_form_past_the_entry_explosion(n, m):
    # the pairs around the entry explosion of the exact Smith elimination
    # on whole matrices, up to (20, 20) with n = 400 corner pairs
    assert verify_closed_form(n, m).agree


def test_verify_closed_form_2_20():
    comparison = verify_closed_form(2, 20)
    assert comparison.agree
    assert comparison.computed.k0.torsion == (399,)


@pytest.mark.parametrize("n", [10**30, 10**100])
def test_closed_form_refuses_huge_pairs_before_listing_summands(n):
    message = f"closed form too large: {2 * n - 1} summands, over the limit of "
    for function in (closed_form_kgroups, closed_form_order):
        start = time.perf_counter()
        with pytest.raises(InputError, match=message):
            function(n, n + 1)
        assert time.perf_counter() - start < 0.1
    (d, top), trace, g = torsion_tail_orders(n, n + 1)  # the tail still answers
    assert d == trace.gcd == 1 and g == n * (2 * n) and top % g == 0


def test_summand_limit_admits_up_to_it(monkeypatch):
    # (10**6, 10**6 + 1) stays in, and so does every pair the CLI's tile
    # limit admits: N M <= 250,000 with N >= 2 has M + N - 2 <= 125,000
    assert closedform.MAX_SUMMANDS >= (10**6 + 1) + 10**6 - 2
    assert closedform.MAX_SUMMANDS >= 125_000
    monkeypatch.setattr(closedform, "MAX_SUMMANDS", 5)
    assert len(closed_form_kgroups(2, 5).summands) == 5
    assert closed_form_order(3, 4) == closed_form_kgroups(3, 4).canonical.order()
    with pytest.raises(InputError, match="6 summands, over the limit of 5"):
        closed_form_kgroups(3, 5)
    with pytest.raises(InputError, match="require N > 1"):  # the pair is checked first
        closed_form_kgroups(1, 10**30)


def test_blockwise_refuses_huge_pairs_before_building_a_matrix():
    n = 10**30
    start = time.perf_counter()
    with pytest.raises(InputError, match=f"blocks too large: {n + 1} x {n + 1} entries"):
        exchange_k0_blockwise(n, n + 1)
    assert time.perf_counter() - start < 0.1


def test_blockwise_refuses_past_the_tile_limit_with_no_matrix_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense IntMatrix was built")

    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    with pytest.raises(InputError, match="501 x 501 entries, over the limit of 250000"):
        exchange_k0_blockwise(2, 501)  # 501 * 501 > MAX_TILES = 500 * 500
    with pytest.raises(InputError, match="require N > 1"):  # the pair is checked first
        exchange_k0_blockwise(1, 10**30)


def test_blockwise_admits_up_to_the_tile_limit(monkeypatch):
    assert closedform.MAX_TILES == 500 * 500
    monkeypatch.setattr(closedform, "MAX_TILES", 16)
    assert exchange_k0_blockwise(3, 4) == kgroups_of_system(exchange_system(3, 4)).k0
    with pytest.raises(InputError, match="5 x 5 entries, over the limit of 16"):
        exchange_k0_blockwise(3, 5)
