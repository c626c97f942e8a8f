"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failing criterion shows up as a failing test.
"""

import random
import time

from cktiles.closedform import closed_form_kgroups, verify_closed_form
from cktiles.graph import is_essential, satisfies_condition_I
from cktiles.ktheory import (
    AbelianGroup,
    canonicalize,
    cokernel,
    invariant_factors_oracle,
    kgroups_of_system,
    smith_normal_form,
)
from cktiles.matrices import IntMatrix
from cktiles.textile import check_commutation, exchange_system
from cktiles.tiling import (
    check_diagonal_property,
    is_transitive_matrix,
    is_transitive_search,
)


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_exchange_2_3_kgroups():
    start = time.perf_counter()
    sys_ = exchange_system(2, 3)
    core = sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(6)
    snf = smith_normal_form(core)
    assert snf.diagonal == [1, 1, 1, 1, 1, 8]
    kg = kgroups_of_system(sys_)
    assert kg.k0 == AbelianGroup(free_rank=0, torsion=(8,))
    assert kg.k1.is_trivial()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"exchange (2,3) gives K0 = Z/8Z, K1 = 0 in {elapsed * 1000:.0f} ms")


def test_criterion_02_closed_form_sweep_to_10():
    start = time.perf_counter()
    for n in range(2, 11):
        for m in range(n, 11):
            comparison = verify_closed_form(n, m)
            assert comparison.agree, (n, m, comparison)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, f"closed form matches pipeline for all 2 <= N <= M <= 10 in {elapsed:.1f}s")


def test_criterion_03_exchange_2_m_is_m_squared_minus_one():
    for m in range(2, 21):
        kg = kgroups_of_system(exchange_system(2, m))
        assert kg.k0 == canonicalize([m * m - 1]), m
    _report(3, "exchange (2,M) gives K0 = Z/(M^2-1)Z for 2 <= M <= 20")


def test_criterion_04_block_matrix_cross_check(corpus):
    circulants = [e for e in corpus if e.label.startswith("circulant")]
    exchanges = [e for e in corpus if e.label.startswith("exchange")]
    assert len(circulants) >= 20
    assert {(e.matrix_a[0][0], e.matrix_b[0][0]) for e in exchanges} == {
        (n, m) for n in range(2, 7) for m in range(n, 7)
    }
    for entry in corpus:
        sys_ = entry.system
        n = len(sys_.omega)
        k0 = cokernel(sys_.a_kappa + sys_.b_kappa - IntMatrix.identity(n))
        k0_from_block = cokernel(IntMatrix.identity(2 * n) - sys_.h_kappa.transpose())
        assert k0 == k0_from_block, entry.label
    _report(4, f"corner and block-matrix K0 agree on all {len(corpus)} corpus systems")


def test_criterion_05_transition_matrices_commute(corpus):
    for entry in corpus:
        assert check_commutation(entry.system), entry.label
    _report(5, f"A_k B_k = B_k A_k entrywise on all {len(corpus)} corpus systems")


def test_criterion_06_block_matrix_essential_condition_I(corpus):
    for entry in corpus:
        h = entry.system.h_kappa
        assert is_essential(h), entry.label
        assert satisfies_condition_I(h), entry.label
    _report(6, "every built block matrix is essential and satisfies condition (I)")


def test_criterion_07_search_vs_matrix_transitivity(small_corpus):
    nontransitive = 0
    for entry in small_corpus:
        sys_ = entry.system
        expected = is_transitive_matrix(sys_)
        assert is_transitive_search(sys_, 2 * len(sys_.omega)) == expected, entry.label
        nontransitive += not expected
    assert nontransitive >= 1  # the identity pairs are not transitive
    _report(
        7,
        f"staircase search agrees with the matrix criterion on {len(small_corpus)} "
        f"systems with at most 12 corner pairs ({nontransitive} non-transitive)",
    )


def test_criterion_08_diagonal_property(corpus):
    for entry in corpus:
        assert check_diagonal_property(entry.system).ok, entry.label
    _report(8, "diagonal completion count is at most 1 on all corpus systems")


def test_criterion_09_snf_oracle_equivalence():
    rng = random.Random(90125)
    checked = 0
    for _ in range(220):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(m)  # verifies U*M*V = S internally
        assert snf.left @ m @ snf.right == snf.diag
        assert abs(snf.left.det()) == 1 and abs(snf.right.det()) == 1
        assert [d for d in snf.diagonal if d] == invariant_factors_oracle(m), m
        checked += 1
    assert checked >= 200
    _report(9, f"SNF equals the determinantal-divisor oracle on {checked} random matrices")


def test_criterion_10_block_lemmas_to_8():
    for m in range(2, 9):
        block = IntMatrix.all_ones(m) - IntMatrix.identity(m)
        assert cokernel(block) == canonicalize([m - 1]), m
    from cktiles.closedform import torsion_tail_matrix, torsion_tail_orders

    for n in range(2, 9):
        for m in range(n, 9):
            big_block = (m + n - 2) * IntMatrix.all_ones(m) - (n - 1) * IntMatrix.identity(m)
            tail = cokernel(torsion_tail_matrix(n, m))
            decomposition = canonicalize(
                [n - 1] * (m - 2) + [0] * tail.free_rank + list(tail.torsion)
            )
            assert cokernel(big_block) == decomposition, (n, m)
            (d_order, big_order), _, _ = torsion_tail_orders(n, m)
            assert tail == canonicalize([d_order, big_order]), (n, m)
    _report(10, "block cokernel lemmas hold exactly for all 2 <= N <= M <= 8")


def test_closed_form_summary_table():
    # not a numbered criterion: a compact sweep table for the logs
    lines = []
    for n in range(2, 7):
        for m in range(n, 7):
            result = closed_form_kgroups(n, m)
            lines.append(f"  ({n},{m}): K0 = {result.canonical}")
    print("closed-form K0 values:")
    print("\n".join(lines))
