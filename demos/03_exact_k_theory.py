"""K-groups by exact Smith normal form, with an independent oracle.

K0 of the Cuntz-Krieger algebra of a tile system is the cokernel of
A_k + B_k - I, and K1 is its kernel.  Everything runs over Python ints, so
the answers are exact; the Smith form ships with its unimodular transforms,
and a determinantal-divisor oracle (gcds of k x k minors) recomputes the
invariant factors along a completely different route.
"""

from cktiles import (
    IntMatrix,
    block_matrix_k0,
    exchange_system,
    invariant_factors_oracle,
    kgroups_of_system,
    smith_normal_form,
)

system = exchange_system(2, 3)
n = len(system.omega)
core = system.a_kappa + system.b_kappa - IntMatrix.identity(n)
print("A_k + B_k - I for the exchange system on [2], [3]:")
for row in core.data:
    print("  ", row)

snf = smith_normal_form(core)
print("\nSmith diagonal:", snf.diagonal)
print("U =")
for row in snf.left.data:
    print("  ", row)
print("V =")
for row in snf.right.data:
    print("  ", row)
print("U*M*V == S:", snf.left @ core @ snf.right == snf.diag)
print("det U, det V:", snf.left.det(), snf.right.det())

print("\noracle invariant factors:", invariant_factors_oracle(core))

kg = kgroups_of_system(system)
print("\nK0 =", kg.k0)
print("K1 =", kg.k1)

# the same group from the doubled block presentation Z^2n / (I - H^T) Z^2n,
# reduced on its unit block to the n-square I - (A_k + B_k)^T, whose
# transpose's rows are differenced by unit lower-triangular row operations
k0_from_block = block_matrix_k0(system)
print("K0 from the block matrix:", k0_from_block)
print("agree:", kg.k0 == k0_from_block)

print("\na few more exchange systems:")
for pair in [(2, 4), (3, 3), (3, 4), (4, 4)]:
    groups = kgroups_of_system(exchange_system(*pair))
    print(f"  {pair}: K0 = {groups.k0}, K1 = {groups.k1}")
