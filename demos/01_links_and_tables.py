#!/usr/bin/env python3
# Walkthrough: homology of the repeated-eigenvalue locus, block by block.
#
# The locus of n x n Hermitian operators with a repeated eigenvalue has one
# block per multiplicity index A = (a_1 >= ... >= a_l), parts >= 2, |A| <= n.
# Each block fibers over the space of unordered orthogonal collections of
# shape A, and everything is exact integer arithmetic.

from conres import (
    GradedDims,
    block_poincare,
    h_poly,
    link_poincare,
    multiindices,
    spectral_table,
    total_discriminant_poincare,
)

n = 5

# The total answer is known independently: the complement (simple spectrum)
# has the cohomology of a product of projective spaces, and duality inside
# the n^2-dimensional operator space turns that into Borel-Moore homology.
total = total_discriminant_poincare(n)
print(f"total homology of the locus, n={n}:")
print(f"  {total}")

# The indices of each complexity, and their blocks.
print(f"\nblocks for n={n}:")
for A in multiindices(n, n - 1):
    poly = block_poincare(A, n)
    print(f"  p={A.complexity}  A={A}:  {poly}")

# Degree by degree the blocks add up to the total: the table degenerates.
summed = GradedDims.zero()
for A in multiindices(n, n - 1):
    summed = summed + block_poincare(A, n)
assert summed == total
print("\nblocks sum to the total, degree by degree: OK")

# The top block (the single index (n)) is the open cone on the link of the
# whole collection complex; dividing by t^2 gives the link's reduced
# homology.  It is computed recursively: subtract all lower blocks from the
# known total in each ambient dimension.
print("\nopen-cone series and links:")
for a in range(2, n + 1):
    print(f"  h_{a} = {h_poly(a)}")
for m in range(3, n + 1):
    print(f"  link, n={m}: {link_poincare(m)}")

# The assembled table, with its per-index breakdown.
table = spectral_table(n)
print(f"\nspectral table for n={n} (p, total degree i, rank):")
for p, i, rank in table.cells():
    split = ", ".join(f"{A}:{r}" for A, r in sorted(table.breakdown(p, i).items(), key=lambda x: x[0].parts, reverse=True))
    print(f"  ({p:d}, {i:2d})  rank {rank}   [{split}]")

# Every rank sits in degrees opposite in parity to n; that is what forces
# the immediate degeneration.
for _, poly in table.blocks:
    assert all(e % 2 != n % 2 for e in poly.support())
print("\nparity check: OK")
