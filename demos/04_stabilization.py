#!/usr/bin/env python3
# Walkthrough: the cohomological table stabilizes as n grows.
#
# Embedding operators on C^n into operators on C^N (adding a simple-spectrum
# complement) maps the cohomological tables onto each other, and each cell
# eventually stops changing.  The bound comes from the stabilization of flag
# manifold cohomology for each fixed shape.

from conres import (
    MultiIndex,
    cohomological_rank,
    e1_stable_bound,
    gauss_multinomial,
    stab_index,
    stable_table,
)

# Low-degree coefficients of [m; 2]_q as m grows: they increase and freeze.
A = MultiIndex((2,))
print("low coefficients of [m; 2]_q:")
for m in range(2, 8):
    poly = gauss_multinomial(m, A.parts)
    print(f"  m={m}: {[poly.coefficient(j) for j in range(4)]}")

# The freezing point is |A| + degree // 2; the witness is the frozen part,
# the series 1 / ((1 - q)(1 - q^2)) read up to q^(degree // 2).
for degree in (0, 2, 4, 6):
    report = stab_index(A, degree)
    print(f"stab((2), degree {degree}) = {report.stab_n}, witness {report.witness}")

# A cell bound is the worst case of these over all shapes of complexity -p,
# in degree p + q - 2 #A; in closed form it is max(-2p, (q - p) // 2).  The
# tables at the bound and two beyond it agree on the cell, the check that
# stab.three_point_ranks makes.
for p, q in ((-1, 3), (-1, 5), (-2, 6), (-3, 9)):
    bound = e1_stable_bound(p, q)
    ranks = [cohomological_rank(m, p, q) for m in (bound, bound + 1, bound + 2)]
    print(f"cell ({p}, {q}): stable from n = {bound}, ranks there {ranks}")

# The stable table itself, for a small window, read off one plethystic
# product over the cycle sizes (stab.stable_series) with no table built.  The line
# p + q = 2 carries exactly one rank per column: the degree-2 classes of each
# order.
print("\nstable table (p >= -2, q <= 8):")
for cell in stable_table(-2, 8):
    if cell.rank:
        print(
            f"  E(p={cell.p}, q={cell.q}) = {cell.rank}"
            f"   (stable from n = {cell.bound_n})"
        )
