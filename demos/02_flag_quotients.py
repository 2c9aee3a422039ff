#!/usr/bin/env python3
# Walkthrough: characters of block permutations on flag-manifold cohomology.
#
# Ordered collections of orthogonal subspaces of dimensions (2, 2) in C^4
# form a partial flag manifold; the unordered collections are its quotient
# by the swap of the two planes.  The graded character of the swap decides
# the homology of the quotient, with either coefficient system.

from conres import (
    MultiIndex,
    conjugacy_classes,
    gamma_poincare,
    gamma_trace,
    gamma_trace_naive,
    gauss_multinomial,
)

A = MultiIndex((2, 2))
n = 4

# The trivial class recovers the Poincare polynomial of the flag manifold
# itself, i.e. the Gaussian multinomial [4; 2, 2]_q.
trivial, swap = conjugacy_classes(A)
print("flag manifold of two orthogonal 2-planes in C^4:")
print(f"  trace of identity: {gamma_trace(A, n, trivial)}")
print(f"  [4; 2,2]_q       : {gauss_multinomial(n, A.parts)}")

# The swap has q-alternating trace; at q = 1 it vanishes, because a swap has
# no fixed ordered collection (a fixed-point-free action on the flags).
print(f"  trace of the swap: {gamma_trace(A, n, swap)}")
print(f"  swap trace at q=1: {gamma_trace(A, n, swap)(1)}")

# The same numbers out of the brute-force oracle, which averages coinvariant
# traces over all 4 elements of S_2 x S_2.
assert gamma_trace_naive(A, n, swap) == gamma_trace(A, n, swap)
print("  brute-force average agrees: OK")

# Isotypic projection: invariants give the quotient's homology, the sign
# part gives homology with the orientation-twisted system.
print("\nquotient of the flag manifold by the swap:")
print(f"  constant coefficients: {gamma_poincare(A, n, 'trivial')}")
print(f"  sign local system    : {gamma_poincare(A, n, 'sign')}")

# Together the two isotypic parts rebuild the whole flag cohomology (the
# swap group has only these two characters).
total = gamma_poincare(A, n, "trivial") + gamma_poincare(A, n, "sign")
assert total == gauss_multinomial(n, A.parts)
print("  trivial + sign == full flag cohomology: OK")

# A full character table for a bigger index: one trace per class.
B = MultiIndex((2, 2, 2))
print(f"\ncharacter table for {B} in C^6 (class: size, trace):")
for cls in conjugacy_classes(B):
    print(f"  {str(cls):12s} size {cls.class_size}:  {gamma_trace(B, 6, cls)}")
print(f"  quotient homology: {gamma_poincare(B, 6, 'trivial')}")
