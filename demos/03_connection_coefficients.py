"""Changing basis between polynomial families, two ways.

The transfer formula reads the connection coefficients straight off a
series product; the oracle builds both sequences and solves a triangular
system.  They must agree to the last bit, and they do.  The two routes are
not independent: both build their tables with the same triangle builder, so
a fault that scales every table alike would cancel between them.  The CLI's
`connect` never runs the oracle; it checks the transfer table against the
family store's tables, which no series code builds, and exits 3 if they
disagree.
"""

from umbra import (
    Poly,
    connection_coeffs,
    connection_oracle,
    euler,
    hermite,
    sheffer_pair_of,
    sheffer_polys,
)

N = 6
src = sheffer_pair_of(euler(1), N)
tgt = sheffer_pair_of(hermite(), N)

direct = connection_coeffs(src, tgt, N)
solved = connection_oracle(src, tgt, N)
print("routes agree:", direct == solved)

print("\nEuler members in the Hermite basis (rows n, columns k):")
for n, row in enumerate(direct.rows):
    print(f"  n={n}:", [str(c) for c in row])

# Reassemble a member from the table to see the expansion in action.
hermite_members = sheffer_polys(tgt, N)
n = 4
combo = Poly.zero()
for k in range(n + 1):
    combo = combo + direct.entry(n, k) * hermite_members[k]
print(f"\nrebuilt E_{n}(x) =", combo)
print(f"direct  E_{n}(x) =", sheffer_polys(src, N)[n])

# Basis changes compose like triangular matrices: going Euler -> Hermite
# -> monomials is the same as going straight to monomials.
from umbra import TruncatedSeries, ShefferPair

mono = ShefferPair(TruncatedSeries.one(N), TruncatedSeries.t(N))
via = [
    sum(direct.entry(3, k) * connection_coeffs(tgt, mono, N).entry(k, m)
        for k in range(m, 4))
    for m in range(4)]
straight = connection_coeffs(src, mono, N).rows[3]
print("\ntransitivity row 3:", [str(c) for c in via], "==", [str(c) for c in straight])
