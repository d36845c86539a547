# The polynomial engine underneath the spectra: classical Krawtchouk
# values, their composition-indexed refinement, and three fast routes
# that must always agree.

import cmath

from scheme_spectra import (
    Composition,
    CycInt,
    binom,
    comp,
    cyclic,
    enumerate_compositions,
    enumerate_shell,
    first_nonpositive,
    gen_kraw,
    gen_kraw_circulant,
    kraw,
    multinom,
    word_char_value,
    zero_shell_predicate,
)

# The classical table for binary words of length 4.  Row i is the
# eigenvalue of the distance-i graph across the weight shells.
print("K_i(j) for n=4, q=2:")
for i in range(5):
    print(" ", [kraw(4, 2, i, j) for j in range(5)])

# Row 1 is linear in j; its sign change at j = (q-1)n/q drives everything.
assert [kraw(4, 2, 1, j) for j in range(5)] == [4 - 2 * j for j in range(5)]
print("first nonpositive shell of K_3 (n=8): j =", first_nonpositive(8, 2, 3))

# Reciprocity: the table is symmetric after weighting by shell sizes.
n, q = 6, 3
for i in range(n + 1):
    for j in range(n + 1):
        lhs = (q - 1) ** j * binom(n, j) * kraw(n, q, i, j)
        rhs = (q - 1) ** i * binom(n, i) * kraw(n, q, j, i)
        assert lhs == rhs
print("weighted reciprocity holds on the full n=6, q=3 table")

# The composition-indexed refinement takes values in cyclotomic integers:
# a plain int when the value is rational, a CycInt otherwise.
# Three independent routes:
#   brute      - literal character sum over the shell
#   extraction - coefficient extraction from a product of linear forms
#   circulant  - determinant power trick, balanced rows only
group = cyclic(3)
i, j = Composition((1, 2, 1)), Composition((2, 1, 1))
brute = gen_kraw(group, 4, i, j, method="brute")
fast = gen_kraw(group, 4, i, j, method="extraction")
assert brute == fast
print(f"\nK_{tuple(i)}({tuple(j)}) over Z_3 = {brute} (both routes)")

balanced = Composition.balanced(3, 6)
for r in [Composition((6, 0, 0)), Composition((2, 2, 2)), Composition((4, 1, 1))]:
    via_det = gen_kraw_circulant(3, 6, r)
    via_dp = gen_kraw(group, 6, balanced, r)
    assert isinstance(via_dp, int) and via_det == via_dp
    print(f"balanced row at shell {tuple(r)}: {via_det}")

# Balanced rows vanish on every shell whose weighted letter sum is not
# divisible by q - a quick arithmetic predicate, checked against the DP.
zeros = [tuple(r) for r in enumerate_compositions(3, 6) if zero_shell_predicate(3, r)]
assert all(gen_kraw_circulant(3, 6, Composition(z)) == 0 for z in zeros)
print(f"{len(zeros)} of {sum(1 for _ in enumerate_compositions(3, 6))} shells vanish for free")

# Where eigenvalues leave the rationals, the arithmetic stays exact:
# this value is zeta^2 + zeta^3 for a fifth root of unity, i.e. minus
# the golden ratio.  The float printed beside it is for display only.
g5 = cyclic(5)
i5, j5 = Composition((0, 1, 0, 0, 1)), Composition((1, 0, 1, 0, 0))
value = gen_kraw(g5, 2, i5, j5)
assert value == CycInt(5, (0, 0, 1, 1))
numeric = sum(c * cmath.exp(2j * cmath.pi * k / value.order) for k, c in enumerate(value.coeffs))
print(f"\nirrational eigenvalue {value.to_term_string()} ~ {numeric.real:.6f}")

# And the brute route is what it claims: a sum of unit complex numbers
# indexed by a shell.
x = (0, 2)
assert comp(g5, x) == j5
total = CycInt.from_int(5, 0)
for y in enumerate_shell(g5, 2, i5):
    total = total + word_char_value(g5, x, y)
assert total == value
print("literal character sum over", multinom(2, i5), "words agrees")
