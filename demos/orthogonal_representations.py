# Building modulus-one orthogonal representations from LP certificates,
# verifying them exactly, and watching the verifier catch sabotage.

import io

from scheme_spectra import (
    Composition,
    CompositionGraphSpec,
    CycInt,
    HammingGraphSpec,
    NotOrthogonal,
    build_representation,
    check_lp_solution,
    cyclic,
    finite_field,
    hadamard_representation,
    lp_two_support,
    representation_seed,
    verify_representation,
)

# Step 1: a feasibility certificate.  Nonnegative weights on the character
# shells, positive total, orthogonal to the distance-d Krawtchouk column.
solution = lp_two_support(4, 2, 2)
check_lp_solution(solution)
print("certificate for H(4,2,2):", solution.coefficients, "objective", solution.objective)

# Step 2: the certificate assembles into vectors with unit entries, one per
# vertex, where adjacent vertices get orthogonal vectors.  The number of
# columns is the certificate objective.
spec = HammingGraphSpec(4, 2, 2)
rep = build_representation(solution, cyclic(2))
print(f"representation: {rep.rows} vertices x {rep.cols} columns, "
      f"entries are roots of unity of order {rep.root_order}")

# Step 3: exact verification - every adjacent pair, no floating point.
assert verify_representation(rep, spec)
print("full verification passed")

# Sampled verification for quick smoke checks; the sample stream is seeded
# from the graph parameters, so reruns see the same pairs.
assert verify_representation(rep, spec, sample=64)
print("sampled verification passed (seed", str(representation_seed(spec)) + ")")

# Flip a single entry and the verifier names the offending pair.
broken = rep.with_entry(0, 0, CycInt.from_int(2, -1))
try:
    verify_representation(broken, spec)
except NotOrthogonal as err:
    print(f"sabotage caught: rows {err.row_x} and {err.row_y}, words {err.word_x} / {err.word_y}")

# The CSV export keeps entries as polynomials in the root of unity z.
buffer = io.StringIO()
rep.write_csv(buffer)
print("\nCSV head:")
for line in buffer.getvalue().splitlines()[:4]:
    print(" ", line)

# For balanced composition graphs there is a much smaller construction:
# n columns, straight from a single character, whenever q divides n.
f3 = finite_field(3)
had = hadamard_representation(f3, 9)
assert had.cols == 9
assert verify_representation(had, CompositionGraphSpec(f3, 9, Composition.balanced(3, 9)), sample=500)
print(f"\ncharacter representation on F_3^9: {had.rows} x {had.cols}, sampled check passed")

# The two-support certificate puts weight 1 on the cheapest shell i with
# K_i(d) <= 0 and weight -K_i(d) on shell 0.
wider = lp_two_support(6, 2, 4)
check_lp_solution(wider)
print("certificate for H(6,2,4):", wider.coefficients, "objective", wider.objective)
