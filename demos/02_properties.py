"""Structure the inputs have, the plan should exploit.

Operands carry symbolic properties (triangular, diagonal, symmetric
positive definite, orthogonal, ...). The solver closes them under
implication, infers what each intermediate product satisfies, and uses
that knowledge to pick cheaper kernels.
"""

from matchain import (
    Property,
    build_tables,
    close,
    emit_text,
    infer_properties,
    matrix,
    parse,
    solve,
)

P = Property

# Implication closure: SPD is symmetric and nonsingular, a diagonal
# matrix is both triangular orientations at once, and so on.
spd = close({P.SPD}, 8, 8)
print("close({spd}, 8x8)      =", sorted(p.value for p in spd))
diag = close({P.DIAGONAL}, 8, 8)
print("close({diagonal}, 8x8) =", sorted(p.value for p in diag))
print()

# Product inference: lower times lower stays lower, and multiplying by
# the identity changes nothing at all.
lower = close({P.LOWER_TRIANGULAR}, 8, 8)
got = infer_properties(lower, (8, 8), lower, (8, 8))
print("lower * lower ->", sorted(p.value for p in got))
ident = close({P.IDENTITY}, 8, 8)
got = infer_properties(ident, (8, 8), lower, (8, 8))
print("identity * lower ->", sorted(p.value for p in got))
print()

# Two triangular factors: the plan uses trtrmm at n^3/3 flops instead of
# gemm's 2n^3, and the DP records that the product is itself triangular.
chain = parse(
    "C = L1 * L2",
    [
        matrix("L1", 100, 100, {P.LOWER_TRIANGULAR}),
        matrix("L2", 100, 100, {P.LOWER_TRIANGULAR}),
        matrix("C", 100, 100),
    ],
)
plan = solve(chain)
tables = build_tables(chain)
print("chain: C = L1 * L2, both lower triangular")
print(emit_text(plan))
product = tables.operand(0, 1)
print("product properties:", sorted(p.value for p in product.props))
print(f"(gemm would have cost {2 * 100 ** 3} flops)")
