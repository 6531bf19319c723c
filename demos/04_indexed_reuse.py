"""Indexed operands: hoist what the loop never changes.

When a factor carries an index, the whole statement runs once per index
value. Subproducts that use no indexed factor are loop invariant; the
solver costs each call by the ranges of the indices it actually touches,
so invariant work is paid once and the emitted program hoists it out of
the loop. That holds for a discharge step too: inverting an unindexed
factor runs once, even when the product it feeds runs in the loop.
"""

from matchain import IndexDecl, emit_text, matrix, parse, solve, vector

i = IndexDecl("i", 8)
chain = parse(
    "X[i] = A[i] * B * C * d",
    [
        i,
        matrix("A", 50, 50, indices=(i,)),
        matrix("B", 50, 50),
        matrix("C", 50, 50),
        vector("d", 50),
        vector("X", 50, indices=(i,)),
    ],
)
plan = solve(chain)
print("chain: X[i] = A[i] * B * C * d   with i in 1..8")
print(emit_text(plan))
for call in plan.calls:
    where = "in loop" if call.loops else "hoisted"
    print(f"  {call.kernel_id:5s} x{call.multiplicity:<2d} ({where})")
print()

# The same chain without the index costs 15,000 flops; eight independent
# solves would cost eight times that. Sharing B*C*d brings the indexed
# total to a third of it.
free = parse(
    "x = A * B * C * d",
    [
        matrix("A", 50, 50),
        matrix("B", 50, 50),
        matrix("C", 50, 50),
        vector("d", 50),
        vector("x", 50),
    ],
)
free_cost = solve(free).total_cost
print(f"indexed total: {plan.total_cost:.0f} flops")
print(f"8 x index-free: {8 * free_cost:.0f} flops")
print()

# Two indices nest; each call is charged the product of the ranges it
# depends on, and the listing shows the loop nest explicitly.
j = IndexDecl("j", 5)
i3 = IndexDecl("i", 3)
chain = parse(
    "H[i,j] = a[i]^T * B * c[j]",
    [
        i3,
        j,
        vector("a", 10, indices=(i3,)),
        matrix("B", 10, 10),
        vector("c", 10, indices=(j,)),
        matrix("H", 1, 1, indices=(i3, j)),
    ],
)
plan = solve(chain)
print("chain: H[i,j] = a[i]^T * B * c[j]   with i in 1..3, j in 1..5")
print(emit_text(plan))

# An inversion the loop never changes: getri(B) reads only B, so it runs
# once before the loop, and only the products run per index value:
# 250,000 + 8 x 250,000 flops instead of 8 x 500,000.
chain = parse(
    "X[i] = A[i] * B^-1",
    [
        i,
        matrix("A", 50, 50, indices=(i,)),
        matrix("B", 50, 50),
        matrix("X", 50, 50, indices=(i,)),
    ],
)
plan = solve(chain)
print("chain: X[i] = A[i] * B^-1   with i in 1..8")
print(emit_text(plan))
