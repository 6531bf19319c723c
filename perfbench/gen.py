"""Seeded workload inputs: matchain problem-file text, nothing else.

Every function here is a pure function of its seed and uses only the
standard library. The benchmark does not import the repository's test
helpers, so editing the tests cannot silently change a workload, and
the program under test receives only the text generated here.

Sizes follow fixed schedules; the seed draws dimensions, tags,
properties and indices. A fixed schedule keeps a run's total work, and
so its medians and its plan-cost geomean, comparable across seeds.
"""

from __future__ import annotations

import random

#: Property menus that are consistent with the stored dimensions.
SQUARE_MENU = (
    "",
    "full",
    "lower_triangular",
    "upper_triangular",
    "lower_triangular,nonsingular",
    "upper_triangular,nonsingular",
    "diagonal",
    "symmetric",
    "spd",
    "orthogonal",
    "nonsingular",
    "identity",
)
RECT_MENU = ("", "full", "lower_triangular", "upper_triangular")

#: Factor counts of the dp_mixed chains, one chain each. Their random
#: contents spread the solve times, so the lengths are equal, and there
#: are enough chains that the median of one pass barely moves with the
#: seed.
MIXED_SIZES = (44,) * 36
MIXED_DIM_MAX = 40
#: dp_plain lengths come in three groups of 20, short, middle and long,
#: so the DP loop runs at three sizes. The median falls in the middle of
#: the middle group and the tail percentile in the middle of the long
#: one, so neither jumps between groups when a few solves run slow.
PLAIN_SIZES = (60, 80, 100) * 20
PLAIN_DIMS = (16, 32, 48, 64)

#: Statement counts of the cli_mix files, in the order they are run.
#: One large file carries most statements; the rest are small, so
#: interpreter start-up dominates the median latency.
CLI_SIZES = (1000, 1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20)
#: Positions in CLI_SIZES run with ``--metric memory`` (a quarter).
CLI_MEMORY_AT = frozenset({3, 7, 11})
#: Factor counts, taken in turn rather than drawn, so that the large
#: file's plan-cost geomean depends less on the seed.
CLI_FACTORS = (2, 3, 4, 5, 6, 7, 8)
CLI_DIM_MAX = 40
CLI_SQUARE_SHARE = 0.2
#: Index ranges multiply the cost of every statement that uses them, so
#: they are fixed: drawn per file, the large file's draw alone would set
#: a run's plan-cost geomean.
CLI_INDEX_RANGES = (("i", 8), ("j", 5))
#: Every REPRO_EVERY-th cli statement has the shape X[i] = A[i] * B^-1,
#: whose inverse is costed under the loop although it does not vary
#: with it. Keeping it in the mix makes that mis-costing visible.
REPRO_EVERY = 8

_SWAPPING = ("^T", "^-T")


def _operand_line(name, rows, cols, props, indices):
    """One ``matrix``/``vector`` declaration line."""
    tail = []
    if props == "vector":
        head, props = f"vector {name} {rows}", ""
    else:
        head = f"matrix {name} {rows} {cols}"
    if props:
        tail.append(props)
    if indices:
        tail.append("indices=" + ",".join(indices))
    return " ".join([head] + tail)


def _ref(name, indices, tag):
    return name + (f"[{','.join(indices)}]" if indices else "") + tag


def _dims(rng, n, low, high, square_share=0.0):
    """Effective dimensions of an n-factor chain, drawn from low..high.

    A ``square_share`` of the factors are made square, so that inverse
    tags and the square-only property menus turn up often; i.i.d.
    dimensions alone make a square factor rare.
    """
    dims = [rng.randint(low, high)]
    for _ in range(n):
        square = rng.random() < square_share
        dims.append(dims[-1] if square else rng.randint(low, high))
    return dims


def _tagged_chain(rng, prefix, dims, index_pick=None):
    """Declarations and right-hand side of one random valid chain.

    ``dims`` are the effective dimensions, one more than the factors.
    Inverse tags only go on square factors, so the chain validates and
    every product has a kernel route. ``index_pick`` returns the index
    names a factor carries. Returns (declaration lines, rhs, indices).
    """
    decls, refs, used = [], [], []
    for t in range(len(dims) - 1):
        eff = (dims[t], dims[t + 1])
        options = ["", "^T"]
        if eff[0] == eff[1]:
            options += ["^-1", "^-T"]
        tag = rng.choice(options)
        rows, cols = (eff[1], eff[0]) if tag in _SWAPPING else eff
        if cols == 1 and rows > 1 and rng.random() < 0.5:
            props = "vector"
        elif rows == cols:
            props = rng.choice(SQUARE_MENU)
        else:
            props = rng.choice(RECT_MENU)
        indices = index_pick(rng) if index_pick else ()
        for ix in indices:
            if ix not in used:
                used.append(ix)
        name = f"{prefix}{t}"
        decls.append(_operand_line(name, rows, cols, props, indices))
        refs.append(_ref(name, indices, tag))
    return decls, " * ".join(refs), tuple(used)


def mixed_problem(seed: int, sizes=MIXED_SIZES) -> str:
    """dp_mixed: long chains with random tags and property menus."""
    rng = random.Random(f"dp_mixed:{seed}")
    lines = []
    for c, n in enumerate(sizes):
        # The smallest dimension and the inverted squares set most of a
        # long chain's optimal cost. Every chain gets exactly one 1, and
        # squares stay as rare as i.i.d. dimensions make them, which keeps
        # the plan-cost geomean of a run comparable across seeds.
        dims = _dims(rng, n, 2, MIXED_DIM_MAX)
        dims[rng.randrange(n + 1)] = 1
        decls, rhs, _ = _tagged_chain(rng, f"C{c}_M", dims)
        lines += decls
        lines.append(f"compute Y{c} = {rhs}")
    return "\n".join(lines) + "\n"


def plain_problem(seed: int, sizes=PLAIN_SIZES) -> str:
    """dp_plain: long untagged, property-free chains over few dimensions."""
    rng = random.Random(f"dp_plain:{seed}")
    lines = []
    for c, n in enumerate(sizes):
        dims = [rng.choice(PLAIN_DIMS) for _ in range(n + 1)]
        names = []
        for t in range(n):
            names.append(f"C{c}_M{t}")
            lines.append(f"matrix {names[-1]} {dims[t]} {dims[t + 1]}")
        lines.append(f"compute Y{c} = {' * '.join(names)}")
    return "\n".join(lines) + "\n"


def _pick_indices(rng):
    roll = rng.random()
    if roll < 0.25:
        return ("i",)
    if roll < 0.35:
        return ("j",)
    if roll < 0.40:
        return ("i", "j")
    return ()


def cli_problem(rng: random.Random, n_stmts: int) -> str:
    """One cli_mix problem file of ``n_stmts`` short indexed chains."""
    lines = [f"index {name} {size}" for name, size in CLI_INDEX_RANGES]
    for s in range(n_stmts):
        if s % REPRO_EVERY == REPRO_EVERY - 1:
            rows, inner = rng.randint(1, CLI_DIM_MAX), rng.randint(2, CLI_DIM_MAX)
            lines.append(_operand_line(f"S{s}_A", rows, inner, "", ("i",)))
            props = rng.choice(("", "full", "nonsingular"))
            lines.append(_operand_line(f"S{s}_B", inner, inner, props, ()))
            lines.append(f"compute X{s}[i] = S{s}_A[i] * S{s}_B^-1")
            continue
        n = CLI_FACTORS[s % len(CLI_FACTORS)]
        dims = _dims(rng, n, 1, CLI_DIM_MAX, CLI_SQUARE_SHARE)
        decls, rhs, used = _tagged_chain(rng, f"S{s}_M", dims, _pick_indices)
        lines += decls
        target = _ref(f"X{s}", tuple(sorted(used)), "")
        lines.append(f"compute {target} = {rhs}")
    return "\n".join(lines) + "\n"


def cli_files(seed: int, sizes=CLI_SIZES):
    """cli_mix: (file stem, problem text, metric name) in run order."""
    rng = random.Random(f"cli_mix:{seed}")
    out = []
    for at, n_stmts in enumerate(sizes):
        metric = "memory" if at in CLI_MEMORY_AT else "flops"
        out.append((f"p{at:02d}_{n_stmts}", cli_problem(rng, n_stmts), metric))
    return out
