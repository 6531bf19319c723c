"""Kernel database: operand patterns, matching, cost metrics, config files.

A kernel consumes pending unary tags rather than requiring them to be
materialized: ``trsm`` computes ``op(A)^-1 * B`` directly from the stored
``A``, so an inverse tag on a triangular operand costs a solve, not an
explicit inversion. Matching therefore works on *stored* operands paired
with their pending tag (:class:`TaggedOperand`).

Costs are analytic. The FLOP metric uses each kernel's operation-count
formula in the effective dimensions ``m, k, n`` (left m x k times right
k x n; unary kernels see their input as m x n and k = n). The memory
metric charges the element count of each call's output, a stand-in for
write traffic. Both are additive over calls, which is all the solver
assumes; new metrics only need a ``call_cost``.

Note that ``transp`` is charged m*n flops even though transposition does
no arithmetic; a free transpose would make explicit transposes costless,
which no real machine delivers. The charge approximates its traffic.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from .errors import CostOverflowError, KernelConfigError
from .expr import UnaryTag, effective_dims
from .properties import (
    PROPERTY_NAMES,
    Property,
    apply_tag_props,
    infer_properties,
)


@dataclass(frozen=True)
class TaggedOperand:
    """A stored operand (dims + closed props) with its pending unary tag.

    ``name`` is display-only and excluded from :meth:`signature`, so memo
    entries keyed on signatures are shared across operands that differ
    only in name.
    """

    rows: int
    cols: int
    props: frozenset[Property]
    tag: UnaryTag = UnaryTag.ID
    name: str = ""

    def signature(self):
        return (self.rows, self.cols, self.props, self.tag)

    @property
    def eff_dims(self) -> tuple[int, int]:
        return effective_dims(self.rows, self.cols, self.tag)

    @property
    def eff_props(self) -> frozenset[Property]:
        return apply_tag_props(self.props, self.tag)

    @property
    def display(self) -> str:
        """Mathematical form including the pending tag, e.g. ``A^-1``."""
        return self.name + self.tag.value


@dataclass(frozen=True)
class InputPattern:
    """Per-input requirement: allowed pending tags, required stored props."""

    tags: frozenset[UnaryTag]
    required: frozenset[Property]

    def matches(self, op: TaggedOperand) -> bool:
        return op.tag in self.tags and self.required <= op.props


@dataclass(frozen=True)
class Variant:
    """One alternative pattern tuple for a kernel (length == arity).

    Kernels that accept either triangle orientation carry one variant per
    orientation; the first matching variant is the recorded binding.
    """

    patterns: tuple[InputPattern, ...]


@dataclass(frozen=True)
class Kernel:
    """A computational building block with patterns and a FLOP formula.

    ``peel`` applies to unary kernels only and names the tag component the
    kernel discharges: ``"t"`` (transp: T -> Id, InvT -> Inv), ``"inv"``
    (getri/trtri: Inv -> Id, InvT -> T), or ``None`` (copy, tag Id only).
    """

    id: str
    arity: int
    variants: tuple[Variant, ...]
    flops: Callable[[int, int, int], float]
    peel: str | None = None

    def match_variant(self, ops: Sequence[TaggedOperand]) -> Variant | None:
        if len(ops) != self.arity:
            return None
        for variant in self.variants:
            if all(p.matches(op) for p, op in zip(variant.patterns, ops)):
                return variant
        return None

    def apply_unary(self, op: TaggedOperand, name: str) -> TaggedOperand:
        """Result of this unary kernel on ``op``: stored output + remaining tag."""
        if self.arity != 1:
            raise ValueError(f"{self.id} is not unary")
        if self.peel == "t":
            remaining = UnaryTag.ID if op.tag is UnaryTag.T else UnaryTag.INV
            out = TaggedOperand(
                op.cols, op.rows, apply_tag_props(op.props, UnaryTag.T), remaining, name
            )
        elif self.peel == "inv":
            remaining = UnaryTag.ID if op.tag is UnaryTag.INV else UnaryTag.T
            out = TaggedOperand(
                op.rows, op.cols, apply_tag_props(op.props, UnaryTag.INV), remaining, name
            )
        else:
            out = TaggedOperand(op.rows, op.cols, op.props, UnaryTag.ID, name)
        return out

    def apply_binary(
        self, left: TaggedOperand, right: TaggedOperand, name: str
    ) -> TaggedOperand:
        """Result descriptor of this binary kernel, pending tags consumed."""
        if self.arity != 2:
            raise ValueError(f"{self.id} is not binary")
        ldims, rdims = left.eff_dims, right.eff_dims
        props = infer_properties(left.eff_props, ldims, right.eff_props, rdims)
        return TaggedOperand(ldims[0], rdims[1], props, UnaryTag.ID, name)


@dataclass(frozen=True)
class KernelCall:
    """One emitted instruction.

    ``cost`` is the single-instance cost under the active metric;
    ``multiplicity`` is the index multiplicity the solver attached, so the
    call contributes ``cost * multiplicity`` to the plan total. ``loops``
    holds the free indices the call iterates over, outermost first.
    """

    kernel_id: str
    inputs: tuple[str, ...]
    output: str
    cost: float
    comment: str
    loops: tuple = ()
    multiplicity: int = 1


# --------------------------------------------------------------------------
# Cost metrics

# Dimensions are Python ints of any size, so a cost can leave the float
# range: int-to-float conversion and true division raise OverflowError,
# and float arithmetic gives inf. Either becomes a CostOverflowError.

class FlopMetric:
    """Scalar floating-point operation count (kernel formula in m, k, n)."""

    name = "flops"

    def call_cost(self, kernel: Kernel, mkn: tuple[int, int, int], out_dims) -> float:
        try:
            cost = float(kernel.flops(*mkn))
        except OverflowError:
            raise CostOverflowError(kernel.id, mkn) from None
        if not cost < math.inf:  # inf or nan
            raise CostOverflowError(kernel.id, mkn)
        return cost


class MemoryMetric:
    """Element count of each call's output (write-traffic proxy)."""

    name = "memory"

    def call_cost(self, kernel: Kernel, mkn: tuple[int, int, int], out_dims) -> float:
        try:
            return float(out_dims[0] * out_dims[1])
        except OverflowError:
            raise CostOverflowError(kernel.id, mkn) from None


FLOPS = FlopMetric()
MEMORY = MemoryMetric()

METRICS = {m.name: m for m in (FLOPS, MEMORY)}


def metric_by_name(name: str):
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; choose from {sorted(METRICS)}")


# --------------------------------------------------------------------------
# The built-in database

_ID = frozenset({UnaryTag.ID})
_ID_T = frozenset({UnaryTag.ID, UnaryTag.T})
_INV = frozenset({UnaryTag.INV})
_INV_INVT = frozenset({UnaryTag.INV, UnaryTag.INVT})
_T_INVT = frozenset({UnaryTag.T, UnaryTag.INVT})

_ANY = frozenset()
_SQ = frozenset({Property.SQUARE})
_LOW = frozenset({Property.LOWER_TRIANGULAR, Property.SQUARE})
_UP = frozenset({Property.UPPER_TRIANGULAR, Property.SQUARE})
_DIAG = frozenset({Property.DIAGONAL, Property.SQUARE})
_SPD = frozenset({Property.SPD, Property.SQUARE})


def _binary(tags1, req1, tags2, req2):
    return Variant((InputPattern(tags1, req1), InputPattern(tags2, req2)))


def _unary(tags, req):
    return Variant((InputPattern(tags, req),))


#: The built-in kernels, most specific first. Built once, so every
#: default database holds the same frozen kernels and compares equal.
_BUILTIN = (
    Kernel(
        "diagmm", 2,
        (_binary(_ID, _DIAG, _ID, _ANY),),
        lambda m, k, n: m * n,
    ),
    Kernel(
        "diagsv", 2,
        (_binary(_INV, _DIAG, _ID, _ANY),),
        lambda m, k, n: 2 * m * n,
    ),
    Kernel(
        "trtrmm", 2,
        (
            _binary(_ID, _LOW, _ID, _LOW),
            _binary(_ID, _UP, _ID, _UP),
        ),
        lambda m, k, n: m * k * n / 3,
    ),
    Kernel(
        "trmm", 2,
        (
            _binary(_ID_T, _LOW, _ID, _ANY),
            _binary(_ID_T, _UP, _ID, _ANY),
        ),
        lambda m, k, n: m * m * n,
    ),
    Kernel(
        "trsm", 2,
        (
            _binary(_INV_INVT, _LOW, _ID, _ANY),
            _binary(_INV_INVT, _UP, _ID, _ANY),
        ),
        lambda m, k, n: m * m * n,
    ),
    Kernel(
        "posv", 2,
        (_binary(_INV, _SPD, _ID, _ANY),),
        lambda m, k, n: m ** 3 / 3 + 2 * m * m * n,
    ),
    Kernel(
        "gesv", 2,
        (_binary(_INV, _SQ, _ID, _ANY),),
        lambda m, k, n: 2 * m ** 3 / 3 + 2 * m * m * n,
    ),
    Kernel(
        "gemm", 2,
        (_binary(_ID_T, _ANY, _ID_T, _ANY),),
        lambda m, k, n: 2 * m * k * n,
    ),
    Kernel(
        "trtri", 1,
        (
            _unary(_INV_INVT, _LOW),
            _unary(_INV_INVT, _UP),
        ),
        lambda m, k, n: m ** 3 / 3,
        peel="inv",
    ),
    Kernel(
        "getri", 1,
        (_unary(_INV_INVT, _SQ),),
        lambda m, k, n: 2 * m ** 3,
        peel="inv",
    ),
    Kernel(
        "transp", 1,
        (_unary(_T_INVT, _ANY),),
        lambda m, k, n: m * n,
        peel="t",
    ),
    Kernel(
        "copy", 1,
        (_unary(_ID, _ANY),),
        lambda m, k, n: 0,
    ),
)


def default_db() -> list[Kernel]:
    """The built-in kernel set, most specific first.

    The order is the deterministic order reported by :func:`match`; cost
    still decides selection, so order only breaks exact ties. Each call
    returns a new list, which the caller may edit, of the same kernels.
    """
    return list(_BUILTIN)


def match(
    left: TaggedOperand,
    right: TaggedOperand | None = None,
    db: Sequence[Kernel] | None = None,
) -> list[tuple[Kernel, Variant]]:
    """All kernels applicable to the operand (pair), in database order.

    Binary matching additionally checks that the effective dimensions
    conform. An empty result is valid and means the database has a gap.
    """
    if db is None:
        db = default_db()
    ops = (left,) if right is None else (left, right)
    if right is not None and left.eff_dims[1] != right.eff_dims[0]:
        return []
    out = []
    for kernel in db:
        variant = kernel.match_variant(ops)
        if variant is not None:
            out.append((kernel, variant))
    return out


def call_mkn(ops: Sequence[TaggedOperand]) -> tuple[int, int, int]:
    """The (m, k, n) cost arguments for a call on these effective operands."""
    if len(ops) == 1:
        m, n = ops[0].eff_dims
        return (m, n, n)
    (m, k), (_, n) = ops[0].eff_dims, ops[1].eff_dims
    return (m, k, n)


# --------------------------------------------------------------------------
# Kernel-config files

_TAG_NAMES = {
    "id": UnaryTag.ID,
    "t": UnaryTag.T,
    "inv": UnaryTag.INV,
    "invt": UnaryTag.INVT,
}

#: ``req=`` groups may name ``square`` explicitly, unlike problem files
#: where squareness always comes from the declared dimensions.
_REQ_NAMES = dict(PROPERTY_NAMES)
_REQ_NAMES["square"] = Property.SQUARE

#: (m, k, n) points at which every configured cost polynomial is checked.
_COST_SAMPLES = ((1, 1, 1), (2, 3, 5), (64, 48, 32))


def _compile_cost(poly: str, lineno: int) -> Callable[[int, int, int], float]:
    """Compile a cost polynomial over m, k, n (operators +, *, / only)."""
    try:
        # Compiling runs nothing; the tree is checked before it is evaluated.
        tree = ast.parse(poly, mode="eval")
        code = compile(tree, "<kernel-config>", "eval")
    except (SyntaxError, RecursionError):  # the latter: nested too deep
        raise KernelConfigError(lineno, f"unparsable cost polynomial {poly!r}")
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, (ast.Add, ast.Mult, ast.Div)):
                raise KernelConfigError(
                    lineno, "cost polynomial supports only +, *, and /"
                )
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                raise KernelConfigError(
                    lineno, f"cost constants must be integers, got {node.value!r}"
                )
        elif isinstance(node, ast.Name):
            if node.id not in ("m", "k", "n"):
                raise KernelConfigError(
                    lineno, f"unknown cost variable {node.id!r} (use m, k, n)"
                )
        elif not isinstance(node, (ast.Expression, ast.Load, ast.Add, ast.Mult, ast.Div)):
            raise KernelConfigError(
                lineno, "cost polynomial supports only +, *, /, integers, and m, k, n"
            )
    cost = lambda m, k, n: eval(code, {"__builtins__": {}}, {"m": m, "k": k, "n": n})
    # The solver evaluates costs deep inside the DP, so a polynomial that
    # divides by zero or leaves the float range is rejected here, with its
    # line number. Only +, * and / over non-negative constants and positive
    # dims are allowed, so a denominator that is zero at some point is zero
    # at every sample too.
    for mkn in _COST_SAMPLES:
        try:
            value = float(cost(*mkn))
        except (ZeroDivisionError, OverflowError) as exc:
            raise KernelConfigError(
                lineno, f"cost polynomial {poly!r} fails at (m, k, n) = {mkn}: {exc}"
            )
        if not (math.isfinite(value) and value >= 0):
            raise KernelConfigError(
                lineno, f"cost polynomial {poly!r} gives {value!r} at (m, k, n) = {mkn}"
            )
    return cost


def _split_groups(value: str, arity: int, what: str, lineno: int) -> list[list[str]]:
    groups = value.split(";")
    if len(groups) != arity:
        raise KernelConfigError(
            lineno, f"{what} needs {arity} ';'-separated group(s), got {len(groups)}"
        )
    return [[s for s in g.split(",") if s] for g in groups]


def _unary_peel(tags: frozenset[UnaryTag], lineno: int) -> str | None:
    if UnaryTag.T in tags:
        if UnaryTag.INV in tags:
            raise KernelConfigError(lineno, "unary kernel cannot peel both t and inv")
        return "t"
    if UnaryTag.INV in tags:
        return "inv"
    if tags == frozenset({UnaryTag.INVT}):
        raise KernelConfigError(
            lineno, "tags=invt alone is ambiguous; include t or inv to pick the peel"
        )
    return None


def load_kernel_config(text: str, base: Sequence[Kernel] | None = None) -> list[Kernel]:
    """Parse a kernel-config file and merge it over ``base`` (default DB).

    Line format (``#`` comments allowed)::

        kernel <id> arity=<1|2> tags=<g1[;g2]> req=<g1[;g2]> cost=<poly>

    where each ``tags`` group lists allowed pending tags (id, t, inv,
    invt), each ``req`` group lists required stored properties, and the
    cost polynomial uses +, *, / over integers and m, k, n. A kernel whose
    id already exists replaces it in place; new ids append to the end.
    """
    db = list(default_db() if base is None else base)
    position = {kernel.id: at for at, kernel in enumerate(db)}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "kernel" or len(tokens) < 2:
            raise KernelConfigError(lineno, "expected: kernel <id> key=value ...")
        kid = tokens[1]
        fields = {}
        for tok in tokens[2:]:
            key, eq, value = tok.partition("=")
            if not eq or key not in ("arity", "tags", "req", "cost"):
                raise KernelConfigError(lineno, f"unexpected field {tok!r}")
            if key in fields:
                raise KernelConfigError(lineno, f"duplicate field {key!r}")
            fields[key] = value
        missing = {"arity", "tags", "req", "cost"} - set(fields)
        if missing:
            raise KernelConfigError(lineno, f"missing field(s): {', '.join(sorted(missing))}")

        if fields["arity"] not in ("1", "2"):
            raise KernelConfigError(lineno, f"arity must be 1 or 2, got {fields['arity']!r}")
        arity = int(fields["arity"])

        tag_groups = _split_groups(fields["tags"], arity, "tags", lineno)
        req_groups = _split_groups(fields["req"], arity, "req", lineno)
        patterns = []
        for tag_names, req_names in zip(tag_groups, req_groups):
            tags = set()
            for name in tag_names:
                if name not in _TAG_NAMES:
                    raise KernelConfigError(lineno, f"unknown tag {name!r}")
                tags.add(_TAG_NAMES[name])
            if not tags:
                tags.add(UnaryTag.ID)
            required = set()
            for name in req_names:
                if name not in _REQ_NAMES:
                    raise KernelConfigError(lineno, f"unknown property {name!r}")
                required.add(_REQ_NAMES[name])
            patterns.append(InputPattern(frozenset(tags), frozenset(required)))

        peel = None
        if arity == 1:
            peel = _unary_peel(patterns[0].tags, lineno)
        cost = _compile_cost(fields["cost"], lineno)
        kernel = Kernel(kid, arity, (Variant(tuple(patterns)),), cost, peel=peel)

        if kid in position:
            db[position[kid]] = kernel
        else:
            position[kid] = len(db)
            db.append(kernel)
    return db
