"""Kernel database: operand patterns, matching, cost metrics, config files.

A kernel consumes pending unary tags rather than requiring them to be
materialized: ``trsm`` computes ``op(A)^-1 * B`` directly from the stored
``A``, so an inverse tag on a triangular operand costs a solve, not an
explicit inversion. Matching therefore works on *stored* operands paired
with their pending tag (:class:`TaggedOperand`).

Costs are analytic and exact. The FLOP metric uses each kernel's
operation-count formula in the effective dimensions ``m, k, n`` (left
m x k times right k x n; unary kernels see their input as m x n and
k = n). The memory metric charges the element count of each call's
output, a stand-in for write traffic; every call writes an m x n result.
Both count in units of 1/u, where u is the database's cost unit
(``Kernel.unit``): the lcm of the denominators of its cost polynomials,
3 for the built-ins. So every cost is a Python int, and the search sums
and compares ints, which is exact at any size. :func:`cost_value` alone
turns a unit count into the value a plan reports.

A new metric subclasses :class:`Metric` and needs only
``kernel_cost(kernel)``, the function of (m, k, n) that prices the
kernel's calls; ``call_cost(kernel, mkn)`` applies it. The search relies
on three things of it: costs are additive over calls; a call's cost is a
non-negative int, in the kernel's units, as a function of the kernel and
(m, k, n) alone; and that cost is non-decreasing in each of m, k and n.
Non-negativity is what lets ``sequence.py`` drop ``copy`` as a prep,
which can only add cost, and more generally drop a candidate whose preps
contain another's before the same binary call (see its dominance rule);
it also lets the solver skip a split whose two sub-costs alone already
reach the best split found. Monotonicity lets the solver put a floor
under a split's charge: a binary call at a cell's least inner dim costs
no more than at any of its splits (see ``solver.py``). Both built-in
metrics are products of positive dims, and MEMORY's ignores k; config
polynomials use only ``+`` and ``*`` over non-negative integers and dims
of at least 1, and ``/`` by a positive integer literal, so they are both
non-negative and non-decreasing.

Every kernel comes from one reader, :func:`load_kernel_config`. The
built-in database is a kernel-config text at the end of this module,
read once at import, so the checks that guard a user's file guard the
built-ins too. Each cost polynomial is checked as a syntax tree and then
compiled, scaled by the unit, to a plain function of (m, k, n) that uses
only ``+`` and ``*`` over ints.

Note that ``transp`` is charged m*n flops even though transposition does
no arithmetic; a free transpose would make explicit transposes costless,
which no real machine delivers. The charge approximates its traffic.
"""

from __future__ import annotations

import ast
import math
import operator
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .errors import KernelConfigError
from .expr import UnaryTag, effective_dims
from .properties import (
    PROPERTY_NAMES,
    Property,
    infer_properties,
    inverse_props,
    transpose_props,
)


def _tag_props(props: frozenset[Property], tag: UnaryTag) -> frozenset[Property]:
    """The closed properties of a stored operand seen through its pending tag."""
    if tag is UnaryTag.ID:
        return props
    if tag is UnaryTag.T:
        return transpose_props(props)
    if tag is UnaryTag.INV:
        return inverse_props(props)
    return transpose_props(inverse_props(props))


class TaggedOperand(NamedTuple):
    """A stored operand (dims + closed props) with its pending unary tag.

    It is structure alone: no kernel, cost or property looks at an
    operand's name, so a search state has none, and two states of equal
    structure are one key wherever states are keyed. The solver names
    operands when it renders a plan.
    """

    rows: int
    cols: int
    props: frozenset[Property]
    tag: UnaryTag = UnaryTag.ID

    @property
    def eff_dims(self) -> tuple[int, int]:
        return effective_dims(self.rows, self.cols, self.tag)

    @property
    def eff_props(self) -> frozenset[Property]:
        return _tag_props(self.props, self.tag)


class InputPattern(NamedTuple):
    """Per-input requirement: allowed pending tags, required stored props."""

    tags: frozenset[UnaryTag]
    required: frozenset[Property]

    def matches(self, op: TaggedOperand) -> bool:
        return op.tag in self.tags and self.required <= op.props


class Kernel(NamedTuple):
    """A computational building block with patterns and a FLOP formula.

    ``peel`` applies to unary kernels only and names the tag component the
    kernel discharges: ``"t"`` (transp: T -> Id, InvT -> Inv), ``"inv"``
    (getri/trtri: Inv -> Id, InvT -> T), or ``None`` (copy, tag Id only).
    ``variants`` holds one pattern tuple (length == arity) per accepted
    orientation; the kernel applies when any of them accepts the operands.
    ``poly`` is the cost polynomial as configured, in FLOPs, and ``flops``
    its compiled form in units of 1/``unit``, the database's cost unit:
    ``flops(m, k, n) == unit * poly`` exactly.
    """

    id: str
    arity: int
    variants: tuple[tuple[InputPattern, ...], ...]
    poly: str
    unit: int
    flops: Callable[[int, int, int], int]
    peel: str | None = None

    def accepts(self, ops: Sequence[TaggedOperand]) -> bool:
        # Plain loops: nested generator expressions made this twice as slow.
        if len(ops) != self.arity:
            return False
        for patterns in self.variants:
            for pattern, op in zip(patterns, ops):
                if not pattern.matches(op):
                    break
            else:
                return True
        return False

    def apply_unary(self, op: TaggedOperand) -> TaggedOperand:
        """Result of this unary kernel on ``op``: stored output + remaining tag."""
        if self.arity != 1:
            raise ValueError(f"{self.id} is not unary")
        if self.peel == "t":
            remaining = UnaryTag.ID if op.tag is UnaryTag.T else UnaryTag.INV
            return TaggedOperand(op.cols, op.rows, transpose_props(op.props), remaining)
        if self.peel == "inv":
            remaining = UnaryTag.ID if op.tag is UnaryTag.INV else UnaryTag.T
            return TaggedOperand(op.rows, op.cols, inverse_props(op.props), remaining)
        return TaggedOperand(op.rows, op.cols, op.props)


def product(left: TaggedOperand, right: TaggedOperand) -> TaggedOperand:
    """The result of ``left * right``, pending tags consumed. It is the
    same for every binary kernel that computes the product."""
    ldims, rdims = left.eff_dims, right.eff_dims
    props = infer_properties(left.eff_props, ldims, right.eff_props, rdims)
    return TaggedOperand(ldims[0], rdims[1], props)


class KernelCall(NamedTuple):
    """One emitted instruction.

    ``cost`` is the single-instance cost under the active metric, as
    :func:`cost_value` reports it. ``loops`` holds the free indices the
    call iterates over, outermost first, so the call contributes
    ``cost * multiplicity`` to the plan total.
    """

    kernel_id: str
    inputs: tuple[str, ...]
    output: str
    cost: float | int
    comment: str
    loops: tuple = ()

    @property
    def multiplicity(self) -> int:
        """How many times the call runs: the product of its loop ranges."""
        return math.prod(ix.range for ix in self.loops)


# --------------------------------------------------------------------------
# Cost metrics

def cost_value(units: int, unit: int) -> float | int:
    """The value that ``units`` units of 1/``unit`` report: the nearest
    float (int / int true division rounds correctly), or, beyond the float
    range, the exact value rounded down to an int."""
    try:
        return units / unit
    except OverflowError:
        return units // unit


def unit_of(db: Sequence[Kernel]) -> int:
    """The one cost unit of ``db``'s kernels, 1 when it has none. A list
    whose kernels mix units, which only a hand-built one can, is refused:
    its costs could not be summed."""
    units = {kernel.unit for kernel in db}
    if len(units) > 1:
        raise ValueError(f"the kernels mix cost units {sorted(units)}")
    return units.pop() if units else 1


class Metric:
    """A cost metric: a subclass's ``kernel_cost(kernel)`` is the function
    of (m, k, n) that prices ``kernel``'s calls; ``call_cost`` applies it.

    Its value is an int in the kernel's units, non-negative and
    non-decreasing in each of m, k and n. The solver relies on both: a
    split's charge is at least its binary call's cost, and that call costs
    at least what it would at the cell's least inner dim, the floor under
    which the fill skips a split without pricing it.
    """

    def call_cost(self, kernel: Kernel, mkn: tuple[int, int, int]) -> int:
        return self.kernel_cost(kernel)(*mkn)


class FlopMetric(Metric):
    """Scalar floating-point operation count (kernel formula in m, k, n)."""

    name = "flops"

    #: A kernel's compiled cost polynomial, read without a Python call.
    kernel_cost = staticmethod(operator.attrgetter("flops"))


class MemoryMetric(Metric):
    """Element count of each call's m x n output (write-traffic proxy)."""

    name = "memory"

    def kernel_cost(self, kernel: Kernel) -> Callable[[int, int, int], int]:
        unit = kernel.unit
        return lambda m, k, n: m * n * unit


FLOPS = FlopMetric()
MEMORY = MemoryMetric()

METRICS = {m.name: m for m in (FLOPS, MEMORY)}


def metric_by_name(name: str):
    try:
        return METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; choose from {sorted(METRICS)}")


def match(
    left: TaggedOperand,
    right: TaggedOperand | None = None,
    db: Sequence[Kernel] | None = None,
) -> list[Kernel]:
    """All kernels applicable to the operand (pair), in database order.

    Binary matching additionally checks that the effective dimensions
    conform. An empty result is valid and means the database has a gap.
    """
    if db is None:
        db = default_db()
    ops = (left,) if right is None else (left, right)
    if right is not None and left.eff_dims[1] != right.eff_dims[0]:
        return []
    return [kernel for kernel in db if kernel.accepts(ops)]


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

#: The parameters of every compiled cost polynomial: ``lambda m, k, n: ...``.
_COST_ARGS = ast.arguments(
    posonlyargs=[],
    args=[ast.arg(name) for name in "mkn"],
    kwonlyargs=[],
    kw_defaults=[],
    defaults=[],
)


def _cost_tree(poly: str, lineno: int) -> tuple[ast.expr, int]:
    """The checked cost polynomial ``poly`` as ``(tree, d)``: ``tree``
    computes ``d * poly`` with ``+`` and ``*`` over ints alone.

    The polynomial may use ``+`` and ``*`` over integer constants and
    m, k, n, and ``/`` by a positive integer literal, so its value is
    non-negative at positive dims and no division can be by zero.
    """
    try:
        tree = ast.parse(poly, mode="eval").body
    except (SyntaxError, RecursionError):  # the latter: nested too deep
        raise KernelConfigError(lineno, f"unparsable cost polynomial {poly!r}")
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, (ast.Add, ast.Mult, ast.Div)):
                raise KernelConfigError(
                    lineno, "cost polynomial supports only +, *, and /"
                )
            if isinstance(node.op, ast.Div) and not (
                isinstance(node.right, ast.Constant)
                and type(node.right.value) is int
                and node.right.value > 0
            ):
                raise KernelConfigError(
                    lineno,
                    f"cost polynomial {poly!r}: a divisor must be a positive integer literal",
                )
        elif isinstance(node, ast.Constant):
            # ``type``, not ``isinstance``: True and False are ints too.
            if type(node.value) is not int:
                raise KernelConfigError(
                    lineno, f"cost constants must be integers, got {node.value!r}"
                )
        elif isinstance(node, ast.Name):
            if node.id not in ("m", "k", "n"):
                raise KernelConfigError(
                    lineno, f"unknown cost variable {node.id!r} (use m, k, n)"
                )
        elif not isinstance(node, (ast.Load, ast.Add, ast.Mult, ast.Div)):
            raise KernelConfigError(
                lineno, "cost polynomial supports only +, *, /, integers, and m, k, n"
            )
    try:
        return _integral(tree)
    except RecursionError:
        raise KernelConfigError(lineno, f"unparsable cost polynomial {poly!r}")


def _integral(node: ast.expr) -> tuple[ast.expr, int]:
    """``(tree, d)`` for a checked ``node``: ``tree`` computes ``d * node``
    without ``/``. A quotient multiplies d by its divisor, a product
    multiplies its parts' d, and a sum takes their lcm."""
    if not isinstance(node, ast.BinOp):
        return node, 1
    left, d_left = _integral(node.left)
    if isinstance(node.op, ast.Div):
        return left, d_left * node.right.value
    right, d_right = _integral(node.right)
    if isinstance(node.op, ast.Mult):
        return ast.BinOp(left, ast.Mult(), right), d_left * d_right
    d = math.lcm(d_left, d_right)
    return ast.BinOp(_times(d // d_left, left), ast.Add(), _times(d // d_right, right)), d


def _times(factor: int, tree: ast.expr) -> ast.expr:
    if factor == 1:
        return tree
    return ast.BinOp(ast.Constant(factor), ast.Mult(), tree)


def _compile_cost(poly: str, tree: ast.expr, lineno: int) -> Callable[[int, int, int], int]:
    """Compile ``tree``, the integral form of ``poly`` at the database's
    unit, to a plain function of (m, k, n), as fast per call as a written
    lambda."""
    try:
        function = ast.Lambda(_COST_ARGS, tree)
        expression = ast.fix_missing_locations(ast.Expression(function))
        code = compile(expression, "<kernel-config>", "eval")
    except RecursionError:  # nested too deep
        raise KernelConfigError(lineno, f"unparsable cost polynomial {poly!r}")
    return eval(code, {"__builtins__": {}})


def _split_groups(value: str, arity: int, what: str, lineno: int) -> list[list[str]]:
    groups = value.split(";")
    if len(groups) != arity:
        raise KernelConfigError(
            lineno, f"{what} needs {arity} ';'-separated group(s), got {len(groups)}"
        )
    return [[s for s in g.split(",") if s] for g in groups]


def _unary_peel(tags: frozenset[UnaryTag], lineno: int) -> str | None:
    """What a unary kernel accepting ``tags`` peels: nothing for a copy
    (``tags=id`` alone), else ``"t"`` or ``"inv"``. A peel applied to a
    tag-free operand would compute a transpose or inverse the chain does
    not ask for, so ``id`` mixed with other tags is rejected."""
    if tags == {UnaryTag.ID}:
        return None
    if UnaryTag.ID in tags:
        raise KernelConfigError(
            lineno, "a unary kernel takes tags=id alone (a copy) or tags from t, inv, invt"
        )
    if UnaryTag.T in tags:
        if UnaryTag.INV in tags:
            raise KernelConfigError(lineno, "unary kernel cannot peel both t and inv")
        return "t"
    if UnaryTag.INV in tags:
        return "inv"
    raise KernelConfigError(
        lineno, "tags=invt alone is ambiguous; include t or inv to pick the peel"
    )


def load_kernel_config(text: str, base: Sequence[Kernel] | None = None) -> list[Kernel]:
    """Parse a kernel-config file and merge it over ``base`` (default DB).

    Line format (``#`` comments allowed)::

        kernel <id> arity=<1|2> tags=<g1[;g2]> req=<g1[;g2]>[|<g1[;g2]>...] cost=<poly>

    where each ``tags`` group lists allowed pending tags (id, t, inv,
    invt; a unary kernel takes ``id`` alone, a copy, or tags from t, inv
    and invt), each ``req`` group lists required stored properties, and the
    cost polynomial uses + and * over integers and m, k, n, and / by a
    positive integer literal. ``req`` may hold ``|``-separated
    alternatives, such as the two orientations of a triangular operand;
    each is one variant with the line's tags, and the kernel applies when
    any of them accepts. A kernel whose id already exists replaces it in
    place, all its variants at once; new ids append to the end.

    The result has one cost unit: the lcm of the base's and of the
    denominators the new polynomials need (see ``_integral``). A base
    kernel of another unit is rebuilt at it.
    """
    db = list(default_db() if base is None else base)
    position = {kernel.id: at for at, kernel in enumerate(db)}
    # Each new kernel's cost tree and line, by id; its ``unit`` holds its
    # denominator until the database's unit is known.
    fresh: dict[str, tuple[ast.expr, int]] = {}

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
        alternatives = [
            _split_groups(req, arity, "req", lineno) for req in fields["req"].split("|")
        ]
        variants = []
        for req_groups in alternatives:
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
            variants.append(tuple(patterns))

        peel = None
        if arity == 1:
            peel = _unary_peel(variants[0][0].tags, lineno)
        tree, denominator = _cost_tree(fields["cost"], lineno)
        fresh[kid] = (tree, lineno)
        kernel = Kernel(kid, arity, tuple(variants), fields["cost"], denominator, None, peel)

        if kid in position:
            db[position[kid]] = kernel
        else:
            position[kid] = len(db)
            db.append(kernel)

    unit = math.lcm(*(kernel.unit for kernel in db))
    for at, kernel in enumerate(db):
        if kernel.id in fresh:
            (tree, lineno), denominator = fresh[kernel.id], kernel.unit
        elif kernel.unit != unit:
            (tree, denominator), lineno = _cost_tree(kernel.poly, 0), 0
        else:
            continue
        integral = _times(unit // denominator, tree)
        flops = _compile_cost(kernel.poly, integral, lineno)
        db[at] = kernel._replace(unit=unit, flops=flops)
    return db


# --------------------------------------------------------------------------
# The built-in database

#: The built-in kernels, most specific first, in the kernel-config format.
#: The diagonal and triangular patterns require ``square`` as well, so a
#: rectangular diagonal or trapezoidal operand matches none of them.
_BUILTIN_CONFIG = """
kernel diagmm arity=2 tags=id;id       cost=m*n               req=diagonal,square;
kernel diagsv arity=2 tags=inv;id      cost=2*m*n             req=diagonal,square;
kernel trtrmm arity=2 tags=id;id       cost=m*k*n/3           req=lower_triangular,square;lower_triangular,square|upper_triangular,square;upper_triangular,square
kernel trmm   arity=2 tags=id,t;id     cost=m*m*n             req=lower_triangular,square;|upper_triangular,square;
kernel trsm   arity=2 tags=inv,invt;id cost=m*m*n             req=lower_triangular,square;|upper_triangular,square;
kernel posv   arity=2 tags=inv;id      cost=m*m*m/3+2*m*m*n   req=spd,square;
kernel gesv   arity=2 tags=inv;id      cost=2*m*m*m/3+2*m*m*n req=square;
kernel gemm   arity=2 tags=id,t;id,t   cost=2*m*k*n           req=;
kernel trtri  arity=1 tags=inv,invt    cost=m*m*m/3           req=lower_triangular,square|upper_triangular,square
kernel getri  arity=1 tags=inv,invt    cost=2*m*m*m           req=square
kernel transp arity=1 tags=t,invt      cost=m*n               req=
kernel copy   arity=1 tags=id          cost=0                 req=
"""

#: Read once, so every default database holds the same kernels and
#: compares equal.
_BUILTIN = tuple(load_kernel_config(_BUILTIN_CONFIG, ()))


def default_db() -> list[Kernel]:
    """The built-in kernel set, most specific first.

    The order is the deterministic order reported by :func:`match`; cost
    still decides selection, so order only breaks exact ties. Each call
    returns a new list, which the caller may edit, of the same kernels.
    """
    return list(_BUILTIN)
