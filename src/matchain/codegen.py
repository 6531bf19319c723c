"""Render plans as kernel-call programs, human- or machine-readable.

Text form: one line per call with the rendered math and its per-instance
cost, indexed calls nested under ``for <index> in 1..<range>:`` headers
(consecutive calls with identical loop nests share headers), and a footer
with the multiplicity-weighted total. Costs are displayed rounded down;
the record form keeps full float precision, or all the digits of an int
too large for a float, so that parsing it back reconstructs an equal
plan. Every number goes through :func:`write_number`.
"""

from __future__ import annotations

import shlex
from math import inf, prod

from .errors import MatchainError
from .expr import IndexDecl
from .kernels import METRICS, KernelCall
from .solver import Plan


def write_number(value: float | int, what: str, call: KernelCall | None = None) -> str:
    """``value`` written out: a float's repr, an int's digits.

    Raises :class:`MatchainError` naming ``what``, and ``call`` when the
    number is one of its fields, when an int has more digits than Python
    writes out.
    """
    try:
        return repr(value)
    except ValueError:  # beyond Python's int-to-str digit limit
        if call is not None:
            what = (
                f"call {call.output} := {call.kernel_id}"
                f"({', '.join(call.inputs)}): its {what}"
            )
        raise MatchainError(f"{what} has too many digits to write") from None


def emit_text(plan: Plan) -> str:
    """Human-readable program for ``plan``, ending in a cost footer."""
    lines = []
    open_loops: tuple[IndexDecl, ...] = ()
    for call in plan.calls:
        if call.loops != open_loops:
            for depth, ix in enumerate(call.loops):
                lines.append(f"{'    ' * depth}for {ix.name} in 1..{ix.range}:")
            open_loops = call.loops
        indent = "    " * len(call.loops)
        args = ", ".join(call.inputs)
        lines.append(
            f"{indent}{call.output} := {call.kernel_id}({args})"
            f"   # {call.comment} {plan.metric_name}="
            f"{write_number(int(call.cost), 'cost', call)}"
        )
    total = write_number(int(plan.total_cost), "the plan total")
    lines.append(f"# total_{plan.metric_name}={total}")
    return "\n".join(lines) + "\n"


def _parens_str(tree) -> str:
    """``tree`` written as nested ``(left right)`` groups, as a loop, so a
    tree of any depth is written."""
    out = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            left, right = node
            todo += (")", right, " ", left)
            node = "("
        out.append(str(node))
    return "".join(out)


def _fmt_loops(loops) -> str:
    return ",".join(f"{ix.name}:{ix.range}" for ix in loops)


def emit_records(plan: Plan) -> str:
    """Machine-readable record stream: one ``call`` line per kernel call
    and a trailing ``summary`` line. Costs use full repr precision.

    Raises :class:`MatchainError` when a number has more digits than
    Python writes out (see :func:`write_number`).
    """
    lines = []
    for call in plan.calls:
        fields = [f"kernel={shlex.quote(call.kernel_id)}"]
        for at, name in enumerate(call.inputs, start=1):
            fields.append(f"in{at}={shlex.quote(name)}")
        fields.append(f"out={shlex.quote(call.output)}")
        fields.append(f"cost={write_number(call.cost, 'cost', call)}")
        fields.append(f"math={shlex.quote(call.comment)}")
        if call.loops:
            fields.append(f"loops={_fmt_loops(call.loops)}")
        if call.multiplicity != 1:
            mult = write_number(call.multiplicity, "index multiplicity", call)
            fields.append(f"mult={mult}")
        lines.append("call " + " ".join(fields))
    summary = [
        f"target={shlex.quote(plan.target)}",
        f"metric={plan.metric_name}",
        f"total={write_number(plan.total_cost, 'the plan total')}",
        f"parens={shlex.quote(_parens_str(plan.parenthesization))}",
    ]
    lines.append("summary " + " ".join(summary))
    return "\n".join(lines) + "\n"


def _parse_parens(text: str):
    """The tree that :func:`_parens_str` wrote as ``text``: its leaves, in
    order, are 0, 1, ..., n - 1 in canonical decimal, as in every plan."""
    # stack[-1] holds the parsed children of the innermost open "(".
    stack: list[list] = [[]]
    leaves = 0
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")" and len(stack) > 1 and len(stack[-1]) == 2:
            node = tuple(stack.pop())
            stack[-1].append(node)
        elif tok == ")":
            raise ValueError(f"malformed parenthesization {text!r}")
        elif tok == str(leaves):
            stack[-1].append(leaves)
            leaves += 1
        else:
            raise ValueError(f"parenthesization {text!r} has {tok!r} where leaf {leaves} belongs")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"malformed parenthesization {text!r}")
    return stack[0][0]


def _parse_loops(text: str) -> tuple[IndexDecl, ...]:
    """The loops :func:`_fmt_loops` wrote: each index once, in canonical decimal."""
    out = {}
    for part in text.split(","):
        name, _, rng = part.partition(":")
        if not (rng.isdecimal() and str(int(rng)) == rng):
            raise ValueError(f"loop {part!r} has no canonical decimal range")
        if name in out:
            raise ValueError(f"loop index {name!r} appears twice")
        out[name] = IndexDecl(name, int(rng))
    return tuple(out.values())


def _read_number(text: str) -> float | int:
    """The number :func:`write_number` wrote as ``text``: an int's digits
    in canonical form, or the repr of a finite, non-negative float."""
    value = int(text) if text.isdecimal() else float(text)
    if repr(value) == text and 0 <= value < inf:
        return value
    raise ValueError(f"{text!r} is not a number emit_records writes")


#: The fields a record of each kind must have.
_REQUIRED = {
    "call": ("kernel", "out", "cost", "math"),
    "summary": ("target", "metric", "total", "parens"),
}


def parse_records(text: str) -> Plan:
    """Reconstruct a Plan from :func:`emit_records` output, and from
    nothing else it could not have written: numbers are read by
    :func:`_read_number`, loops by :func:`_parse_loops`, the tree by
    :func:`_parse_parens`, a call's ``mult=`` is the product of its loop
    ranges (1 when omitted), ``metric=`` names one of ``kernels.METRICS``,
    and a field appears once per record.
    Raises ``ValueError`` on any malformed stream, naming what is wrong.
    """
    calls = []
    summary: dict[str, str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = shlex.split(line)
        kind, fields = tokens[0], {}
        for tok in tokens[1:]:
            key, eq, value = tok.partition("=")
            if not eq:
                raise ValueError(f"malformed record field {tok!r}")
            if key in fields:
                raise ValueError(f"{kind} record repeats field {key!r}")
            fields[key] = value
        missing = [key for key in _REQUIRED.get(kind, ()) if key not in fields]
        if missing:
            raise ValueError(f"{kind} record lacks {', '.join(map(repr, missing))}")
        if kind == "call":
            inputs = [fields[k] for k in ("in1", "in2") if k in fields]
            loops = _parse_loops(fields["loops"]) if "loops" in fields else ()
            mult, written = prod(ix.range for ix in loops), fields.get("mult", "1")
            if written != str(mult):
                raise ValueError(
                    f"multiplicity {written} is not the product of the call's loop ranges"
                )
            calls.append(
                KernelCall(
                    kernel_id=fields["kernel"],
                    inputs=tuple(inputs),
                    output=fields["out"],
                    cost=_read_number(fields["cost"]),
                    comment=fields["math"],
                    loops=loops,
                )
            )
        elif kind == "summary":
            if fields["metric"] not in METRICS:
                raise ValueError(f"unknown metric {fields['metric']!r}")
            summary = fields
        # Other kinds (the CLI's statement/naive/verify annotations) are
        # not part of the plan and are skipped.
    if summary is None:
        raise ValueError("record stream has no summary line")
    return Plan(
        target=summary["target"],
        calls=tuple(calls),
        total_cost=_read_number(summary["total"]),
        parenthesization=_parse_parens(summary["parens"]),
        metric_name=summary["metric"],
    )
