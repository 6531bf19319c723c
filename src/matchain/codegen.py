"""Render plans as kernel-call programs, human- or machine-readable.

Text form: one line per call with the rendered math and its per-instance
cost, indexed calls nested under ``for <index> in 1..<range>:`` headers
(consecutive calls with identical loop nests share headers), and a footer
with the multiplicity-weighted total. Costs are displayed rounded down;
the record form keeps full float precision so that parsing it back
reconstructs an equal plan.
"""

from __future__ import annotations

import shlex

from .errors import MatchainError
from .expr import IndexDecl
from .kernels import KernelCall
from .solver import Plan


def _fmt_cost(cost: float) -> str:
    return str(int(cost))


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
            f"   # {call.comment} {plan.metric_name}={_fmt_cost(call.cost)}"
        )
    lines.append(f"# total_{plan.metric_name}={_fmt_cost(plan.total_cost)}")
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

    Raises :class:`MatchainError`, naming the call, when a call's index
    multiplicity has more digits than Python writes out.
    """
    lines = []
    for call in plan.calls:
        fields = [f"kernel={shlex.quote(call.kernel_id)}"]
        for at, name in enumerate(call.inputs, start=1):
            fields.append(f"in{at}={shlex.quote(name)}")
        fields.append(f"out={shlex.quote(call.output)}")
        fields.append(f"cost={call.cost!r}")
        fields.append(f"math={shlex.quote(call.comment)}")
        if call.loops:
            fields.append(f"loops={_fmt_loops(call.loops)}")
        if call.multiplicity != 1:
            try:
                fields.append(f"mult={call.multiplicity}")
            except ValueError:  # beyond Python's int-to-str digit limit
                raise MatchainError(
                    f"call {call.output} := {call.kernel_id}"
                    f"({', '.join(call.inputs)}): its index multiplicity has "
                    "too many digits to write as a record"
                ) from None
        lines.append("call " + " ".join(fields))
    summary = [
        f"target={shlex.quote(plan.target)}",
        f"metric={plan.metric_name}",
        f"total={plan.total_cost!r}",
        f"parens={shlex.quote(_parens_str(plan.parenthesization))}",
    ]
    lines.append("summary " + " ".join(summary))
    return "\n".join(lines) + "\n"


def _parse_parens(text: str):
    """The tree that :func:`_parens_str` wrote as ``text``."""
    # stack[-1] holds the parsed children of the innermost open "(".
    stack: list[list] = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")" and len(stack) > 1 and len(stack[-1]) == 2:
            node = tuple(stack.pop())
            stack[-1].append(node)
        elif tok == ")":
            raise ValueError(f"malformed parenthesization {text!r}")
        else:
            stack[-1].append(int(tok))
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"malformed parenthesization {text!r}")
    return stack[0][0]


def _parse_loops(text: str) -> tuple[IndexDecl, ...]:
    out = []
    for part in text.split(","):
        if not part:
            continue
        name, _, rng = part.partition(":")
        out.append(IndexDecl(name, int(rng)))
    return tuple(out)


#: The fields a record of each kind must have.
_REQUIRED = {
    "call": ("kernel", "out", "cost", "math"),
    "summary": ("target", "metric", "total", "parens"),
}


def parse_records(text: str) -> Plan:
    """Reconstruct a Plan from :func:`emit_records` output.

    Raises ``ValueError`` on any malformed stream, naming the missing
    field, the malformed parenthesization or the value that is not a
    number, and when the stream has no summary line.
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
            fields[key] = value
        missing = [key for key in _REQUIRED.get(kind, ()) if key not in fields]
        if missing:
            raise ValueError(f"{kind} record lacks {', '.join(map(repr, missing))}")
        if kind == "call":
            inputs = [fields[k] for k in ("in1", "in2") if k in fields]
            calls.append(
                KernelCall(
                    kernel_id=fields["kernel"],
                    inputs=tuple(inputs),
                    output=fields["out"],
                    cost=float(fields["cost"]),
                    comment=fields["math"],
                    loops=_parse_loops(fields.get("loops", "")),
                    multiplicity=int(fields.get("mult", "1")),
                )
            )
        elif kind == "summary":
            summary = fields
        # Other kinds (the CLI's statement/naive/verify annotations) are
        # not part of the plan and are skipped.
    if summary is None:
        raise ValueError("record stream has no summary line")
    return Plan(
        target=summary["target"],
        calls=tuple(calls),
        total_cost=float(summary["total"]),
        parenthesization=_parse_parens(summary["parens"]),
        metric_name=summary["metric"],
    )
