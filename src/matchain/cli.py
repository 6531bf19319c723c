"""Command-line driver: solve every compute statement in a problem file.

Exit codes: 0 on success, 1 for input diagnostics (unreadable or
malformed files, chain validation failures), 2 for solver failures (no
applicable kernel, unsatisfiable single-factor chains, a number with more
digits than Python writes out, oracle rejection or disagreement under
``--verify``).
Any other :class:`MatchainError` ends the same way, reported without a
traceback: with 1 while the inputs are read, with 2 while a statement is
compiled.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from math import inf

from .codegen import emit_records, emit_text, write_number
from .errors import MatchainError
from .expr import check_target, load_problem, validate
from .kernels import cost_value, default_db, load_kernel_config, metric_by_name, unit_of
from .solver import naive_cost, solve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchain",
        description="Map matrix product chains onto cost-optimal kernel calls.",
    )
    parser.add_argument("problem", help="problem file with declarations and compute statements")
    parser.add_argument(
        "--metric",
        choices=("flops", "memory"),
        default="flops",
        help="additive cost metric (default: flops)",
    )
    parser.add_argument(
        "--kernels",
        metavar="FILE",
        help="kernel config file overriding/extending the built-in database",
    )
    parser.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="also report the strict left-to-right cost and the ratio",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check each plan against the brute-force oracle (small chains only)",
    )
    return parser


def _fail(message: str) -> None:
    print(f"matchain: {message}", file=sys.stderr)


def _read(path: str) -> str | None:
    """The text of ``path``, read as UTF-8 with any byte-order mark
    dropped, or None once the reason it cannot be read is reported."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        _fail(str(exc))
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not UTF-8 text ({exc})")
    return None


def _naive_line(naive: float | int, plan, records: bool) -> str:
    """The ``--naive`` annotation: the left-to-right cost and its ratio to
    the plan's, the exact quotient of the two as ``cost_value`` reports it."""
    if not plan.total_cost:
        # A zero-cost plan (a copy) is as good as a zero-cost naive one.
        ratio = 1.0 if naive == 0 else inf
    else:
        (a, b), (c, d) = naive.as_integer_ratio(), plan.total_cost.as_integer_ratio()
        ratio = cost_value(a * d, b * c)
    if records:
        naive_text = write_number(naive, "the naive total")
        return f"naive total={naive_text} ratio={write_number(ratio, 'the naive ratio')}"
    naive_text = write_number(int(naive), "the naive total")
    if type(ratio) is float:
        ratio_text = f"{ratio:g}"
    else:  # too large for a float
        ratio_text = write_number(ratio, "the naive ratio")
    return f"# naive_{plan.metric_name}={naive_text} ratio={ratio_text}"


def _verify_line(chain, db, metric, plan, records: bool) -> tuple[bool, str]:
    """Whether the brute-force oracle's minimum equals the plan's total,
    compared exactly in the database's units, and the ``--verify``
    annotation that says so. Loads the oracle."""
    from . import oracle

    if len(chain.factors) > oracle.MAX_FACTORS:
        raise MatchainError(
            f"--verify supports at most {oracle.MAX_FACTORS} factors, "
            f"got {len(chain.factors)}"
        )
    if db is None:
        db = default_db()
    oracle_units, _ = oracle._min_units(chain, db, metric)
    agree = plan.units == oracle_units
    oracle_min = cost_value(oracle_units, unit_of(db))
    if records:
        word = "agree" if agree else "disagree"
        shown = write_number(oracle_min, "the oracle total")
        return agree, f"verify oracle={word} oracle_total={shown}"
    if agree:
        return agree, "# oracle=agree"
    shown = write_number(int(oracle_min), "the oracle total")
    return agree, f"# oracle=disagree oracle_{plan.metric_name}={shown}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    metric = metric_by_name(args.metric)

    problem_text = _read(args.problem)
    if problem_text is None:
        return 1

    db = None
    if args.kernels:
        kernel_text = _read(args.kernels)
        if kernel_text is None:
            return 1
        try:
            db = load_kernel_config(kernel_text)
        except MatchainError as exc:
            _fail(f"{args.kernels}: {exc}")
            return 1

    try:
        problem = load_problem(problem_text)
    except MatchainError as exc:
        _fail(f"{args.problem}: {exc}")
        return 1

    bad_input = False
    targets = {op.name: op for op in problem.operands}
    for stmt in problem.computes:
        for diag in validate(stmt.chain) or check_target(stmt.chain, targets):
            _fail(f"{args.problem}: line {stmt.lineno}: {diag}")
            bad_input = True
    if bad_input:
        return 1

    failed = False
    blocks = []
    records = args.format == "records"
    for stmt in problem.computes:
        try:
            plan = solve(stmt.chain, db, metric)
            if records:
                block = [f"statement lineno={stmt.lineno} source={shlex.quote(stmt.source)}"]
                block.append(emit_records(plan).rstrip("\n"))
            else:
                block = [f"# compute {stmt.source}"]
                block.append(emit_text(plan).rstrip("\n"))
            if args.naive:
                naive = naive_cost(stmt.chain, db, metric)
                block.append(_naive_line(naive, plan, records))
            if args.verify:
                agree, line = _verify_line(stmt.chain, db, metric, plan, records)
                block.append(line)
                failed = failed or not agree
        except MatchainError as exc:
            _fail(f"{args.problem}: line {stmt.lineno}: {exc}")
            failed = True
            continue
        blocks.append("\n".join(block))

    if blocks:
        print("\n\n".join(blocks))
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
