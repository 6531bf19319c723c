"""Command-line driver: solve every compute statement in a problem file.

Exit codes: 0 on success, 1 for input diagnostics (unreadable or
malformed files, chain validation failures), 2 for solver failures (no
applicable kernel, unsatisfiable single-factor chains, a kernel cost too
large for a float, oracle rejection or disagreement under ``--verify``).
Any other :class:`MatchainError` ends the same way, reported without a
traceback: with 1 while the inputs are read, with 2 while a statement is
compiled.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from math import inf

from .codegen import emit_records, emit_text
from .errors import CostOverflowError, MatchainError
from .expr import check_target, load_problem, validate
from .kernels import load_kernel_config, metric_by_name
from .oracle import MAX_FACTORS, brute_force_min
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
        help=f"check each plan against the brute-force oracle (max {MAX_FACTORS} factors)",
    )
    return parser


def _fail(message: str) -> None:
    print(f"matchain: {message}", file=sys.stderr)


def _read(path: str) -> str | None:
    """The text of ``path``, or None once the reason it cannot be read is
    reported."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        _fail(str(exc))
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not UTF-8 text ({exc})")
    return None


def _naive(chain, db, metric) -> float:
    """The left-to-right cost, ``inf`` when some call or the total leaves
    the float range. Left-to-right order can also hit a database gap the
    DP avoids, which raises."""
    try:
        return naive_cost(chain, db, metric)
    except CostOverflowError:
        return inf


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
            naive = _naive(stmt.chain, db, metric) if args.naive else None
            if records:
                block = [f"statement lineno={stmt.lineno} source={shlex.quote(stmt.source)}"]
                block.append(emit_records(plan).rstrip("\n"))
            else:
                block = [f"# compute {stmt.source}"]
                block.append(emit_text(plan).rstrip("\n"))
        except MatchainError as exc:
            _fail(f"{args.problem}: line {stmt.lineno}: {exc}")
            failed = True
            continue

        if args.naive:
            if plan.total_cost:
                ratio = naive / plan.total_cost
            else:
                # A zero-cost plan (a copy) is as good as a zero-cost naive one.
                ratio = 1.0 if naive == 0 else float("inf")
            if records:
                block.append(f"naive total={naive!r} ratio={ratio!r}")
            else:
                shown = int(naive) if naive < inf else "inf"
                block.append(f"# naive_{plan.metric_name}={shown} ratio={ratio:g}")
        if args.verify:
            if len(stmt.chain.factors) > MAX_FACTORS:
                _fail(
                    f"{args.problem}: line {stmt.lineno}: --verify supports at "
                    f"most {MAX_FACTORS} factors, got {len(stmt.chain.factors)}"
                )
                failed = True
                continue
            oracle_min, _ = brute_force_min(stmt.chain, db, metric)
            tolerance = 1e-9 * max(1.0, abs(oracle_min))
            agree = abs(plan.total_cost - oracle_min) <= tolerance
            if records:
                word = "agree" if agree else "disagree"
                block.append(f"verify oracle={word} oracle_total={oracle_min!r}")
            elif agree:
                block.append("# oracle=agree")
            else:
                block.append(
                    f"# oracle=disagree oracle_{plan.metric_name}={int(oracle_min)}"
                )
            if not agree:
                failed = True
        blocks.append("\n".join(block))

    if blocks:
        print("\n\n".join(blocks))
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
