"""Spans around the calls into matchain's layers, recorded from outside.

The tracer wraps a function at the module attribute its caller looks it
up through (``matchain.solver.find_sequence`` is what ``build_tables``
calls), so the program itself is unchanged. Each span records its name,
start, end, parent span and statement id. Spans stay in memory and are
written out as gzipped JSON when the run ends. Self time is a span's
duration minus the time its child spans cover.

A hook whose module or attribute no longer exists is reported as
absent; the run goes on without it.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

#: Hooks: (module, attribute, span name). Order is install order.
DP_HOOKS = (
    ("matchain.solver", "validate", "expr.validate"),
    ("matchain.solver", "build_tables", "solver.build_tables"),
    ("matchain.solver", "_extract", "solver.extract"),
    ("matchain.solver", "find_sequence", "sequence.find_sequence"),
    ("matchain.sequence", "match", "kernels.match"),
    ("matchain.kernels", "infer_properties", "properties.infer_properties"),
)
CLI_HOOKS = (
    ("matchain.cli", "load_problem", "expr.load_problem"),
    ("matchain.cli", "validate", "expr.validate"),
    ("matchain.cli", "solve", "solver.solve"),
    ("matchain.cli", "emit_records", "codegen.emit_records"),
) + DP_HOOKS


class Tracer:
    """In-memory span recorder with per-name call, time and self-time sums."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_stmt = array("i")
        self._stack: list[int] = []
        self._cover: list[float] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.stmt = -1
        self._stmt_of: dict[int, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.origin = perf_counter()

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_stmt.append(self.stmt)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._cover.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        covered = self._cover.pop()
        dur = end - self.span_start[idx]
        if self._cover:
            self._cover[-1] += dur
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_s[nid] += dur - covered

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str):
        """Context manager for a span around the benchmark's own call."""
        return _Span(self, self.name_id(name))

    # -- hooks -------------------------------------------------------------

    def install(self, hooks) -> None:
        for module_name, attr, span_name in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span_name)
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, original, span_name):
        nid = self.name_id(span_name)
        open_, close = self.open, self.close
        after = _AFTER.get(span_name)
        if span_name == "solver.build_tables":
            return self._wrap_build_tables(original, nid)
        if span_name == "solver.extract":
            return self._wrap_outermost(original, nid)

        sets_stmt = span_name == "solver.solve"
        counts_no_route = span_name == "sequence.find_sequence"

        def wrapper(*args, **kwargs):
            if sets_stmt and args:
                self.stmt = self._stmt_of.get(id(args[0]), -1)
            idx = open_(nid)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if counts_no_route and type(exc).__name__ == "NoKernelApplicableError":
                    self.count("sequence.no_route")
                raise
            close(idx)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _wrap_build_tables(self, original, nid):
        """Times the DP fill and counts memo entries (distinct misses)."""
        takes_memo = "memo" in inspect.signature(original).parameters
        if not takes_memo:
            self.absent.append("matchain.solver.build_tables(memo=)")

        def wrapper(*args, **kwargs):
            memo = None
            if takes_memo and len(args) < 4 and kwargs.get("memo") is None:
                memo = kwargs["memo"] = {}
            idx = self.open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(idx)
                if memo is not None:
                    self.count("sequence.memo.misses", len(memo))

        return wrapper

    def _wrap_outermost(self, original, nid):
        """For a recursive function: one span per outermost call."""
        depth = [0]

        def wrapper(*args, **kwargs):
            depth[0] += 1
            idx = self.open(nid) if depth[0] == 1 else None
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
                if idx is not None:
                    self.close(idx)

        return wrapper

    # -- results -----------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of spans named ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_s[nid]

    def parent_counts(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(
            1
            for idx in range(len(names))
            if names[idx] == cid and parents[idx] >= 0 and names[parents[idx]] == pid
        )

    def summary(self) -> dict:
        layers = {
            name: {"calls": c, "s": t, "self_s": s}
            for name, c, t, s in zip(self.names, self.calls, self.total, self.self_s)
        }
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "splits": self.parent_counts(
                "sequence.find_sequence", "solver.build_tables"
            ),
            "spans": len(self.span_name),
        }

    def write(self, path, extra=None) -> None:
        """Write the summary and every span (times in microseconds) as
        gzipped JSON; a DP pass leaves millions of spans."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            head = dict(self.summary(), names=self.names, **(extra or {}))
            out.write(json.dumps(head)[:-1])
            out.write(', "span_columns": ["name", "start_us", "end_us", "parent", "stmt"]')
            out.write(', "span_rows": [\n')
            origin = self.origin
            for idx in range(len(self.span_name)):
                if idx:
                    out.write(",\n")
                out.write(
                    "[%d,%d,%d,%d,%d]"
                    % (
                        self.span_name[idx],
                        (self.span_start[idx] - origin) * 1e6,
                        (self.span_end[idx] - origin) * 1e6,
                        self.span_parent[idx],
                        self.span_stmt[idx],
                    )
                )
            out.write("\n]}\n")


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _after_match(tracer: Tracer, result) -> None:
    if not result:
        tracer.count("kernels.match.empty")


def _after_load_problem(tracer: Tracer, problem) -> None:
    computes = getattr(problem, "computes", ())
    tracer.count("expr.load_problem.stmts", len(computes))
    for stmt in computes:
        tracer._stmt_of[id(stmt.chain)] = stmt.lineno


_AFTER = {
    "kernels.match": _after_match,
    "expr.load_problem": _after_load_problem,
}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values from one or more merged tracer summaries."""
    layers, counts = summary["layers"], summary["counts"]

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    calls = get("sequence.find_sequence", "calls")
    misses = counts.get("sequence.memo.misses", 0)
    no_route = counts.get("sequence.no_route", 0)
    hits = max(calls - misses - no_route, 0)
    return {
        "expr.load_problem.s": get("expr.load_problem", "s"),
        "expr.load_problem.stmts": counts.get("expr.load_problem.stmts", 0),
        "expr.validate.s": get("expr.validate", "s"),
        "solver.solve.s": get("solver.solve", "s"),
        "solver.build_tables.s": get("solver.build_tables", "s"),
        "solver.build_tables.self_s": get("solver.build_tables", "self_s"),
        "solver.build_tables.splits": summary["splits"],
        "solver.extract.s": get("solver.extract", "s"),
        "sequence.find_sequence.calls": calls,
        "sequence.find_sequence.s": get("sequence.find_sequence", "s"),
        "sequence.find_sequence.self_s": get("sequence.find_sequence", "self_s"),
        "sequence.memo.hits": hits,
        "sequence.memo.misses": misses,
        "sequence.memo.hit_ratio": hits / calls if calls else 0.0,
        "sequence.no_route": no_route,
        "kernels.match.calls": get("kernels.match", "calls"),
        "kernels.match.s": get("kernels.match", "s"),
        "kernels.match.empty": counts.get("kernels.match.empty", 0),
        "properties.infer_properties.calls": get("properties.infer_properties", "calls"),
        "properties.infer_properties.s": get("properties.infer_properties", "s"),
        "codegen.emit_records.s": get("codegen.emit_records", "s"),
        "cli.main.s": get("cli.main", "s"),
    }


def merge(summaries) -> dict:
    """Sum tracer summaries, e.g. one per traced CLI process."""
    out = {"layers": {}, "counts": {}, "absent": [], "splits": 0, "spans": 0}
    for summ in summaries:
        for name, rec in summ["layers"].items():
            acc = out["layers"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += rec[field]
        for key, n in summ["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + n
        out["absent"] = sorted(set(out["absent"]) | set(summ["absent"]))
        out["splits"] += summ["splits"]
        out["spans"] += summ["spans"]
    return out


def read_trace(path) -> dict:
    """Load a file written by :meth:`Tracer.write`."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)
