"""Small-size self-test of the benchmark; runs in seconds.

    python3 -m pytest perfbench -q

Each workload runs here on a few short inputs through the same code the
benchmark uses, traced and untraced, and the references are shown to
reject a wrong plan.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import matchain as mc  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import layer_metrics, merge, read_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
SMALL = {"dp_mixed": (10, 14), "dp_plain": (12, 20)}
PROBLEM = {"dp_mixed": gen.mixed_problem, "dp_plain": gen.plain_problem}


def small_chains(workload, seed=3):
    text = PROBLEM[workload](seed, SMALL[workload])
    return [stmt.chain for stmt in mc.load_problem(text).computes]


def test_inputs_follow_the_seed():
    for make in (gen.mixed_problem, gen.plain_problem):
        assert make(5) == make(5)
        assert make(5) != make(6)
    assert gen.cli_files(5) == gen.cli_files(5)


def test_inputs_are_valid_with_the_promised_shapes():
    for workload in SMALL:
        for chain in small_chains(workload):
            assert mc.validate(chain) == []
    plain = small_chains("dp_plain")
    assert all(f.tag is mc.UnaryTag.ID for c in plain for f in c.factors)
    problem = mc.load_problem(gen.cli_problem(random.Random(0), 16))
    shapes = [stmt.source for stmt in problem.computes]
    assert any("[i] = " in s and s.endswith("_B^-1") for s in shapes)


def test_textbook_dp_on_the_classic_example():
    # CLRS 15.2: 15125 scalar multiplications, two flops each.
    assert check.textbook_cost([30, 35, 15, 5, 10, 20, 25]) == 2 * 15125


def test_pacing_cancels_host_speed():
    ref = pace.REF_S
    # A host at half speed doubles the operation and the references alike.
    assert pace.paced([0.4, 0.8], [2 * ref] * 3) == pytest.approx([0.2, 0.4])
    # Only the references near an operation scale it.
    out = pace.paced([0.2] * 15, [ref] * 8 + [2 * ref] * 8)
    assert out[0] == pytest.approx(0.2) and out[-1] == pytest.approx(0.1)
    assert 0 < pace.reference() < 1


def test_dp_workloads_timed_and_checked():
    for workload in SMALL:
        chains = small_chains(workload)
        res, plans, errors = worker.timed(mc, chains, 0.05)
        assert res["latencies"] and res["rss_mb"] > 0
        assert len(res["refs"]) == len(res["latencies"]) + 1
        assert worker.check_chains(workload, 3, mc, chains, plans, errors) == {}


def test_references_reject_a_wrong_plan():
    chains = small_chains("dp_plain")
    plan = mc.solve(chains[0])
    wrong = replace(plan, total_cost=plan.total_cost * 2)
    assert check.plan_problems(wrong, mc)
    bad = worker.check_chains("dp_plain", 3, mc, chains[:1], {0: wrong}, {0: None})
    assert 0 in bad
    sub = check.subchains(small_chains("dp_mixed")[0], 3, 0)[0]
    assert check.oracle_problem(sub, mc.solve(sub).total_cost + 1, mc, mc.FLOPS)


def test_traced_run_is_deterministic_and_complete():
    for workload in SMALL:
        chains = small_chains(workload)
        runs = [worker.traced(mc, chains, 0) for _ in range(2)]
        counts = []
        for tracer, results, overhead, mismatch, solves in runs:
            assert mismatch == 0 and solves == [2] * len(chains) and overhead > 0
            summary = tracer.summary()
            assert summary["absent"] == []
            metrics = layer_metrics(summary)
            assert metrics["sequence.find_sequence.calls"] > 0
            counts.append(
                (
                    summary["splits"],
                    metrics["sequence.memo.misses"],
                    metrics["kernels.match.calls"],
                    [plan.total_cost for plan, _ in results],
                )
            )
        assert counts[0] == counts[1]


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(mc.solver, "_extract")
    monkeypatch.setattr(worker, "solve_one", lambda mc_, chain: (None, "skipped"))
    tracer, *_ = worker.traced(mc, small_chains("dp_plain"), 0)
    assert tracer.summary()["absent"] == ["matchain.solver._extract"]


def test_cli_workload_traced_and_checked(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    rng = random.Random(1)
    files = []
    for at, (n, metric) in enumerate(((3, "flops"), (9, "memory"))):
        path = tmp_path / f"f{at}.mc"
        text = gen.cli_problem(rng, n)
        path.write_text(text)
        files.append((path, metric, text))
    plain = run._cli_pass(files)
    traced = run._cli_pass(files, tmp_path)
    assert [r[2] for r in plain] == [r[2] for r in traced]
    bad, totals = run._check_cli(files, plain)
    assert bad == {} and len(totals) == 12
    heads = [read_trace(tmp_path / f"{at}.json.gz") for at in range(2)]
    metrics = layer_metrics(merge(heads))
    assert metrics["cli.main.s"] > 0 and metrics["expr.load_problem.stmts"] == 12
    assert PER_LAYER - set(metrics) == {"import.s", "import.numpy_loaded", "trace.overhead"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "dp_plain", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
