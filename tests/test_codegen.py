"""Program emission: text listings and the records format."""

import random

import pytest

from matchain import (
    IndexDecl,
    MEMORY,
    Plan,
    Property,
    emit_records,
    emit_text,
    load_kernel_config,
    matrix,
    parse,
    parse_records,
    solve,
    vector,
)
from matchain.errors import NoKernelApplicableError, UnsatisfiableError
from matchain.kernels import KernelCall

from helpers import random_chain

P = Property


def plan_for(text, *decls, metric=None):
    chain = parse(text, decls)
    if metric is None:
        return solve(chain)
    return solve(chain, metric=metric)


class TestText:
    def test_vector_chain_listing(self):
        plan = plan_for(
            "y = M1 * M2 * x",
            matrix("M1", 100, 100),
            matrix("M2", 100, 100),
            vector("x", 100),
            vector("y", 100),
        )
        assert emit_text(plan) == (
            "T0 := gemm(M2, x)   # T0 := M2 * x flops=20000\n"
            "y := gemm(M1, T0)   # y := M1 * T0 flops=20000\n"
            "# total_flops=40000\n"
        )

    def test_solve_call_shows_inverse_math(self):
        plan = plan_for(
            "z = A^-1 * B * y",
            matrix("A", 10, 10),
            matrix("B", 10, 10),
            vector("y", 10),
            vector("z", 10),
        )
        assert emit_text(plan) == (
            "T0 := gemm(B, y)   # T0 := B * y flops=200\n"
            "z := gesv(A, T0)   # z := A^-1 * T0 flops=866\n"
            "# total_flops=1066\n"
        )

    def test_cost_display_floors(self):
        plan = plan_for(
            "C = L1 * L2",
            matrix("L1", 100, 100, {P.LOWER_TRIANGULAR}),
            matrix("L2", 100, 100, {P.LOWER_TRIANGULAR}),
            matrix("C", 100, 100),
        )
        assert emit_text(plan) == (
            "C := trtrmm(L1, L2)   # C := L1 * L2 flops=333333\n"
            "# total_flops=333333\n"
        )

    def test_hoisted_call_precedes_loop(self):
        i = IndexDecl("i", 8)
        plan = plan_for(
            "G[i] = A * B * c[i]",
            i,
            matrix("A", 5, 5),
            matrix("B", 5, 5),
            vector("c", 5, indices=(i,)),
            vector("G", 5, indices=(i,)),
        )
        assert emit_text(plan) == (
            "T0 := gemm(A, B)   # T0 := A * B flops=250\n"
            "for i in 1..8:\n"
            "    G[i] := gemm(T0, c[i])   # G[i] := T0 * c[i] flops=50\n"
            "# total_flops=650\n"
        )

    def test_nested_loops_indent(self):
        i = IndexDecl("i", 3)
        j = IndexDecl("j", 5)
        plan = plan_for(
            "H[i,j] = a[i]^T * B * c[j]",
            i,
            j,
            vector("a", 10, indices=(i,)),
            matrix("B", 10, 10),
            vector("c", 10, indices=(j,)),
            matrix("H", 1, 1, indices=(i, j)),
        )
        assert emit_text(plan) == (
            "for i in 1..3:\n"
            "    T0[i] := gemm(a[i], B)   # T0[i] := a[i]^T * B flops=200\n"
            "for i in 1..3:\n"
            "    for j in 1..5:\n"
            "        H[i,j] := gemm(T0[i], c[j])   # H[i,j] := T0[i] * c[j] flops=20\n"
            "# total_flops=900\n"
        )

    def test_consecutive_calls_share_loop_header(self):
        i = IndexDecl("i", 4)
        plan = plan_for(
            "Y[i] = X[i]^-T",
            i,
            matrix("X", 6, 6, indices=(i,)),
            matrix("Y", 6, 6, indices=(i,)),
        )
        assert emit_text(plan) == (
            "for i in 1..4:\n"
            "    T0[i] := getri(X[i])   # T0[i] := X[i]^-1 flops=432\n"
            "    Y[i] := transp(T0[i])   # Y[i] := T0[i]^T flops=36\n"
            "# total_flops=1872\n"
        )

    def test_memory_metric_label(self):
        plan = plan_for(
            "B = A", matrix("A", 4, 4), matrix("B", 4, 4), metric=MEMORY
        )
        text = emit_text(plan)
        assert "memory=16" in text
        assert text.endswith("# total_memory=16\n")


class TestRecords:
    def test_summary_line_fields(self):
        plan = plan_for(
            "D = A * B * C",
            matrix("A", 10, 100),
            matrix("B", 100, 5),
            matrix("C", 5, 50),
            matrix("D", 10, 50),
        )
        lines = emit_records(plan).splitlines()
        assert lines[-1] == (
            "summary target=D metric=flops total=15000.0 parens='((0 1) 2)'"
        )
        assert lines[0].startswith("call kernel=gemm in1=A in2=B out=T0 ")

    def test_loops_and_mult_only_when_present(self):
        i = IndexDecl("i", 8)
        plan = plan_for(
            "G[i] = A * B * c[i]",
            i,
            matrix("A", 5, 5),
            matrix("B", 5, 5),
            vector("c", 5, indices=(i,)),
            vector("G", 5, indices=(i,)),
        )
        first, second, summary = emit_records(plan).splitlines()
        assert "loops=" not in first and "mult=" not in first
        assert "loops=i:8" in second and "mult=8" in second
        assert summary.startswith("summary target='G[i]' ")

    def test_quoting_survives_shlex(self):
        i = IndexDecl("i", 3)
        j = IndexDecl("j", 5)
        plan = plan_for(
            "H[i,j] = a[i]^T * B * c[j]",
            i,
            j,
            vector("a", 10, indices=(i,)),
            matrix("B", 10, 10),
            vector("c", 10, indices=(j,)),
            matrix("H", 1, 1, indices=(i, j)),
        )
        text = emit_records(plan)
        assert "math='H[i,j] := T0[i] * c[j]'" in text
        assert "loops=i:3,j:5" in text
        assert parse_records(text) == plan

    def test_configured_kernel_id_is_quoted(self):
        # A configured id may hold a character the record line must quote.
        db = load_kernel_config("kernel g'mm arity=2 tags=id,t;id,t req=; cost=m*k*n")
        chain = parse("C = A * B", [matrix(x, 4, 4) for x in "ABC"])
        plan = solve(chain, db)
        assert [c.kernel_id for c in plan.calls] == ["g'mm"]
        text = emit_records(plan)
        assert text.startswith("call kernel='g'\"'\"'mm' ")
        assert parse_records(text) == plan

    def test_round_trip_exact(self):
        rng = random.Random(67)
        pool = (IndexDecl("i", 6), IndexDecl("j", 3))
        done = 0
        for _ in range(80):
            chain = random_chain(rng, index_pool=pool if done % 3 == 0 else ())
            try:
                plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            assert parse_records(emit_records(plan)) == plan
            done += 1
        assert done > 40

    def test_round_trip_preserves_fractional_cost(self):
        plan = plan_for(
            "C = L1 * L2",
            matrix("L1", 100, 100, {P.LOWER_TRIANGULAR}),
            matrix("L2", 100, 100, {P.LOWER_TRIANGULAR}),
            matrix("C", 100, 100),
        )
        back = parse_records(emit_records(plan))
        assert back.total_cost == plan.total_cost == pytest.approx(100 ** 3 / 3)

    def test_round_trip_beyond_float_range(self):
        # Costs too large for a float are exact ints, written in full.
        big = 10 ** 200
        plan = plan_for(
            "y = A * B * x",
            matrix("A", big, big),
            matrix("B", big, big),
            vector("x", big),
            vector("y", big),
        )
        assert plan.total_cost == 4 * big ** 2
        assert all(type(call.cost) is int for call in plan.calls)
        text = emit_records(plan)
        assert f" cost={2 * big ** 2} " in text and f" total={4 * big ** 2} " in text
        back = parse_records(text)
        assert back == plan
        assert type(back.total_cost) is int and emit_records(back) == text

    def test_unknown_record_kinds_skipped(self):
        plan = plan_for("B = A", matrix("A", 2, 2), matrix("B", 2, 2))
        text = (
            "statement lineno=3 source='B = A'\n"
            + emit_records(plan)
            + "naive total=0.0 ratio=1\n"
            "verify oracle=agree\n"
        )
        assert parse_records(text) == plan

    @pytest.mark.parametrize(
        "text, message",
        [
            ("summary target=x", "summary record lacks 'metric', 'total', 'parens'"),
            ("call kernel=gemm", "call record lacks 'out', 'cost', 'math'"),
            (
                "summary target=x metric=flops total=1.0 parens='(0'",
                "malformed parenthesization '\\(0'",
            ),
            ("summary target=x metric=flops total=1.0 parens=", "malformed"),
            ("summary target=x metric=flops total=one parens=0", "could not convert"),
            ("call kernel=copy in1=A out=B cost=0.0 math=B loops=i:0", "range >= 1"),
            ("call kernel=copy in1=A out=B cost=nan math=B", "'nan' is not a number"),
            ("summary target=x metric=flops total=-inf parens=0", "'-inf' is not a number"),
            ("call kernel=copy in1=A out=B cost=1_000 math=B", "'1_000' is not a number"),
            ("call kernel=copy in1=A out=B cost=0100 math=B", "'0100' is not a number"),
            ("summary target=x metric=flops total=1e3 parens=0", "'1e3' is not a number"),
            ("call kernel=copy in1=A out=B cost=0.0 math=B mult=-3", "multiplicity -3 is not"),
            ("call kernel=copy in1=A out=B cost=0.0 math=B mult=0", "multiplicity 0 is not"),
            (
                "call kernel=copy in1=A[i] out=B[i] cost=0.0 math=B loops=i:3 mult=7",
                "multiplicity 7 is not the product of the call's loop ranges",
            ),
            ("call kernel=copy in1=A[i] out=B[i] cost=0.0 math=B loops=i:3", "multiplicity 1"),
            ("call kernel=copy in1=A[i] out=B[i] cost=0.0 math=B loops=i:03", "'i:03' has no"),
            ("call kernel=copy in1=A[i] out=B[i] cost=0.0 math=B loops=i:+3", "'i:\\+3' has no"),
            ("call kernel=copy in1=A[i] out=B[i] cost=0.0 math=B loops=", "'' has no"),
            (
                "call kernel=copy in1=A[i] out=B[i] cost=0.0 math=B loops=i:3,i:3 mult=9",
                "loop index 'i' appears twice",
            ),
            ("summary target=x metric=bogus total=1.0 parens=0", "unknown metric 'bogus'"),
            (
                "call kernel=copy in1=A out=B cost=0.0 cost=5.0 math=B",
                "call record repeats field 'cost'",
            ),
        ],
    )
    def test_malformed_stream_raises_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_records(text + "\n")

    def test_emission_deterministic(self):
        rng1 = random.Random(71)
        rng2 = random.Random(71)
        for _ in range(40):
            c1 = random_chain(rng1)
            c2 = random_chain(rng2)
            try:
                p1 = solve(c1)
                p2 = solve(c2)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            assert emit_records(p1) == emit_records(p2)
            assert emit_text(p1) == emit_text(p2)


class TestConsistency:
    def test_footer_total_matches_call_sum(self):
        rng = random.Random(73)
        for _ in range(60):
            chain = random_chain(rng)
            try:
                plan = solve(chain)
            except (NoKernelApplicableError, UnsatisfiableError):
                continue
            footer = emit_text(plan).rstrip("\n").splitlines()[-1]
            shown = int(footer.split("=")[1])
            recomputed = sum(c.cost * c.multiplicity for c in plan.calls)
            assert shown == int(plan.total_cost)
            assert plan.total_cost == pytest.approx(recomputed)

    def test_parse_records_rebuilds_calls(self):
        plan = plan_for(
            "y = M1 * M2 * x",
            matrix("M1", 100, 100),
            matrix("M2", 100, 100),
            vector("x", 100),
            vector("y", 100),
        )
        back = parse_records(emit_records(plan))
        assert isinstance(back, Plan)
        assert all(isinstance(c, KernelCall) for c in back.calls)
        assert back.parenthesization == (0, (1, 2))
        assert back.calls[0].inputs == ("M2", "x")
