"""Command-line driver: exit codes, output formats, determinism."""

import dataclasses
import subprocess
import sys

import pytest

from matchain import cli, parse_records
from matchain.cli import main

from helpers import child_env

VECTOR_CHAIN = """\
# vector chain
matrix M1 100 100
matrix M2 100 100
vector x 100
vector y 100
compute y = M1 * M2 * x
"""

INDEXED = """\
index i 8
matrix A 5 5
matrix B 5 5
vector c 5 indices=i
vector G 5 indices=i
compute G[i] = A * B * c[i]
"""

TRIANGULAR = """\
matrix L1 100 100 lower_triangular
matrix L2 100 100 lower_triangular
matrix C 100 100
compute C = L1 * L2
"""


def run(tmp_path, capsys, text, *args):
    problem = tmp_path / "problem.mc"
    problem.write_text(text)
    code = main([str(problem), *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextOutput:
    def test_basic_listing(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN)
        assert code == 0
        assert err == ""
        assert out == (
            "# compute y = M1 * M2 * x\n"
            "T0 := gemm(M2, x)   # T0 := M2 * x flops=20000\n"
            "y := gemm(M1, T0)   # y := M1 * T0 flops=20000\n"
            "# total_flops=40000\n"
        )

    def test_naive_and_verify_annotations(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--naive", "--verify")
        assert code == 0
        assert out.endswith(
            "# total_flops=40000\n"
            "# naive_flops=2020000 ratio=50.5\n"
            "# oracle=agree\n"
        )

    def test_indexed_loops_rendered(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, INDEXED)
        assert code == 0
        assert out == (
            "# compute G[i] = A * B * c[i]\n"
            "T0 := gemm(A, B)   # T0 := A * B flops=250\n"
            "for i in 1..8:\n"
            "    G[i] := gemm(T0, c[i])   # G[i] := T0 * c[i] flops=50\n"
            "# total_flops=650\n"
        )

    def test_multiple_statements_blank_line_separated(self, tmp_path, capsys):
        text = INDEXED + "compute G[i] = A * B * c[i]\n"
        code, out, err = run(tmp_path, capsys, text)
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith("# compute")
        assert blocks[1].startswith("# compute")

    def test_memory_metric(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--metric", "memory")
        assert code == 0
        assert "# total_memory=200" in out

    def test_triangular_uses_specialized_kernel(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, TRIANGULAR)
        assert code == 0
        assert "trtrmm" in out
        assert "# total_flops=333333\n" in out


    def test_naive_ratio_of_zero_cost_plan_is_one(self, tmp_path, capsys):
        text = "matrix A 4 4\nmatrix C 4 4\ncompute C = A\n"
        code, out, err = run(tmp_path, capsys, text, "--naive")
        assert code == 0
        assert out.endswith("# total_flops=0\n# naive_flops=0 ratio=1\n")
        code, out, err = run(tmp_path, capsys, text, "--naive", "--format", "records")
        assert code == 0
        assert out.endswith("\nnaive total=0.0 ratio=1.0\n")


class TestRecordsOutput:
    def test_records_parse_back(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--format", "records")
        assert code == 0
        plan = parse_records(out)
        assert plan.total_cost == 40_000
        assert plan.parenthesization == (0, (1, 2))

    def test_statement_and_annotations_present(self, tmp_path, capsys):
        code, out, err = run(
            tmp_path, capsys, VECTOR_CHAIN,
            "--format", "records", "--naive", "--verify",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "statement lineno=6 source='y = M1 * M2 * x'"
        assert lines[3] == (
            "summary target=y metric=flops total=40000.0 parens='(0 (1 2))'"
        )
        assert lines[4] == "naive total=2020000.0 ratio=50.5"
        assert lines[5] == "verify oracle=agree oracle_total=40000.0"

    def test_runs_bit_identical(self, tmp_path, capsys):
        code1, out1, _ = run(tmp_path, capsys, INDEXED, "--format", "records")
        code2, out2, _ = run(tmp_path, capsys, INDEXED, "--format", "records")
        assert code1 == code2 == 0
        assert out1 == out2


    def test_output_independent_of_hash_seed(self, tmp_path):
        # Tags and properties hash by identity, strings by the seed; set
        # and dict order must reach neither the plan nor its rendering.
        problem = tmp_path / "problem.mc"
        problem.write_text(
            "index i 3\nindex j 4\n"
            "matrix A 6 6 lower_triangular nonsingular indices=i\n"
            "matrix B 6 6 spd\nmatrix C 6 4 upper_triangular indices=j\n"
            "matrix D 6 6 orthogonal\nvector x 4 indices=i\n"
            "vector y 6 indices=i,j\nmatrix W 6 6 indices=i\nmatrix Z 6 6\n"
            "compute y[i,j] = A[i]^-1 * B^-1 * C[j] * x[i]\n"
            "compute W[i] = D^T * B^-T * A[i]^T\n"
            "compute Z = B^-1\n"
        )
        outs = set()
        for seed in ("0", "1", "2"):
            result = subprocess.run(
                [sys.executable, "-m", "matchain", str(problem), "--format",
                 "records", "--naive"],
                capture_output=True,
                text=True,
                env=child_env(PYTHONHASHSEED=seed),
            )
            assert result.returncode == 0, result.stderr
            outs.add(result.stdout)
        assert len(outs) == 1


class TestKernelConfig:
    def test_override_changes_selection(self, tmp_path, capsys):
        kernels = tmp_path / "kernels.cfg"
        kernels.write_text(
            "kernel sqmm arity=2 tags=id;id req=square;square cost=m*m*n\n"
        )
        code, out, err = run(
            tmp_path, capsys, VECTOR_CHAIN, "--kernels", str(kernels)
        )
        assert code == 0
        # sqmm halves the square multiply cost but the vector steps keep gemm.
        assert "gemm" in out

    def test_config_error_exits_one(self, tmp_path, capsys):
        kernels = tmp_path / "kernels.cfg"
        kernels.write_text("kernel bad arity=1 tags=id req= cost=m**2\n")
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--kernels", str(kernels))
        assert code == 1
        assert out == ""
        assert "line 1" in err


    @pytest.mark.parametrize("tags", ["id,t", "id,inv", "id,invt"])
    def test_unary_kernel_mixing_id_with_a_peel_exits_one(self, tmp_path, capsys, tags):
        kernels = tmp_path / "kernels.cfg"
        kernels.write_text(
            "kernel tmm arity=2 tags=t;id req=; cost=1+0*m\n"
            f"kernel mixed arity=1 tags={tags} req=square cost=0*m\n"
        )
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--kernels", str(kernels))
        assert code == 1
        assert out == ""
        assert "line 2" in err and "tags=id alone" in err

    def test_cost_that_divides_by_zero_exits_one(self, tmp_path, capsys):
        kernels = tmp_path / "kernels.cfg"
        kernels.write_text("# fused\nkernel gemm arity=2 tags=id,t;id,t req=; cost=m/0\n")
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--kernels", str(kernels))
        assert code == 1
        assert out == ""
        assert "line 2" in err and "a divisor must be a positive integer literal" in err


class TestFailureModes:
    def test_missing_file(self, capsys):
        code = main(["/nonexistent/problem.mc"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("matchain: ")

    @pytest.mark.parametrize("which", ["problem", "kernels"])
    def test_file_not_utf8(self, tmp_path, capsys, which):
        problem, kernels = tmp_path / "problem.mc", tmp_path / "kernels.cfg"
        problem.write_text(VECTOR_CHAIN)
        kernels.write_text("")
        bad = problem if which == "problem" else kernels
        bad.write_bytes(b"matrix A 2 2 \xff\n")
        code = main([str(problem), "--kernels", str(kernels)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"matchain: {bad}: not UTF-8 text")

    @pytest.mark.parametrize("which", ["problem", "kernels"])
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, which):
        # Some editors start a UTF-8 file with a byte-order mark. The file
        # plans as the same file without one.
        texts = {
            "problem": "matrix A 8 8\nmatrix B 8 8\nmatrix C 8 8\ncompute C = A * B\n",
            "kernels": "kernel fastmm arity=2 tags=id;id req=; cost=m*n\n",
        }
        paths = {kind: tmp_path / f"{kind}.txt" for kind in texts}
        outputs = []
        for bom in ("", "\ufeff"):
            for kind, text in texts.items():
                paths[kind].write_text((bom if kind == which else "") + text, encoding="utf-8")
            code = main([str(paths["problem"]), "--kernels", str(paths["kernels"])])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        code, captured = outputs[0]
        assert code == 0 and captured.err == ""
        assert "C := fastmm(A, B)" in captured.out

    def test_problem_error_line_number(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, "matrix A 4\n")
        assert code == 1
        assert "line 1" in err

    def test_declared_name_that_no_statement_can_write_exits_one(self, tmp_path, capsys):
        text = "index i 3\nmatrix A[i] 3 3\ncompute B[i] = A[i]\n"
        code, out, err = run(tmp_path, capsys, text)
        assert code == 1
        assert out == ""
        assert "line 2" in err and "'A[i]' is not an identifier" in err

    def test_paper_example_reports_parentheses(self, tmp_path, capsys):
        text = (
            "matrix A 10 4\nvector b 10\nvector x 4\n"
            "compute x = (A^T * A)^-1 * A^T * b\n"
        )
        code, out, err = run(tmp_path, capsys, text)
        assert code == 1
        assert out == ""
        assert "line 4" in err
        assert "parentheses are not part of the chain grammar" in err

    def test_diagnostics_reported_with_location(self, tmp_path, capsys):
        text = (
            "matrix A 4 5\n"
            "matrix B 6 2\n"
            "matrix C 4 2\n"
            "compute C = A * B\n"
        )
        code, out, err = run(tmp_path, capsys, text)
        assert code == 1
        assert "line 4" in err
        assert "DimensionMismatch" in err

    def test_non_square_inverse_diagnostic(self, tmp_path, capsys):
        text = (
            "matrix A 4 5\n"
            "matrix B 5 2\n"
            "matrix C 4 2\n"
            "compute C = A^-1 * B\n"
        )
        code, out, err = run(tmp_path, capsys, text)
        assert code == 1
        assert "NonSquareInverse" in err

    def test_no_kernel_exits_two(self, tmp_path, capsys):
        kernels = tmp_path / "kernels.cfg"
        # Restrict gemm to transposed inputs; plain A * B then has no
        # applicable kernel and no prep can introduce the missing tags.
        kernels.write_text("kernel gemm arity=2 tags=t;t req=; cost=2*m*k*n\n")
        text = (
            "matrix A 4 4\n"
            "matrix B 4 4\n"
            "matrix C 4 4\n"
            "compute C = A * B\n"
        )
        problem = tmp_path / "problem.mc"
        problem.write_text(text)
        code = main([str(problem), "--kernels", str(kernels)])
        captured = capsys.readouterr()
        assert code == 2
        assert "matchain: " in captured.err

    def test_naive_gap_exits_two(self, tmp_path, capsys):
        # With getri limited to SPD inputs, A * B^-1 has no route: the DP
        # computes A * (B^-1 * C), but the left-to-right order cannot.
        kernels = tmp_path / "kernels.cfg"
        kernels.write_text("kernel getri arity=1 tags=inv,invt req=spd cost=2*m*m*m\n")
        text = "".join(f"matrix {x} 4 4\n" for x in "ABCD") + "compute D = A * B^-1 * C\n"
        args = ("--kernels", str(kernels), "--naive")
        code, out, err = run(tmp_path, capsys, text, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("matchain: ") and "line 5" in err
        # The gap is named by its segment, as solve names one.
        assert "no kernel sequence covers factors 0..1 (A * B^-1)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "dim, source, kernel",
        [(10 ** 110, "C = A^-1 * B", "gesv"), (10 ** 200, "C = A * B", "gemm")],
    )
    def test_cost_beyond_float_range_exits_zero(self, tmp_path, capsys, dim, source, kernel):
        # gesv costs 8/3 dim^3 flops here and gemm 2 dim^3: exact ints,
        # written out in full and rounded down.
        total = (8 * dim ** 3 // 3) if kernel == "gesv" else 2 * dim ** 3
        text = "".join(f"matrix {x} {dim} {dim}\n" for x in "ABC")
        text += f"compute {source}\n"
        args = ("--format", "records", "--naive", "--verify")
        code, out, err = run(tmp_path, capsys, text, *args)
        assert (code, err) == (0, "")
        assert f"call kernel={kernel} " in out and f" cost={total} " in out
        assert f"summary target=C metric=flops total={total} parens='(0 1)'\n" in out
        assert f"naive total={total} ratio=1.0\nverify oracle=agree oracle_total={total}\n" in out
        code, out, err = run(tmp_path, capsys, text)
        assert (code, err) == (0, "")
        assert out.endswith(f"\n# total_flops={total}\n")

    @pytest.mark.parametrize(
        "dim, source, kernel",
        [(10 ** 1500, "C = A^-1 * B", "gesv"), (10 ** 1500, "C = A * B", "gemm")],
    )
    def test_cost_overflow_exits_two(self, tmp_path, capsys, dim, source, kernel):
        # At dims 10^1500 either call costs about 10^4500 flops, an int
        # with more digits than Python writes out.
        text = "".join(f"matrix {x} {dim} {dim}\n" for x in "ABC") + f"compute {source}\n"
        for args in ((), ("--naive",), ("--verify",), ("--format", "records")):
            code, out, err = run(tmp_path, capsys, text, *args)
            assert (code, out) == (2, "")
            assert err == (
                f"matchain: {tmp_path / 'problem.mc'}: line 4: call C := {kernel}(A, B): "
                "its cost has too many digits to write\n"
            )

    def test_overflowing_split_avoided_exits_zero(self, tmp_path, capsys):
        # (A B) c has a gemm beyond the float range; A (B c) costs 4e200.
        big = 10 ** 200
        text = (
            f"matrix A {big} 1\nmatrix B 1 {big}\nvector c {big}\nvector x {big}\n"
            "compute x = A * B * c\n"
        )
        for args in ((), ("--verify",)):
            code, out, err = run(tmp_path, capsys, text, "--format", "records", *args)
            assert code == 0
            assert err == ""
            assert "total=4e+200 parens='(0 (1 2))'" in out
        assert "verify oracle=agree oracle_total=4e+200" in out

    def test_naive_beyond_float_range_reported_exactly(self, tmp_path, capsys):
        # Left to right, (A B) c prices two gemms of 2 * 10^400 flops each;
        # the plan, A (B c), costs 4e200.
        big = 10 ** 200
        text = (
            f"matrix A {big} 1\nmatrix B 1 {big}\nvector c {big}\nvector x {big}\n"
            "compute x = A * B * c\n"
        )
        naive = 4 * 10 ** 400
        code, out, err = run(tmp_path, capsys, text, "--naive", "--format", "records")
        assert (code, err) == (0, "")
        assert f"total=4e+200 parens='(0 (1 2))'\nnaive total={naive} ratio=1e+200\n" in out
        code, out, err = run(tmp_path, capsys, text, "--naive")
        assert (code, err) == (0, "")
        assert out.endswith(f"\n# naive_flops={naive} ratio=1e+200\n")

    def test_naive_ratio_beyond_float_range_is_an_int(self, tmp_path, capsys):
        # Left to right builds a 10^400 x 10^400 outer product, at 4 * 10^800
        # flops; the plan costs 4 * 10^400, so the ratio is 10^400.
        big = 10 ** 400
        text = (
            f"matrix A {big} 1\nmatrix B 1 {big}\nvector c {big}\nvector x {big}\n"
            "compute x = A * B * c\n"
        )
        code, out, err = run(tmp_path, capsys, text, "--naive")
        assert (code, err) == (0, "")
        assert out.endswith(f"\n# naive_flops={4 * big ** 2} ratio={big}\n")
        code, out, err = run(tmp_path, capsys, text, "--naive", "--format", "records")
        assert (code, err) == (0, "")
        assert out.endswith(f"\nnaive total={4 * big ** 2} ratio={big}\n")

    def test_multiplicity_overflow_exits_two(self, tmp_path, capsys):
        # Each gemm costs 2 * 10^3600 flops, and runs 10^2000 times: the
        # total has more digits than Python writes out.
        big = 10 ** 1200
        text = (
            f"index i {10 ** 2000}\n"
            f"matrix A {big} {big} indices=i\nmatrix B {big} {big}\n"
            f"matrix C {big} {big} indices=i\ncompute C[i] = A[i] * B\n"
        )
        for args in ((), ("--naive",), ("--format", "records")):
            code, out, err = run(tmp_path, capsys, text, *args)
            assert (code, out) == (2, "")
            assert err.endswith(": line 5: the plan total has too many digits to write\n")

    def test_multiplicity_beyond_float_range_exits_zero(self, tmp_path, capsys):
        # Each gemm costs 2 * 10^300 flops, and runs 10^11 times.
        big = 10 ** 100
        text = (
            "index i 100000000000\n"
            f"matrix A {big} {big} indices=i\nmatrix B {big} {big}\n"
            f"matrix C {big} {big} indices=i\ncompute C[i] = A[i] * B\n"
        )
        code, out, err = run(tmp_path, capsys, text, "--naive")
        assert (code, err) == (0, "")
        assert out.endswith(f"\n# total_flops={2 * 10 ** 311}\n# naive_flops={2 * 10 ** 311} ratio=1\n")
        code, out, err = run(tmp_path, capsys, text, "--format", "records")
        assert (code, err) == (0, "")
        assert parse_records(out).total_cost == 2 * 10 ** 311

    def test_multiplicity_too_long_to_write_exits_two(self, tmp_path, capsys):
        # The copy costs 0 at any multiplicity, but its multiplicity, about
        # 10^5000, has more digits than Python converts to a string.
        nines = "9" * 2500
        text = (
            f"index i {nines}\nindex j {nines}\n"
            "matrix A 3 3 indices=i,j\nmatrix X 3 3 indices=i,j\n"
            "compute X[i,j] = A[i,j]\n"
            "matrix B 3 3\nmatrix C 3 3\ncompute C = B^T\n"
        )
        code, out, err = run(tmp_path, capsys, text, "--format", "records")
        assert code == 2
        assert err.startswith("matchain: ")
        assert "line 5: call X[i,j] := copy(A[i,j])" in err
        assert "Traceback" not in err
        assert "statement lineno=5" not in out
        assert "statement lineno=8" in out and "kernel=transp" in out
        code, out, err = run(tmp_path, capsys, text)
        assert (code, err) == (0, "")
        assert "X[i,j] := copy(A[i,j])" in out and "C := transp(B)" in out

    def test_multiplicity_too_long_to_write_in_overflow_error(self, tmp_path, capsys):
        nines = "9" * 2500
        text = (
            f"index i {nines}\nindex j {nines}\n"
            "matrix A 3 3 indices=i,j\nmatrix B 3 3 indices=i,j\n"
            "matrix X 3 3 indices=i,j\ncompute X[i,j] = A[i,j] * B[i,j]\n"
        )
        # The gemm runs about 10^5000 times: the text form's total, 54
        # flops charged so, and the record form's multiplicity are both too
        # long to write.
        call = "call X[i,j] := gemm(A[i,j], B[i,j])"
        for args, what in (
            ((), "the plan total"),
            (("--naive",), "the plan total"),
            (("--format", "records"), f"{call}: its index multiplicity"),
        ):
            code, out, err = run(tmp_path, capsys, text, *args)
            assert (code, out) == (2, "")
            assert err.endswith(f": line 6: {what} has too many digits to write\n")

    def test_zero_cost_beyond_float_range_exits_zero(self, tmp_path, capsys):
        big = 10 ** 160
        text = (
            f"index i {big}\nindex j {big}\n"
            "matrix C 2 2 indices=i,j\nmatrix D 2 2 indices=i,j\n"
            "compute C[i,j] = D[i,j]\n"
        )
        for args in ((), ("--naive",), ("--verify",)):
            code, out, err = run(tmp_path, capsys, text, *args)
            assert code == 0
            assert err == ""
            assert "copy(D[i,j])" in out
            assert "# total_flops=0\n" in out

    def test_zero_cost_split_beyond_float_range_exits_zero(self, tmp_path, capsys):
        # The split loop charged 0.0 * inf = nan here, and the plan failed.
        kernels = tmp_path / "kernels.cfg"
        kernels.write_text("kernel gemm arity=2 tags=id;id req=; cost=0*m\n")
        big = 10 ** 160
        text = (
            f"index i {big}\nindex j {big}\n"
            "matrix A 2 2 indices=i,j\nmatrix B 2 2 indices=i,j\n"
            "matrix C 2 2 indices=i,j\n"
            "compute C[i,j] = A[i,j] * B[i,j]\n"
        )
        for args in ((), ("--naive",), ("--verify",)):
            code, out, err = run(
                tmp_path, capsys, text, "--kernels", str(kernels), *args
            )
            assert code == 0
            assert err == ""
            assert "C[i,j] := gemm(A[i,j], B[i,j])" in out
            assert "# total_flops=0\n" in out
        assert "# oracle=agree" in out

    @pytest.mark.parametrize(
        "fmt, line",
        [
            ("text", "# oracle=disagree oracle_flops=12345"),
            ("records", "verify oracle=disagree oracle_total=12345.0"),
        ],
    )
    def test_verify_disagreement_exits_two(self, tmp_path, capsys, monkeypatch, fmt, line):
        # The only report of a solver bug: the oracle finds a different
        # minimum, here 12,345 flops in the built-ins' thirds of a flop.
        monkeypatch.setattr("matchain.oracle._min_units", lambda *args: (3 * 12345, None))
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--verify", "--format", fmt)
        assert code == 2
        assert out.rstrip("\n").endswith(line)
        assert err == ""

    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_verify_tells_apart_one_unit_beyond_a_float(self, tmp_path, capsys, monkeypatch, fmt):
        # At dims of 10^100 the plan costs 4 * 10^200 flops, 1.2 * 10^201
        # thirds of a flop, far beyond 2^53: a plan one third of a flop off
        # reports the same float total, yet the oracle's exact minimum tells
        # it apart.
        big = 10 ** 100
        text = VECTOR_CHAIN.replace("100", str(big))
        code, out, _ = run(tmp_path, capsys, text, "--verify", "--format", fmt)
        assert code == 0
        assert ("oracle=agree" in out) and ("disagree" not in out)
        solve = cli.solve

        def one_unit_off(*args):
            plan = solve(*args)
            return dataclasses.replace(plan, units=plan.units + 1)

        monkeypatch.setattr(cli, "solve", one_unit_off)
        code, out, err = run(tmp_path, capsys, text, "--verify", "--format", fmt)
        assert code == 2
        assert err == ""
        if fmt == "records":
            assert " total=4e+200 " in out
            assert out.endswith("verify oracle=disagree oracle_total=4e+200\n")
        else:
            assert f"# total_flops={int(4e200)}\n" in out
            assert out.endswith(f"# oracle=disagree oracle_flops={int(4e200)}\n")

    @pytest.mark.parametrize(
        "source, kernels, message",
        [
            ("X[i,i] = A[i]", "", "line 4: IndexMismatch: target repeats an index"),
            ("X[i = A[i]", "", "line 4: expected ',' or ']' in index list"),
            ("X[] = A[i]", "", "line 4: expected an index name"),
            (
                "X[i] = A[i]",
                "kernel k arity=1 tags=t req= cost=m bogus=1",
                "line 1: unexpected field 'bogus=1'",
            ),
        ],
    )
    def test_input_errors_exit_one(self, tmp_path, capsys, source, kernels, message):
        config = tmp_path / "kernels.cfg"
        config.write_text(kernels + "\n")
        text = f"index i 4\nmatrix A 3 3 indices=i\nmatrix X 3 3 indices=i\ncompute {source}\n"
        code, out, err = run(tmp_path, capsys, text, "--kernels", str(config))
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "decls, source, message",
        [
            (
                "matrix A 3 4\nmatrix B 3 3\n",
                "B = A",
                "DimensionMismatch: target 'B' is declared 3x3 but the chain computes 3x4",
            ),
            (
                "vector x 3\nvector y 3\n",
                "y = x^T",
                "DimensionMismatch: target 'y' is declared 3x1 but the chain computes 1x3",
            ),
            (
                "index i 4\nmatrix A 3 3 indices=i\nmatrix B 3 3\n",
                "B[i] = A[i]",
                "IndexMismatch: target 'B' is written ['i'] but declared []",
            ),
        ],
    )
    def test_declared_target_must_match_the_chain(self, tmp_path, capsys, decls, source, message):
        code, out, err = run(tmp_path, capsys, f"{decls}compute {source}\n")
        assert code == 1
        assert out == ""
        assert err == f"matchain: {tmp_path / 'problem.mc'}: line {decls.count(chr(10)) + 1}: {message}\n"

    def test_undeclared_target_takes_the_chains_shape(self, tmp_path, capsys):
        text = "index i 4\nmatrix A 3 4 indices=i\ncompute Y[i] = A[i]^T\n"
        code, out, err = run(tmp_path, capsys, text)
        assert code == 0
        assert "Y[i] := transp(A[i])" in out

    def test_verify_rejects_long_chains(self, tmp_path, capsys):
        decls = "".join(f"matrix A{t} 4 4\n" for t in range(9))
        text = decls + "matrix Z 4 4\ncompute Z = " + " * ".join(
            f"A{t}" for t in range(9)
        ) + "\n"
        code, out, err = run(tmp_path, capsys, text, "--verify")
        assert code == 2
        assert "factors" in err

    def test_later_statements_still_emitted(self, tmp_path, capsys):
        kernels = tmp_path / "kernels.cfg"
        kernels.write_text("kernel gemm arity=2 tags=t;t req=; cost=2*m*k*n\n")
        text = (
            "matrix A 4 4\n"
            "matrix B 4 4\n"
            "matrix C 4 4\n"
            "matrix D 4 4\n"
            "compute C = A * B\n"
            "compute D = A^T\n"
        )
        problem = tmp_path / "problem.mc"
        problem.write_text(text)
        code = main([str(problem), "--kernels", str(kernels)])
        captured = capsys.readouterr()
        assert code == 2
        assert "D := transp(A)" in captured.out


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        result = subprocess.run(
            [sys.executable, "-m", "matchain", str(problem)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert "# total_flops=40000" in result.stdout
