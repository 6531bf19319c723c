"""Command-line driver: exit codes, output formats, determinism."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matchain import cli, parse_records
from matchain.cli import main

from helpers import child_env

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

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

#: Twelve factors, with an inverse, a transpose and structure: 58,786 trees.
TWELVE_FACTORS = (
    "matrix S 20 20 spd\nmatrix L 20 20 lower_triangular\n"
    "matrix A 20 35\nmatrix B 35 8\nmatrix C 8 50\nmatrix D 50 20\n"
    "matrix E 20 12\nmatrix F 12 40\nmatrix G 40 5\nmatrix H 5 20\n"
    "matrix K 20 20 symmetric\nvector x 20\nvector y 20\n"
    "compute y = S^-1 * L * A * B * C * D * E * F * G * H * K^T * x\n"
)

#: Chains of one factor, each planned as its cheapest discharge chain
#: ending tag-free, or as one copy: an inverse, an indexed copy and a
#: transpose.
SINGLE_FACTORS = (
    "index i 3\nmatrix A 4 4 indices=i\nmatrix B 4 4\nvector v 4\n"
    "compute X = B^-1\ncompute Y[i] = A[i]\ncompute Z = v^T\n"
)

#: Dims of 200 digits make every cost an int too large for a float.
BEYOND_FLOATS = VECTOR_CHAIN.replace("100", str(10 ** 200))


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

    @pytest.mark.parametrize(
        "text, fmt, line",
        [
            (TWELVE_FACTORS, "text", "# oracle=agree"),
            (TWELVE_FACTORS, "records", "verify oracle=agree oracle_total="),
            (SINGLE_FACTORS, "records", "verify oracle=agree oracle_total="),
            (BEYOND_FLOATS, "records", "verify oracle=agree oracle_total="),
        ],
        ids=["twelve-text", "twelve-records", "single-records", "beyond_floats-records"],
    )
    def test_verify_takes_a_chain_of_any_length(self, tmp_path, capsys, text, fmt, line):
        # The oracle's per-run maps grow polynomially with the length, not
        # with the trees, and it compares costs beyond a float exactly.
        code, out, err = run(tmp_path, capsys, text, "--naive", "--verify", "--format", fmt)
        assert (code, err) == (0, "")
        blocks = out.split("\n\n")
        assert len(blocks) == text.count("compute ")
        for block in blocks:
            assert block.splitlines()[-1].startswith(line)

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("matrix A 4\n", "line 1: expected: matrix <name> <dims...> [...]"),
            # int() reads 3_0, but a dim is ASCII digits.
            ("matrix A 3_0 30\n", "line 1: bad dimension"),
            (
                "index i 3\nindex j 4\nmatrix A 3 3 indices=i indices=j\n",
                "line 3: second indices= group 'indices=j'",
            ),
        ],
        ids=["missing_dim", "bad_dimension", "second_indices_group"],
    )
    def test_problem_error_line_number(self, tmp_path, capsys, text, message):
        code, out, err = run(tmp_path, capsys, text)
        assert (code, out) == (1, "")
        assert err == f"matchain: {tmp_path / 'problem.mc'}: {message}\n"

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
            (
                # No operand carries full, so no kernel can require it.
                "X[i] = A[i]",
                "kernel fmm arity=2 tags=id;id req=full;full cost=m*k*n",
                "line 1: unknown property 'full'",
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

    def test_console_script_is_the_fast_exit_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"matchain": "matchain.cli:run"}


def many_statements(count):
    """A problem of ``count`` statements, each planned as several calls."""
    lines = ["matrix L 40 40 lower_triangular", "matrix A 40 30", "matrix B 30 40"]
    for at in range(count):
        lines.append(f"vector y{at} 40")
        lines.append(f"compute y{at} = L^-1 * A * B * L^T * y{at}")
    return "\n".join(lines) + "\n"


def buffered_env():
    """``child_env`` with the child's stdout block-buffered, as a pipe's is
    unless PYTHONUNBUFFERED is set, so that a missed flush loses output."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def python_m_matchain(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "matchain", *args],
        capture_output=True,
        env=env or buffered_env(),
    )


class TestProcessExit:
    """``python -m matchain`` ends right after flushing its output; what it
    prints and its exit code are those of ``main`` in this process."""

    @pytest.mark.parametrize(
        "source, unbuffered",
        [("many", ""), ("many", "1"), ("cli_mix", "")],
        ids=["", "1", "cli_mix"],
    )
    def test_long_listing_through_a_pipe(self, tmp_path, capsys, source, unbuffered):
        if source == "cli_mix":  # the benchmark's 1000-statement file, seed 1
            stem, text, _ = gen.cli_files(1)[0]
            assert stem == "p00_1000"
        else:
            text = many_statements(400)
        problem = tmp_path / "problem.mc"
        problem.write_text(text)
        code = main([str(problem), "--format", "records"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert len(captured.out) > 2 * 65536  # several pipe buffers' worth
        env = dict(buffered_env(), PYTHONUNBUFFERED=unbuffered)
        result = python_m_matchain(str(problem), "--format", "records", env=env)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == captured.out.encode()

    @pytest.mark.parametrize("failure", ["unreadable", "no_route", "no_unary_route"])
    def test_failure_keeps_its_code_and_stderr(self, tmp_path, capsys, failure):
        problem = tmp_path / "problem.mc"
        kernels = tmp_path / "kernels.cfg"
        args = [str(problem)]
        if failure == "no_route":
            # gemm takes only transposed inputs: A * B has no kernel route.
            kernels.write_text("kernel gemm arity=2 tags=t;t req=; cost=2*m*k*n\n")
            problem.write_text(
                "matrix A 4 4\nmatrix B 4 4\nmatrix C 4 4\n"
                "compute C = A * B\ncompute C = A^T * B^T\ncompute C = B * A\n"
            )
        elif failure == "no_unary_route":
            # getri takes only spd operands: neither inverse has a unary
            # route, and each statement fails alone, naming its factor.
            kernels.write_text("kernel getri arity=1 tags=inv,invt req=spd,square cost=2*m*m*m\n")
            problem.write_text(
                "index i 3\nmatrix A 4 4 indices=i\nmatrix B 4 4\n"
                "compute X = B^-1\ncompute Y[i] = A[i]^-T\n"
            )
        if failure != "unreadable":
            args += ["--kernels", str(kernels)]
        code = main(args)
        captured = capsys.readouterr()
        assert code == (1 if failure == "unreadable" else 2)
        assert captured.err.count("matchain: ") == (1 if failure == "unreadable" else 2)
        if failure == "no_unary_route":
            assert captured.err == "".join(
                f"matchain: {problem}: line {lineno}: no unary kernel sequence "
                f"materializes {factor} (4x4, props: square)\n"
                for lineno, factor in ((4, "B^-1"), (5, "A[i]^-T"))
            )
        result = python_m_matchain(*args)
        assert result.returncode == code
        assert result.stdout == captured.out.encode()
        assert result.stderr == captured.err.encode()

    def test_earlier_exit_handler_still_runs(self, tmp_path):
        # The handler's line ends unflushed; the exit flushes it after it.
        harness = (
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'handler ran', end='')\n"
            "sys.argv = ['matchain'] + sys.argv[1:]\n"
            "runpy.run_module('matchain', run_name='__main__')\n"
        )
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        result = subprocess.run(
            [sys.executable, "-c", harness, str(problem)],
            capture_output=True,
            text=True,
            env=buffered_env(),
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.endswith("# total_flops=40000\nhandler ran")

    @pytest.mark.parametrize("alter_sys", [False, True])
    def test_harness_that_catches_the_exit_keeps_its_own(self, tmp_path, alter_sys):
        # Run in-process, the entry returns: the harness's own exit code
        # and its unflushed output stand.
        harness = (
            "import runpy, sys\n"
            "sys.argv = ['matchain'] + sys.argv[1:]\n"
            "try:\n"
            f"    runpy.run_module('matchain', run_name='__main__', alter_sys={alter_sys})\n"
            "except SystemExit as exc:\n"
            "    print('matchain exited', exc.code, end='')\n"
            "    sys.exit(3)\n"
        )
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        result = subprocess.run(
            [sys.executable, "-c", harness, str(problem)],
            capture_output=True,
            text=True,
            env=buffered_env(),
        )
        assert (result.returncode, result.stderr) == (3, "")
        assert result.stdout.endswith("# total_flops=40000\nmatchain exited 0")

    @pytest.mark.parametrize("entry", ["module", "script", "harness"])
    def test_entry_skips_only_the_teardown(self, tmp_path, entry):
        # sitecustomize registers an exit handler before the entry runs and
        # keeps an object whose finalizer reports the interpreter's
        # teardown. The handler runs and its unflushed output arrives at
        # every entry; only an in-process harness tears the interpreter down.
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            "import atexit, os\n"
            "atexit.register(print, 'handler ran', end='')\n"
            "class Probe:\n"
            "    def __del__(self, write=os.write):\n"
            "        write(2, b'teardown')\n"
            "probe = Probe()\n"
        )
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        script = tmp_path / "matchain-script.py"
        # The shape of the script that installing the package generates.
        script.write_text("import sys\nfrom matchain.cli import run\nsys.exit(run())\n")
        command = {
            "module": ["-m", "matchain"],
            "script": [str(script)],
            "harness": [
                "-c",
                "import runpy, sys; sys.argv[0] = 'matchain'; "
                "runpy.run_module('matchain', run_name='__main__')",
            ],
        }[entry]
        env = buffered_env()
        env["PYTHONPATH"] = os.pathsep.join([str(site), env["PYTHONPATH"]])
        result = subprocess.run(
            [sys.executable, *command, str(problem)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout.endswith("# total_flops=40000\nhandler ran")
        assert result.stderr == ("teardown" if entry == "harness" else "")

    def test_live_thread_is_waited_for(self, tmp_path):
        # A thread that outlives main() still finishes its work, as it
        # does when the interpreter ends the process.
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            "import threading, time\n"
            "threading.Thread(target=lambda: (time.sleep(0.5), print('thread ran'))).start()\n"
        )
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        env = buffered_env()
        env["PYTHONPATH"] = os.pathsep.join([str(site), env["PYTHONPATH"]])
        result = python_m_matchain(str(problem), env=env)
        assert (result.returncode, result.stderr) == (0, b"")
        assert b"thread ran\n" in result.stdout

    def test_interactive_prompt_still_follows(self, tmp_path):
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        result = subprocess.run(
            [sys.executable, "-i", "-m", "matchain", str(problem)],
            input="print('prompt ran')\n",
            capture_output=True,
            text=True,
            env=buffered_env(),
        )
        assert "# total_flops=40000\n" in result.stdout
        assert "prompt ran" in result.stdout

    def test_in_process_run_returns_the_code(self, tmp_path, capsys):
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        assert main([str(problem)]) == 0
        listing = capsys.readouterr()
        assert cli.run([str(problem)]) == 0
        assert capsys.readouterr() == listing

    @pytest.mark.parametrize("module", ["matchain", "matchain.cli"])
    def test_reader_that_leaves_early(self, tmp_path, module):
        # The listing is far longer than a pipe holds, so the process is
        # still writing when the reader closes its end.
        problem = tmp_path / "problem.mc"
        problem.write_text(many_statements(400))
        with subprocess.Popen(
            [sys.executable, "-m", module, str(problem), "--format", "records"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=buffered_env(),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert first.startswith(b"statement lineno=5 ")
        assert err == b""
        assert proc.returncode == cli.CLOSED_STDOUT == 141

    def test_reader_gone_before_any_output(self, tmp_path):
        # A short listing waits in the stdout buffer until the entry's own
        # flush, which meets the closed pipe.
        problem = tmp_path / "problem.mc"
        problem.write_text(VECTOR_CHAIN)
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "matchain", str(problem)],
                stdout=write,
                stderr=subprocess.PIPE,
                env=buffered_env(),
                timeout=60,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (cli.CLOSED_STDOUT, b"")
