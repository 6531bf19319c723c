"""Command-line driver: exit codes, output formats, determinism."""

import subprocess
import sys

import pytest

from matchain import parse_records
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
        assert "line 2" in err and "division by zero" in err


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
    def test_cost_overflow_exits_two(self, tmp_path, capsys, dim, source, kernel):
        text = "".join(f"matrix {x} {dim} {dim}\n" for x in "ABC")
        code, out, err = run(tmp_path, capsys, text + f"compute {source}\n")
        assert code == 2
        assert out == ""
        assert err.startswith("matchain: ") and "line 4" in err
        assert f"cost of {kernel} at (m, k, n) = ({dim}, {dim}, {dim})" in err
        assert "Traceback" not in err

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

    def test_naive_overflow_reported_as_inf(self, tmp_path, capsys):
        # Left to right, (A B) prices a gemm beyond the float range; the
        # plan, A (B c), still prints and the statement succeeds.
        big = 10 ** 200
        text = (
            f"matrix A {big} 1\nmatrix B 1 {big}\nvector c {big}\nvector x {big}\n"
            "compute x = A * B * c\n"
        )
        code, out, err = run(tmp_path, capsys, text, "--naive", "--format", "records")
        assert (code, err) == (0, "")
        assert "total=4e+200 parens='(0 (1 2))'\nnaive total=inf ratio=inf" in out
        code, out, err = run(tmp_path, capsys, text, "--naive")
        assert (code, err) == (0, "")
        assert out.endswith("\n# naive_flops=inf ratio=inf\n")

    def test_multiplicity_overflow_exits_two(self, tmp_path, capsys):
        big = 10 ** 100
        text = (
            "index i 100000000000\n"
            f"matrix A {big} {big} indices=i\nmatrix B {big} {big}\n"
            f"matrix C {big} {big} indices=i\ncompute C[i] = A[i] * B\n"
        )
        for args in ((), ("--naive",)):
            code, out, err = run(tmp_path, capsys, text, *args)
            assert code == 2
            assert out == ""
            assert err.startswith("matchain: ") and "line 5" in err
            assert "total cost of factors 0..1" in err
            assert "index multiplicity 100000000000" in err
            assert "no kernel sequence" not in err and "Traceback" not in err

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
        for args in ((), ("--naive",), ("--format", "records")):
            code, out, err = run(tmp_path, capsys, text, *args)
            assert (code, out) == (2, "")
            assert "line 6: total cost of factors 0..1" in err
            assert "index multiplicity ~10^" in err and "Traceback" not in err

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
        # The only report of a solver bug: the oracle finds a different minimum.
        monkeypatch.setattr("matchain.oracle.brute_force_min", lambda *args: (12345.0, None))
        code, out, err = run(tmp_path, capsys, VECTOR_CHAIN, "--verify", "--format", fmt)
        assert code == 2
        assert out.rstrip("\n").endswith(line)
        assert err == ""

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
