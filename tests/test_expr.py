"""Expression model: parsing, validation, unparse, problem files."""

import random
import re

import pytest
from hypothesis import example, given, strategies as st

from matchain import (
    DiagnosticKind,
    Factor,
    IndexDecl,
    Operand,
    UnaryTag,
    load_problem,
    matrix,
    parse,
    unparse,
    validate,
    vector,
)
from matchain.errors import (
    ExprSyntaxError,
    InvalidChainError,
    NestedUnaryError,
    ProblemFileError,
    UndeclaredSymbolError,
)
from matchain.expr import _IDENT, _tokenize
from matchain.properties import Property

from helpers import random_chain


def decls():
    i = IndexDecl("i", 8)
    j = IndexDecl("j", 3)
    return [
        i,
        j,
        matrix("A", 10, 10),
        matrix("B", 10, 4),
        matrix("C", 4, 4, [Property.LOWER_TRIANGULAR]),
        matrix("G", 10, 10, indices=(i,)),
        vector("d", 4, indices=(j,)),
    ]


class TestParse:
    def test_plain_chain(self):
        chain = parse("X = A * B", decls())
        assert chain.target == "X"
        assert [f.operand.name for f in chain.factors] == ["A", "B"]
        assert all(f.tag is UnaryTag.ID for f in chain.factors)

    def test_all_tags(self):
        chain = parse("X = A^T * A^-1 * A^-T * A", decls())
        assert [f.tag for f in chain.factors] == [
            UnaryTag.T,
            UnaryTag.INV,
            UnaryTag.INVT,
            UnaryTag.ID,
        ]

    def test_indexed(self):
        chain = parse("X[i,j] = G[i] * B * d[j]", decls())
        assert [ix.name for ix in chain.target_indices] == ["i", "j"]
        assert chain.factors[0].operand.indices[0].range == 8

    def test_effective_dims(self):
        chain = parse("X = B^T", decls())
        factor = chain.factors[0]
        assert (factor.eff_rows, factor.eff_cols) == (4, 10)

    def test_undeclared_symbol_position(self):
        with pytest.raises(UndeclaredSymbolError) as info:
            parse("X = A * Q", decls())
        assert info.value.position == 8

    def test_undeclared_index(self):
        with pytest.raises(UndeclaredSymbolError):
            parse("X[k] = A * B", decls())

    def test_nested_suffix(self):
        with pytest.raises(NestedUnaryError):
            parse("X = A^T^T", decls())
        with pytest.raises(NestedUnaryError):
            parse("X = A^-1^T", decls())

    def test_parenthesized_nested_suffix(self):
        with pytest.raises(NestedUnaryError):
            parse("X = (A^T)^T", decls())

    def test_parentheses_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("X = (A) * B", decls())

    @pytest.mark.parametrize(
        "text, position",
        [
            ("X = (A^T * A)^-1 * B", 4),
            ("X = A * ((A * A))^-1 * B", 9),
            ("X = (A * B", 4),
        ],
    )
    def test_grouped_chain_names_parentheses(self, text, position):
        # A group holding more than one factor is reported at its innermost
        # ``(``, not as a missing ``)`` where the second factor starts.
        with pytest.raises(ExprSyntaxError) as info:
            parse(text, decls())
        assert str(info.value) == "parentheses are not part of the chain grammar"
        assert info.value.position == position

    def test_index_use_must_match_declaration(self):
        with pytest.raises(ExprSyntaxError):
            parse("X = G * B", decls())  # G declared with [i]
        with pytest.raises(ExprSyntaxError):
            parse("X[i,j] = G[j] * B * d[j]", decls())  # wrong index name
        parse("X[j] = A * B * d[j]", decls())  # matching use is fine

    def test_trailing_junk(self):
        with pytest.raises(ExprSyntaxError):
            parse("X = A * B C", decls())

    def test_missing_operand(self):
        with pytest.raises(ExprSyntaxError):
            parse("X = A *", decls())

    def test_missing_equals(self):
        with pytest.raises(ExprSyntaxError):
            parse("X A * B", decls())

    @pytest.mark.parametrize(
        "text, target, kinds, message",
        [
            (
                "B = A",
                matrix("B", 3, 3),
                ["DIMENSION_MISMATCH"],
                "DimensionMismatch: target 'B' is declared 3x3 but the chain computes 3x4",
            ),
            (
                "B[i] = A",
                matrix("B", 3, 4),
                ["INDEX_MISMATCH"],
                "IndexMismatch: target 'B' is written ['i'] but declared []",
            ),
            (
                "B = A",
                matrix("B", 4, 3, indices=(IndexDecl("i", 2),)),
                ["DIMENSION_MISMATCH", "INDEX_MISMATCH"],
                "target 'B' is written [] but declared ['i']",
            ),
        ],
    )
    def test_declared_target_must_match_the_chain(self, text, target, kinds, message):
        decls = [IndexDecl("i", 2), matrix("A", 3, 4), target]
        with pytest.raises(InvalidChainError) as info:
            parse(text, decls)
        assert [d.kind.name for d in info.value.diagnostics] == kinds
        assert str(info.value).endswith(message)

    def test_undeclared_or_matching_target_parses(self):
        a = matrix("A", 3, 4)
        assert parse("B = A", [a]).target == "B"
        assert parse("B = A^T", [a, matrix("B", 4, 3)]).factors[0].tag is UnaryTag.T

    def test_foreign_declaration_rejected(self):
        with pytest.raises(TypeError, match="unsupported declaration"):
            parse("X = A", [matrix("A", 2, 2), matrix("X", 2, 2), "B"])

    @pytest.mark.parametrize(
        "text, error, position",
        [
            ("X = " + "(" * 5000 + "A" + ")" * 5000, ExprSyntaxError, 4 + 4999),
            ("X = " + "(" * 5000 + "A^T)^T", NestedUnaryError, 4 + 5000 + 4),
            ("X = " + "(" * 5000, ExprSyntaxError, 4 + 5000),
        ],
        ids=["grouped", "nested-suffix", "unclosed"],
    )
    def test_deeply_nested_parentheses(self, text, error, position):
        # The innermost group decides the error, without recursing per level.
        decls = [matrix("A", 3, 3), matrix("X", 3, 3)]
        with pytest.raises(error) as info:
            parse(text, decls)
        assert info.value.position == position

    def test_unknown_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("X = A @ B", decls())
        assert info.value.position == 6

    def test_unparse_round_trip(self):
        for text in (
            "X = A * B",
            "X = A^T * A^-1 * A^-T * A",
            "X[i,j] = G[i] * B * d[j]",
        ):
            chain = parse(text, decls())
            assert unparse(chain) == text
            again = parse(unparse(chain), decls())
            assert again == chain

    def test_random_chains_unparse_parse(self):
        rng = random.Random(3)
        for _ in range(50):
            chain = random_chain(rng)
            d = [f.operand for f in chain.factors]
            assert parse(unparse(chain), d) == chain


#: The tokenizer as a loop of one match per token or whitespace run: the
#: reference that ``_tokenize``'s single scan must agree with.
_REFERENCE_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<suffix>\^T|\^-1|\^-T)
  | (?P<ident>{_IDENT})
  | (?P<punct>[*=\[\],()])
    """,
    re.VERBOSE,
)


def reference_tokens(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unrecognized character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as exc:
        return str(exc), exc.position


#: Token spellings, near misses and stray characters, whitespace of
#: several kinds (tab, NBSP, ideographic space, separators) among them.
PIECES = [
    "A", "B2", "_x", "i", "j", "*", "=", "[", "]", ",", "(", ")",
    "^T", "^-1", "^-T", "^", "^-", "^-2", "-", "@", "é", "３", "#", "+",
    " ", "  ", "\t", "\n", "\xa0", "\u3000", "\u2028", "\x1c", "\x0b",
]


class TestTokenize:
    @given(st.lists(st.one_of(st.sampled_from(PIECES), st.characters()), max_size=30))
    @example(["X", " ", "=", "\xa0", "A", "^T", "\t", "*", "B", "^-", "1"])
    @example(["A", " ", "\u3000"])
    def test_one_scan_agrees_with_the_token_loop(self, pieces):
        text = "".join(pieces)
        assert outcome(_tokenize, text) == outcome(reference_tokens, text)

    def test_positions_skip_whitespace(self):
        assert _tokenize(" A\t^T ") == [
            ("ident", "A", 1),
            ("suffix", "^T", 3),
            ("end", "", 6),
        ]


class TestOperand:
    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            Operand("A", 0, 3)

    def test_duplicate_indices_rejected(self):
        i = IndexDecl("i", 2)
        with pytest.raises(ValueError):
            Operand("A", 3, 3, frozenset(), (i, i))

    def test_properties_closed_on_construction(self):
        op = matrix("A", 5, 5, [Property.SPD])
        assert Property.SYMMETRIC in op.properties
        assert Property.SQUARE in op.properties

    def test_vector_factory(self):
        v = vector("d", 6)
        assert (v.rows, v.cols) == (6, 1)
        assert Property.VECTOR in v.properties

    def test_index_range_positive(self):
        with pytest.raises(ValueError):
            IndexDecl("i", 0)

    @pytest.mark.parametrize("name", ["A[i]", "i,j", "", "2A", "A B", "A^T", "Ä"])
    def test_name_must_be_an_identifier(self, name):
        # A statement writes names as the tokenizer's identifiers, so a
        # declaration under any other name could never be used.
        with pytest.raises(ValueError, match="not an identifier"):
            matrix(name, 3, 3)
        with pytest.raises(ValueError, match="not an identifier"):
            vector(name, 3)
        with pytest.raises(ValueError, match="not an identifier"):
            IndexDecl(name, 3)
        assert matrix("_A2", 3, 3).name == "_A2"


class TestValidate:
    def test_clean(self):
        assert validate(parse("X = A * B", decls())) == []

    def test_dimension_mismatch_position(self):
        chain = parse("X = B * A", decls())  # 10x4 then 10x10
        diags = validate(chain)
        assert len(diags) == 1
        assert diags[0].kind is DiagnosticKind.DIMENSION_MISMATCH
        assert diags[0].position == 1

    def test_non_square_inverse(self):
        bad = Factor(matrix("R", 3, 4), UnaryTag.INV)
        from matchain import Chain

        diags = validate(Chain("X", (), (bad,)))
        assert diags[0].kind is DiagnosticKind.NON_SQUARE_INVERSE
        assert diags[0].position == 0

    def test_vector_inverse_flagged(self):
        from matchain import Chain

        bad = Factor(vector("v", 1), UnaryTag.INV)
        diags = validate(Chain("X", (), (bad,)))
        assert diags and diags[0].kind is DiagnosticKind.NON_SQUARE_INVERSE

    def test_transpose_fixes_orientation(self):
        chain = parse("X = B^T * A", decls())  # (4x10) * (10x10)
        assert validate(chain) == []

    def test_index_mismatch_missing_from_target(self):
        chain = parse("X = G[i] * B", decls())
        kinds = [d.kind for d in validate(chain)]
        assert DiagnosticKind.INDEX_MISMATCH in kinds

    def test_index_mismatch_unused_target_index(self):
        chain = parse("X[i,j] = G[i] * B", decls())
        kinds = [d.kind for d in validate(chain)]
        assert DiagnosticKind.INDEX_MISMATCH in kinds

    def test_random_chains_validate_clean(self):
        rng = random.Random(17)
        pool = (IndexDecl("i", 4), IndexDecl("j", 2))
        for _ in range(100):
            chain = random_chain(rng, index_pool=pool)
            assert validate(chain) == []


PROBLEM = """
# grid of regularized projections
index i 8
matrix A 50 50 [indices=i]
matrix B 50 50 [lower_triangular,nonsingular]
vector d 50
compute X[i] = A[i] * B^-1 * d   # solve, not invert
compute y = B * d
"""


class TestProblemFiles:
    def test_full_file(self):
        problem = load_problem(PROBLEM)
        assert [ix.name for ix in problem.indices] == ["i"]
        assert [op.name for op in problem.operands] == ["A", "B", "d"]
        assert len(problem.computes) == 2
        first = problem.computes[0]
        assert first.lineno == 7
        assert first.source == "X[i] = A[i] * B^-1 * d"
        assert first.chain.factors[1].tag is UnaryTag.INV

    def test_brackets_optional(self):
        text = "matrix L 4 4 lower_triangular\ncompute X = L * L\n"
        problem = load_problem(text)
        assert Property.LOWER_TRIANGULAR in problem.operands[0].properties

    def test_properties_and_indices_together(self):
        text = "index i 3\nmatrix A 4 4 [spd] [indices=i]\n"
        problem = load_problem(text)
        op = problem.operands[0]
        assert Property.SPD in op.properties
        assert op.indices[0].name == "i"

    def test_unknown_property(self):
        with pytest.raises(ProblemFileError) as info:
            load_problem("matrix A 4 4 [hermitian]\n")
        assert info.value.lineno == 1

    @pytest.mark.parametrize(
        "declared, without",
        [("full", ""), ("[full]", ""), ("full,lower_triangular", "lower_triangular")],
    )
    def test_full_declares_nothing(self, declared, without):
        # ``full`` says that there is no structure, so it stores nothing.
        got = load_problem(f"matrix A 4 4 {declared}\n").operands[0]
        want = load_problem(f"matrix A 4 4 {without}\n").operands[0]
        assert got.properties == want.properties

    def test_square_not_declarable(self):
        with pytest.raises(ProblemFileError):
            load_problem("matrix A 4 4 [square]\n")

    def test_duplicate_operand(self):
        with pytest.raises(ProblemFileError) as info:
            load_problem("matrix A 4 4\nmatrix A 5 5\n")
        assert info.value.lineno == 2

    def test_duplicate_index(self):
        with pytest.raises(ProblemFileError):
            load_problem("index i 3\nindex i 4\n")

    def test_bad_dimension(self):
        with pytest.raises(ProblemFileError):
            load_problem("matrix A 4 x\n")

    def test_bad_range(self):
        with pytest.raises(ProblemFileError):
            load_problem("index i many\n")

    # int() reads each of these; a dim or an index range is ASCII digits.
    SPELLINGS = ["3_0", "+3", "\uff13", "-3"]

    @pytest.mark.parametrize("dim", SPELLINGS)
    def test_dimension_is_ascii_digits(self, dim):
        for line in (f"matrix A {dim} 30", f"matrix A 30 {dim} spd", f"vector v {dim}"):
            with pytest.raises(ProblemFileError, match=r"^line 2: bad dimension$"):
                load_problem(f"index i 3\n{line}\n")

    @pytest.mark.parametrize("rng", SPELLINGS)
    def test_index_range_is_ascii_digits(self, rng):
        with pytest.raises(ProblemFileError) as info:
            load_problem(f"matrix A 3 3\nindex i {rng}\n")
        assert str(info.value) == f"line 2: bad index range {rng!r}"

    def test_zero_reaches_the_positive_checks(self):
        with pytest.raises(ProblemFileError, match="needs positive dims, got 0x3"):
            load_problem("matrix A 0 3\n")
        with pytest.raises(ProblemFileError, match="needs range >= 1, got 0"):
            load_problem("index i 0\n")
        assert load_problem("matrix A 03 3\n").operands[0].rows == 3

    @pytest.mark.parametrize(
        "groups", ["indices=i indices=j", "[indices=i] [indices=i]", "indices= indices=j"]
    )
    def test_one_indices_group(self, groups):
        with pytest.raises(ProblemFileError, match="second indices= group") as info:
            load_problem(f"index i 2\nindex j 3\nmatrix A 3 3 {groups}\n")
        assert info.value.lineno == 3

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("index i 3\nmatrix A[i] 3 3\ncompute B[i] = A[i]\n", 2),
            ("index i,j 3\nmatrix A 3 3 indices=i,j\n", 1),
            ("matrix A 3 3\nvector 1x 3\n", 2),
        ],
    )
    def test_declared_name_must_be_an_identifier(self, text, lineno):
        with pytest.raises(ProblemFileError, match="not an identifier") as info:
            load_problem(text)
        assert info.value.lineno == lineno

    def test_undeclared_index_in_operand(self):
        with pytest.raises(ProblemFileError):
            load_problem("matrix A 4 4 [indices=k]\n")

    def test_unknown_directive(self):
        with pytest.raises(ProblemFileError) as info:
            load_problem("matrxi A 4 4\n")
        assert info.value.lineno == 1

    def test_compute_error_carries_line(self):
        with pytest.raises(ProblemFileError) as info:
            load_problem("matrix A 4 4\n\ncompute X = A * Q\n")
        assert info.value.lineno == 3

    def test_compute_sees_only_earlier_declarations(self):
        text = "matrix A 4 4\nmatrix X 4 4\ncompute X = A * B\nmatrix B 4 4\n"
        with pytest.raises(ProblemFileError, match="undeclared symbol 'B'") as info:
            load_problem(text)
        assert info.value.lineno == 3
        text = "index i 2\nmatrix A 4 4\ncompute X[i] = A * B[i]\nmatrix B 4 4 indices=i\n"
        with pytest.raises(ProblemFileError) as info:
            load_problem(text)
        assert info.value.lineno == 3

    def test_compute_resolves_each_statement_separately(self):
        text = (
            "matrix A 2 3\nmatrix B 3 2\nmatrix X 2 2\ncompute X = A * B\n"
            "matrix C 2 2\ncompute X = X * C\n"
        )
        first, second = load_problem(text).computes
        assert [f.operand.name for f in first.chain.factors] == ["A", "B"]
        assert [f.operand.name for f in second.chain.factors] == ["X", "C"]
        assert second.chain.factors[1].operand.rows == 2

    def test_inconsistent_props_reported(self):
        with pytest.raises(ProblemFileError):
            load_problem("matrix A 4 5 [symmetric]\n")

    def test_comments_and_blanks_ignored(self):
        problem = load_problem("\n# nothing\n   \nmatrix A 2 2  # trailing\n")
        assert [op.name for op in problem.operands] == ["A"]
