"""Fuzzing the input readers: on any text, ``load_problem``, ``parse``
(against fixed declarations) and ``load_kernel_config`` either succeed or
raise a :class:`MatchainError` subclass, and ``parse_records`` either
succeeds or raises ``ValueError``, never anything else."""

from hypothesis import given, settings, strategies as st

from matchain import (
    IndexDecl,
    emit_records,
    load_kernel_config,
    load_problem,
    matrix,
    parse,
    parse_records,
    solve,
    vector,
)
from matchain.errors import MatchainError

FUZZ = settings(max_examples=200, deadline=None)


def _texts(words):
    """Arbitrary text, and lines of tokens that are mostly words of the
    format, so that generated lines get past their first token."""
    token = st.one_of(
        st.sampled_from(words),
        st.sampled_from(words),
        st.text(max_size=6),
        st.integers(-(10 ** 30), 10 ** 30).map(str),
    )
    line = st.builds(
        lambda tokens, sep: sep.join(tokens),
        st.lists(token, max_size=8),
        st.sampled_from([" ", "  ", "\t", ""]),
    )
    lines = st.lists(line, max_size=8).map("\n".join)
    return st.one_of(st.text(), lines)


PROBLEM_WORDS = [
    "index", "matrix", "vector", "compute", "#",
    "i", "j", "A", "B", "x", "X", "0", "1", "3", "4", "-2",
    "spd", "[spd]", "lower_triangular", "upper_triangular", "symmetric",
    "diagonal", "orthogonal", "identity", "nonsingular", "full", "square", "vector",
    "indices=i", "indices=i,j", "[indices=j]", "indices=", "indices=i,i",
    "=", "*", "A[i]", "B[j]", "x[i]", "X[i]", "X[i,j]", "A^T", "B^-1", "A^-T",
    "^T", "^-1", "(", ")", "[", "]", ",",
]

KERNEL_WORDS = [
    "kernel", "gemm", "trsm", "getri", "copy", "new",
    "arity=1", "arity=2", "arity=0", "arity=x",
    "tags=id", "tags=id;id", "tags=t;id", "tags=inv;id", "tags=inv,invt", "tags=invt",
    "tags=t,inv", "tags=id,t", "tags=id,inv", "tags=id,invt", "tags=;", "tags=bogus",
    "req=", "req=;", "req=spd", "req=square;", "req=lower_triangular;",
    "req=hermitian",
    "cost=m", "cost=m*k*n", "cost=2*m*k*n", "cost=m*m*m/3", "cost=m/0", "cost=0",
    "cost=m-n", "cost=m**2", "cost=(m+k)*n", "cost=1.5*m", "cost=", "cost=q",
    "=", ";", ",",
]

CHAIN_WORDS = [
    "X", "Y", "=", "A", "B", "L", "x", "i", "j", "k", "[", "]", ",", "*",
    "^T", "^-1", "^-T", "^", "(", ")", " ",
]

RECORD_WORDS = [
    "call", "summary", "statement", "naive", "kernel=gemm", "kernel=", "in1=A",
    "in2='T0[i]'", "out=X", "out=", "cost=12.5", "cost=x", "cost=", "math='X := A'",
    "loops=i:8", "loops=i:8,j:5", "loops=i", "loops=i:0", "loops=:", "mult=8",
    "mult=x", "target=X", "metric=flops", "total=3.0", "total=inf",
    "parens=0", "parens='(0 1)'", "parens='(0 (1 2))'", "parens='(0'", "parens=')'",
    "parens='(0 1 2)'", "parens=", "=", "'", '"', "\\",
]

#: Record streams of real plans: indexed loops, discharges and several calls.
RECORDS = [
    emit_records(solve(stmt.chain))
    for stmt in load_problem(
        """
index i 8
index j 5
matrix A 6 6 indices=i
matrix B 6 6 lower_triangular,nonsingular
matrix C 6 6
vector d 6 indices=j
matrix X 6 6 indices=i
vector y 6 indices=i,j
compute X[i] = A[i] * B^-1 * C^T
compute y[i,j] = A[i]^-T * C * d[j]
compute X[i] = A[i]^T
"""
    ).computes
]


def _mangled(text):
    """``text`` truncated, or with one space-separated token dropped or
    replaced, or with a few characters inserted."""
    tokens = text.split(" ")
    at = st.integers(0, len(tokens) - 1)
    return st.one_of(
        st.integers(0, len(text)).map(lambda cut: text[:cut]),
        at.map(lambda t: " ".join(tokens[:t] + tokens[t + 1 :])),
        st.tuples(at, st.sampled_from(RECORD_WORDS)).map(
            lambda p: " ".join(tokens[: p[0]] + [p[1]] + tokens[p[0] + 1 :])
        ),
        st.tuples(st.integers(0, len(text)), st.text(max_size=3)).map(
            lambda p: text[: p[0]] + p[1] + text[p[0] :]
        ),
    )


_I, _J = IndexDecl("i", 3), IndexDecl("j", 5)
DECLARATIONS = [
    _I,
    _J,
    matrix("A", 4, 4),
    matrix("B", 4, 4, indices=(_I,)),
    matrix("L", 4, 4, indices=(_I, _J)),
    vector("x", 4),
    matrix("X", 4, 4),
    matrix("Y", 4, 4, indices=(_I,)),
]


@FUZZ
@given(_texts(PROBLEM_WORDS))
def test_load_problem_raises_only_matchain_errors(text):
    try:
        load_problem(text)
    except MatchainError:
        pass


@FUZZ
@given(_texts(CHAIN_WORDS))
def test_parse_raises_only_matchain_errors(text):
    try:
        parse(text, DECLARATIONS)
    except MatchainError:
        pass


@FUZZ
@given(_texts(KERNEL_WORDS))
def test_load_kernel_config_raises_only_matchain_errors(text):
    try:
        load_kernel_config(text)
    except MatchainError:
        pass


@FUZZ
@given(st.one_of(_texts(RECORD_WORDS), st.sampled_from(RECORDS).flatmap(_mangled)))
def test_parse_records_raises_only_value_errors(text):
    try:
        parse_records(text)
    except ValueError:
        pass
