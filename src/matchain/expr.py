"""Expression data model, parser, and semantic validation.

The input language is a chain of factors joined by ``*``. A factor is a
declared symbol, optionally indexed (``A[i]``, ``d[j]``), with at most one
unary suffix: ``^T`` (transpose), ``^-1`` (inverse), or ``^-T``
(inverse-transpose). A statement assigns the chain to a target::

    X[i,j] = A[i] * B^T * C * d[j]

All model types are immutable named tuples; parsing is a pure function of
the text and the declarations. The types that check their fields,
:class:`IndexDecl`, :class:`Operand` and :class:`Chain`, check them in
``__new__``, and their ``_make`` goes through it, so ``_replace`` checks
the new fields the same way.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from collections.abc import Iterable
from typing import NamedTuple

from .errors import (
    DimensionPropertyMismatchError,
    ExprSyntaxError,
    InconsistentPropertiesError,
    InvalidChainError,
    NestedUnaryError,
    ParseError,
    ProblemFileError,
    UndeclaredSymbolError,
)
from .properties import PROPERTY_NAMES, Property, close


class UnaryTag(enum.Enum):
    ID = ""
    T = "^T"
    INV = "^-1"
    INVT = "^-T"

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality and skips Enum's Python-level one.
    __hash__ = object.__hash__


#: Effective-dimension swap table: T and INVT exchange rows and columns.
_SWAPS = frozenset({UnaryTag.T, UnaryTag.INVT})


def effective_dims(rows: int, cols: int, tag: UnaryTag) -> tuple[int, int]:
    """Dimensions of an operand after applying its unary tag."""
    return (cols, rows) if tag in _SWAPS else (rows, cols)


#: A name a statement can write: the tokenizer's ``ident``.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)


def _check_name(kind: str, name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is one a statement can write."""
    if not _IDENT_RE.fullmatch(name):
        raise ValueError(
            f"{kind} name {name!r} is not an identifier, so no statement can use it"
        )


class IndexDecl(namedtuple("IndexDecl", "name range")):
    """A declared index set with its cardinality."""

    __slots__ = ()
    name: str
    range: int

    def __new__(cls, name: str, range: int) -> IndexDecl:
        _check_name("index", name)
        if range < 1:
            raise ValueError(f"index {name!r} needs range >= 1, got {range}")
        return super().__new__(cls, name, range)

    @classmethod
    def _make(cls, iterable) -> IndexDecl:
        return cls(*iterable)


def indexed_name(name: str, indices: tuple[IndexDecl, ...]) -> str:
    """``name`` with its indices in source form, e.g. ``A[i,j]``, or bare."""
    if not indices:
        return name
    return f"{name}[{','.join(ix.name for ix in indices)}]"


class Operand(namedtuple("Operand", "name rows cols properties indices")):
    """A named matrix or vector, its dimensions, properties, and indices.

    ``properties`` is normalized to its implication closure on construction,
    which also rejects inconsistent or dimension-incompatible sets.
    """

    __slots__ = ()
    name: str
    rows: int
    cols: int
    properties: frozenset[Property]
    indices: tuple[IndexDecl, ...]

    def __new__(
        cls,
        name: str,
        rows: int,
        cols: int,
        properties: frozenset[Property] = frozenset(),
        indices: tuple[IndexDecl, ...] = (),
    ) -> Operand:
        _check_name("operand", name)
        if rows < 1 or cols < 1:
            raise ValueError(f"operand {name!r} needs positive dims, got {rows}x{cols}")
        properties = close(properties, rows, cols)
        if len(indices) > 1:
            names = [ix.name for ix in indices]
            if len(names) != len(set(names)):
                raise ValueError(f"operand {name!r} repeats an index: {names}")
        return super().__new__(cls, name, rows, cols, properties, indices)

    @classmethod
    def _make(cls, iterable) -> Operand:
        return cls(*iterable)

    @property
    def display(self) -> str:
        """Source form of the operand reference, e.g. ``A[i,j]``."""
        return indexed_name(self.name, self.indices)


def matrix(
    name: str,
    rows: int,
    cols: int,
    properties: Iterable[Property] = (),
    indices: tuple[IndexDecl, ...] = (),
) -> Operand:
    return Operand(name, rows, cols, frozenset(properties), tuple(indices))


def vector(
    name: str,
    rows: int,
    properties: Iterable[Property] = (),
    indices: tuple[IndexDecl, ...] = (),
) -> Operand:
    props = frozenset(properties) | {Property.VECTOR}
    return Operand(name, rows, 1, props, tuple(indices))


class Factor(NamedTuple):
    """An operand occurrence with its unary tag."""

    operand: Operand
    tag: UnaryTag = UnaryTag.ID

    @property
    def eff_rows(self) -> int:
        return effective_dims(self.operand.rows, self.operand.cols, self.tag)[0]

    @property
    def eff_cols(self) -> int:
        return effective_dims(self.operand.rows, self.operand.cols, self.tag)[1]

    @property
    def display(self) -> str:
        return self.operand.display + self.tag.value


class Chain(namedtuple("Chain", "target target_indices factors")):
    """A product of factors assigned to a (possibly indexed) target."""

    __slots__ = ()
    target: str
    target_indices: tuple[IndexDecl, ...]
    factors: tuple[Factor, ...]

    def __new__(
        cls, target: str, target_indices: tuple[IndexDecl, ...], factors: tuple[Factor, ...]
    ) -> Chain:
        if not factors:
            raise ValueError("a chain needs at least one factor")
        return super().__new__(cls, target, target_indices, factors)

    @classmethod
    def _make(cls, iterable) -> Chain:
        return cls(*iterable)

    @property
    def target_display(self) -> str:
        return indexed_name(self.target, self.target_indices)


def unparse(chain: Chain) -> str:
    """Render a chain back to its source form."""
    rhs = " * ".join(f.display for f in chain.factors)
    return f"{chain.target_display} = {rhs}"


# --------------------------------------------------------------------------
# Parsing

#: One token per match, after any whitespace; ``bad`` is a character that
#: starts no token.
_TOKEN_RE = re.compile(
    rf"""
    \s*(?:
        (?P<suffix>\^T|\^-1|\^-T)
      | (?P<ident>{_IDENT})
      | (?P<punct>[*=\[\],()])
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

#: A suffix token's text to its tag.
_SUFFIX_TAGS = {tag.value: tag for tag in UnaryTag if tag is not UnaryTag.ID}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unrecognized character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Parses one statement against declarations looked up by name."""

    def __init__(
        self, text: str, operands: dict[str, Operand], indexes: dict[str, IndexDecl]
    ):
        self.text = text
        self.tokens = _tokenize(text)
        self.at = 0
        self.operands = operands
        self.indexes = indexes

    def peek(self):
        return self.tokens[self.at]

    def take(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.take()
        if text != value:
            raise ExprSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def index_list(self) -> tuple[IndexDecl, ...]:
        """Parse ``[ i, j, ... ]`` resolving each name to its declaration."""
        self.expect("[")
        out = []
        while True:
            kind, text, pos = self.take()
            if kind != "ident":
                raise ExprSyntaxError("expected an index name", pos)
            decl = self.indexes.get(text)
            if decl is None:
                raise UndeclaredSymbolError(f"undeclared index {text!r}", pos)
            out.append(decl)
            kind, text, pos = self.take()
            if text == "]":
                return tuple(out)
            if text != ",":
                raise ExprSyntaxError("expected ',' or ']' in index list", pos)

    def factor(self) -> Factor:
        tokens = self.tokens
        kind, text, pos = tokens[self.at]
        if text == "(":
            # Grouping is not part of the grammar; recognize it only to give a
            # targeted error: a tagged lone factor with a suffix after its
            # ``)`` stacks unary operators, and any other group, a lone factor
            # or a longer chain, is reported at its ``(``. The innermost group
            # decides the error, so enclosing ones are skipped here rather
            # than recursed into, however deep they nest.
            while self.peek()[1] == "(":
                open_pos = self.take()[2]
            inner = self.factor()
            if self.peek()[1] == ")":
                self.take()
                kind, text, suffix_pos = self.peek()
                if kind == "suffix" and inner.tag is not UnaryTag.ID:
                    raise NestedUnaryError(
                        "unary operators cannot be nested", suffix_pos
                    )
            raise ExprSyntaxError(
                "parentheses are not part of the chain grammar", open_pos
            )

        if kind != "ident":
            raise ExprSyntaxError("expected an operand name", pos)
        operand = self.operands.get(text)
        if operand is None:
            raise UndeclaredSymbolError(f"undeclared symbol {text!r}", pos)
        self.at += 1

        use_indices: tuple[IndexDecl, ...] = ()
        kind, text, _ = tokens[self.at]
        if text == "[":
            use_indices = self.index_list()
            kind, text, _ = tokens[self.at]
        if use_indices != operand.indices:
            used = ",".join(ix.name for ix in use_indices)
            declared = ",".join(ix.name for ix in operand.indices)
            raise ExprSyntaxError(
                f"indices [{used}] on {operand.name!r} do not match its "
                f"declaration [{declared}]",
                pos,
            )

        tag = UnaryTag.ID
        if kind == "suffix":
            tag = _SUFFIX_TAGS[text]
            self.at += 1
            kind, text, next_pos = tokens[self.at]
            if kind == "suffix":
                raise NestedUnaryError("unary operators cannot be nested", next_pos)
        return Factor(operand, tag)

    def statement(self) -> Chain:
        kind, target, pos = self.take()
        if kind != "ident":
            raise ExprSyntaxError("expected a target name", pos)
        target_indices: tuple[IndexDecl, ...] = ()
        if self.peek()[1] == "[":
            target_indices = self.index_list()
        self.expect("=")
        factors = [self.factor()]
        while self.peek()[1] == "*":
            self.take()
            factors.append(self.factor())
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r} after chain", pos)
        return Chain(target, target_indices, tuple(factors))


def parse(text: str, declarations: Iterable[Operand | IndexDecl]) -> Chain:
    """Parse an assignment statement against the given declarations.

    Raises :class:`ExprSyntaxError`, :class:`UndeclaredSymbolError`, or
    :class:`NestedUnaryError`; all carry the source position. Raises
    :class:`InvalidChainError` with :func:`check_target`'s diagnostics
    when the target is declared with another shape or other indices; an
    undeclared target takes the chain's. Raises ``TypeError`` for a
    declaration that is neither an :class:`Operand` nor an
    :class:`IndexDecl`.
    """
    operands: dict[str, Operand] = {}
    indexes: dict[str, IndexDecl] = {}
    for decl in declarations:
        if isinstance(decl, Operand):
            operands[decl.name] = decl
        elif isinstance(decl, IndexDecl):
            indexes[decl.name] = decl
        else:
            raise TypeError(f"unsupported declaration {decl!r}")
    chain = _Parser(text, operands, indexes).statement()
    diagnostics = check_target(chain, operands)
    if diagnostics:
        raise InvalidChainError(diagnostics)
    return chain


# --------------------------------------------------------------------------
# Validation

class DiagnosticKind(enum.Enum):
    DIMENSION_MISMATCH = "DimensionMismatch"
    NON_SQUARE_INVERSE = "NonSquareInverse"
    INDEX_MISMATCH = "IndexMismatch"


class Diagnostic(NamedTuple):
    kind: DiagnosticKind
    position: int | None
    message: str

    def __str__(self):
        where = "" if self.position is None else f" at position {self.position}"
        return f"{self.kind.value}{where}: {self.message}"


def validate(chain: Chain) -> list[Diagnostic]:
    """Check chain invariants; an empty list means the chain is solvable.

    Positions are factor indices (0-based). A dimension mismatch is reported
    at the right-hand factor of the offending adjacent pair.
    """
    out: list[Diagnostic] = []
    for t, f in enumerate(chain.factors):
        if f.tag in (UnaryTag.INV, UnaryTag.INVT):
            operand = f.operand
            if operand.rows != operand.cols or Property.VECTOR in operand.properties:
                out.append(
                    Diagnostic(
                        DiagnosticKind.NON_SQUARE_INVERSE,
                        t,
                        f"inverse of non-square operand {operand.name!r} "
                        f"({operand.rows}x{operand.cols})",
                    )
                )
    for t in range(len(chain.factors) - 1):
        left, right = chain.factors[t], chain.factors[t + 1]
        if left.eff_cols != right.eff_rows:
            out.append(
                Diagnostic(
                    DiagnosticKind.DIMENSION_MISMATCH,
                    t + 1,
                    f"{left.display} has {left.eff_cols} columns but "
                    f"{right.display} has {right.eff_rows} rows",
                )
            )
    bound = {ix.name for f in chain.factors for ix in f.operand.indices}
    declared = [ix.name for ix in chain.target_indices]
    if len(declared) != len(set(declared)):
        out.append(
            Diagnostic(
                DiagnosticKind.INDEX_MISMATCH,
                None,
                f"target repeats an index: {declared}",
            )
        )
    elif set(declared) != bound:
        missing = bound - set(declared)
        unused = set(declared) - bound
        parts = []
        if missing:
            parts.append(f"factor indices {sorted(missing)} missing from target")
        if unused:
            parts.append(f"target indices {sorted(unused)} unused by any factor")
        out.append(Diagnostic(DiagnosticKind.INDEX_MISMATCH, None, "; ".join(parts)))
    return out


def check_target(chain: Chain, operands: dict[str, Operand]) -> list[Diagnostic]:
    """Diagnostics of a chain whose target ``operands`` declares: the
    declaration must have the chain's shape and its written indices."""
    decl, out = operands.get(chain.target), []
    if decl is None:
        return out
    rows, cols = chain.factors[0].eff_rows, chain.factors[-1].eff_cols
    if (rows, cols) != (decl.rows, decl.cols):
        shapes = f"declared {decl.rows}x{decl.cols} but the chain computes {rows}x{cols}"
        message = f"target {decl.name!r} is {shapes}"
        out.append(Diagnostic(DiagnosticKind.DIMENSION_MISMATCH, None, message))
    if chain.target_indices != decl.indices:
        written = [ix.name for ix in chain.target_indices]
        declared = [ix.name for ix in decl.indices]
        message = f"target {decl.name!r} is written {written} but declared {declared}"
        out.append(Diagnostic(DiagnosticKind.INDEX_MISMATCH, None, message))
    return out


# --------------------------------------------------------------------------
# Problem files

class ComputeStatement(NamedTuple):
    lineno: int
    source: str
    chain: Chain


class Problem(NamedTuple):
    indices: tuple[IndexDecl, ...]
    operands: tuple[Operand, ...]
    computes: tuple[ComputeStatement, ...]


def _natural(token: str) -> int:
    """The value of ``token`` written in ASCII digits alone; anything else
    raises ``ValueError``, as ``int`` does for a string it cannot read."""
    if token.isascii() and token.isdigit():
        return int(token)
    raise ValueError(f"not a decimal numeral: {token!r}")


def _parse_optional_tokens(tokens, lineno, indexes):
    """Split trailing matrix/vector tokens into properties and indices.

    Both groups may be wrapped in literal square brackets, which are
    stripped, so an empty group, ``[]``, declares nothing; the indices
    group is recognized by its ``indices=`` prefix, and a declaration has
    at most one.
    """
    props: list[Property] = []
    indices: tuple[IndexDecl, ...] | None = None
    for raw in tokens:
        tok = raw.strip("[]")
        if not tok:
            continue
        if tok.startswith("indices="):
            if indices is not None:
                raise ProblemFileError(lineno, f"second indices= group {raw!r}")
            names = [s for s in tok[len("indices="):].split(",") if s]
            resolved = []
            for name in names:
                decl = indexes.get(name)
                if decl is None:
                    raise ProblemFileError(lineno, f"undeclared index {name!r}")
                resolved.append(decl)
            indices = tuple(resolved)
        else:
            for name in tok.split(","):
                # ``full`` declares that there is no structure: nothing to store.
                if not name or name == "full":
                    continue
                prop = PROPERTY_NAMES.get(name)
                if prop is None:
                    raise ProblemFileError(lineno, f"unknown property {name!r}")
                props.append(prop)
    return props, indices or ()


def load_problem(text: str) -> Problem:
    """Read a problem description (declarations plus compute statements).

    Line-oriented; ``#`` starts a comment. Dims and index ranges are
    written in ASCII digits. Raises :class:`ProblemFileError` with the
    offending line number.
    """
    indexes: dict[str, IndexDecl] = {}
    operands: dict[str, Operand] = {}
    computes: list[ComputeStatement] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        tokens = body.split()
        if not tokens:
            continue
        directive = tokens[0]
        try:
            if directive == "index":
                if len(tokens) != 3:
                    raise ProblemFileError(lineno, "expected: index <name> <range>")
                name = tokens[1]
                if name in indexes:
                    raise ProblemFileError(lineno, f"duplicate index {name!r}")
                try:
                    rng = _natural(tokens[2])
                except ValueError:
                    raise ProblemFileError(lineno, f"bad index range {tokens[2]!r}")
                indexes[name] = IndexDecl(name, rng)
            elif directive in ("matrix", "vector"):
                want = 4 if directive == "matrix" else 3
                if len(tokens) < want:
                    raise ProblemFileError(
                        lineno, f"expected: {directive} <name> <dims...> [...]"
                    )
                name = tokens[1]
                if name in operands:
                    raise ProblemFileError(lineno, f"duplicate operand {name!r}")
                try:
                    rows = _natural(tokens[2])
                    cols = _natural(tokens[3]) if want == 4 else 1
                except ValueError:
                    raise ProblemFileError(lineno, "bad dimension")
                props, indices = (), ()
                if len(tokens) > want:
                    props, indices = _parse_optional_tokens(tokens[want:], lineno, indexes)
                if directive == "vector":
                    props = [*props, Property.VECTOR]
                operands[name] = Operand(name, rows, cols, props, indices)
            elif directive == "compute":
                stmt = body.strip()[len("compute"):].strip()
                try:
                    # The parser reads the declarations so far in place.
                    chain = _Parser(stmt, operands, indexes).statement()
                except ParseError as exc:
                    pos = exc.position
                    at = "" if pos is None else f" (column {pos + 1} of statement)"
                    raise ProblemFileError(lineno, f"{exc}{at}")
                computes.append(ComputeStatement(lineno, stmt, chain))
            else:
                raise ProblemFileError(lineno, f"unknown directive {directive!r}")
        except ProblemFileError:
            raise
        except (
            ValueError,
            InconsistentPropertiesError,
            DimensionPropertyMismatchError,
        ) as exc:
            raise ProblemFileError(lineno, str(exc))

    return Problem(tuple(indexes.values()), tuple(operands.values()), tuple(computes))
