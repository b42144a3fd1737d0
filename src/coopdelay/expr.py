"""Minimal scalar expression language for user-supplied functions.

Grammar (EBNF)::

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | IDENT | IDENT '(' expr (',' expr)? ')' | '(' expr ')'

'^' binds tightest and is right-associative, then unary minus, then '*'
and '/', then '+' and '-'.  IDENT is either the single bound variable or
one of the built-in functions.  Numeric literals are decimal with an
optional exponent and evaluate to binary doubles.

Expressions are immutable after parsing and evaluation is pure, so they
are safe to share across threads.  Evaluation either returns a finite
float or raises EvalDomainError; non-finite values never escape
unsignaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "ParseError",
    "EvalDomainError",
    "parse",
]

# name -> arity for the built-in functions
FUNCTIONS = {
    "sqrt": 1,
    "exp": 1,
    "ln": 1,
    "tanh": 1,
    "sin": 1,
    "cos": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}


class ParseError(ValueError):
    """Syntax or identifier error, carrying a 1-based source offset."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at offset {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class EvalDomainError(ArithmeticError):
    """Evaluation left the real domain (log/sqrt of a negative, division
    by zero, overflow to a non-finite value)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    pass


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple["Node", ...]


Node = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# Tokenizer

_SINGLE = {"+", "-", "*", "/", "^", "(", ")", ","}


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, position) triples; positions are 1-based."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        pos = i + 1
        if c in _SINGLE:
            tokens.append(("op", c, pos))
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", pos) from None
            tokens.append(("num", text, pos))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], pos))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", pos)
    tokens.append(("eof", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, source: str, var: str):
        self.source = source
        self.var = var
        self.tokens = _tokenize(source)
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, text: str) -> None:
        kind, got, pos = self.peek()
        if kind == "op" and got == text:
            self.advance()
            return
        shown = got if kind != "eof" else "end of input"
        raise ParseError(f"unexpected {shown!r}", pos, expected=(repr(text),))

    def parse(self) -> Node:
        node = self.expr()
        kind, got, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {got!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if text == self.var:
                return Var()
            if text in FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                k2, t2, _ = self.peek()
                if k2 == "op" and t2 == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != FUNCTIONS[text]:
                    raise ParseError(
                        f"{text} expects {FUNCTIONS[text]} argument(s), got {len(args)}",
                        pos,
                    )
                return Call(text, tuple(args))
            raise ParseError(f"unknown identifier {text!r}", pos)
        shown = text if kind != "eof" else "end of input"
        raise ParseError(
            f"unexpected {shown!r}", pos, expected=("number", "identifier", "'('")
        )


# ---------------------------------------------------------------------------
# Serialization (minimal parentheses, stable round trip)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _serialize(node: Node, var: str) -> tuple[str, int]:
    if isinstance(node, Num):
        return repr(node.value), _PREC["atom"]
    if isinstance(node, Var):
        return var, _PREC["atom"]
    if isinstance(node, Neg):
        inner, prec = _serialize(node.operand, var)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(node, Call):
        parts = [_serialize(a, var)[0] for a in node.args]
        return f"{node.fn}({', '.join(parts)})", _PREC["atom"]
    # BinOp
    my = _PREC[node.op]
    left, lp = _serialize(node.left, var)
    right, rp = _serialize(node.right, var)
    if node.op == "^":
        # right-associative, exponent is a unary production
        if lp < _PREC["atom"]:
            left = f"({left})"
        if rp < _PREC["neg"]:
            right = f"({right})"
    else:
        if lp < my:
            left = f"({left})"
        # left-associative: a right child at equal precedence keeps its parens
        if rp <= my:
            right = f"({right})"
    return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}", my


# ---------------------------------------------------------------------------
# Compilation to fast callables

_SCALAR_ENV = {
    "_pow": math.pow,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "ln": math.log,
    "tanh": math.tanh,
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "min": min,
    "max": max,
    "__builtins__": {},
}

# what the scalar callables raise outside the real domain
_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)

_ARRAY_ENV = {
    "_pow": np.power,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "__builtins__": {},
}


def _emit(node: Node, var: str = "v") -> str:
    """Python source for node, its variable named var, run in the names of
    _SCALAR_ENV or _ARRAY_ENV."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return var
    if isinstance(node, Neg):
        return f"(-{_emit(node.operand, var)})"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_emit(a, var) for a in node.args)})"
    if node.op == "^":
        return f"_pow({_emit(node.left, var)}, {_emit(node.right, var)})"
    return f"({_emit(node.left, var)} {node.op} {_emit(node.right, var)})"


class Expression:
    """An immutable parsed expression in one bound variable."""

    __slots__ = ("root", "var", "_scalar", "_array", "_each", "_text")

    def __init__(self, root: Node, var: str):
        self.root = root
        self.var = var
        # one compile; the scalar and array callables share its code object
        code = compile(f"lambda v: {_emit(root)}", "<expr>", "eval")
        self._scalar = eval(code, _SCALAR_ENV)
        self._array = eval(code, _ARRAY_ENV)
        self._each = None  # compiled at the first evaluate_each
        self._text: str | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expression)
            and self.root == other.root
            and self.var == other.var
        )

    def __hash__(self) -> int:
        return hash((self.root, self.var))

    def __repr__(self) -> str:
        return f"Expression({self.serialize()!r}, var={self.var!r})"

    def serialize(self) -> str:
        if self._text is None:
            self._text = _serialize(self.root, self.var)[0]
        return self._text

    def evaluate(self, v: float) -> float:
        """Value at v, or EvalDomainError; never an unsignaled non-finite."""
        try:
            r = self._scalar(v)
        except _DOMAIN_ERRORS as e:
            raise EvalDomainError(f"{self.serialize()} at {v!r}: {e}") from None
        if not math.isfinite(r):
            raise EvalDomainError(f"{self.serialize()} at {v!r}: non-finite result")
        return r

    __call__ = evaluate

    def evaluate_each(self, vs) -> list | None:
        """[evaluate(v) for v in vs], bit for bit, from one pass of code
        generated in the scalar environment at the first call; None where a
        value raises or is non-finite, which evaluate then names."""
        if self._each is None:
            self._each = eval(compile(f"lambda vs: [{_emit(self.root)} for v in vs]", "<expr>", "eval"), _SCALAR_ENV)
        try:
            out = self._each(vs)
        except _DOMAIN_ERRORS:
            return None
        # the sum is finite unless a value is not, or the finite values overflow it
        return out if math.isfinite(sum(out)) or all(map(math.isfinite, out)) else None

    def evaluate_array(self, vs: np.ndarray) -> np.ndarray:
        if type(vs) is not np.ndarray or vs.dtype != np.float64:
            vs = np.asarray(vs, dtype=float)
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                r = self._array(vs)
        except FloatingPointError as e:
            raise EvalDomainError(f"{self.serialize()}: {e}") from None
        if type(r) is not np.ndarray or r.shape != vs.shape:
            # a number: the expression has no variable, or the input is 0-d
            r = np.full_like(vs, float(r))
        if not np.isfinite(r).all():
            raise EvalDomainError(f"{self.serialize()}: non-finite result")
        return r

    @property
    def is_constant(self) -> bool:
        def scan(node: Node) -> bool:
            if isinstance(node, Var):
                return False
            if isinstance(node, Neg):
                return scan(node.operand)
            if isinstance(node, BinOp):
                return scan(node.left) and scan(node.right)
            if isinstance(node, Call):
                return all(scan(a) for a in node.args)
            return True

        return scan(self.root)


def parse(source: str, var: str = "x") -> Expression:
    """Parse source into an Expression bound to the named variable."""
    if not source or not source.strip():
        raise ParseError("empty expression", 1)
    return Expression(_Parser(source, var).parse(), var)
