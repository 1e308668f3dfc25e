"""Coefficient expressions: lexer, Pratt parser, and vectorized evaluation.

The CLI accepts the diffusion coefficients a(x), b(x) as infix arithmetic in
one free variable x, with the constants pi and e and the functions exp, log,
sqrt, sin, cos, abs, pow built in.  Precedence is the standard one
(^ right-associative, then unary minus, then * /, then + -), so -x^2 parses
as -(x^2) while 2^-3 is accepted.

Parsing and evaluation are pure; an AST is frozen after construction and can
be evaluated concurrently.  ``evaluate`` accepts a scalar or a numpy array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, LexError, ParseError

FUNCTIONS = {"exp": 1, "log": 1, "sqrt": 1, "sin": 1, "cos": 1, "abs": 1, "pow": 2}
CONSTANTS = {"pi": math.pi, "e": math.e}

# Binding powers.  '^' is right-associative: its right operand is parsed with
# binding power _POW_BP - 1.  Unary minus sits between '*' and '^'.
_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_POW_BP = 30
_UNARY_BP = 25

Number = Union[float, np.ndarray]


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "identifier" | "operator" | "paren" | "function-name"
    lexeme: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Split expression source into tokens; reject any character outside the grammar."""
    if not text:
        raise LexError("empty expression", 0)
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            kind = "function-name" if name in FUNCTIONS else "identifier"
            tokens.append(Token(kind, name, i))
            i = j
            continue
        if c in "+-*/^,":
            tokens.append(Token("operator", c, i))
            i += 1
            continue
        if c in "()":
            tokens.append(Token("paren", c, i))
            i += 1
            continue
        raise LexError(f"unexpected character {c!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"
    pos: int = 0


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"
    pos: int = 0


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["ExprAst", ...]
    pos: int = 0


ExprAst = Union[Num, Var, Neg, Bin, Call]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def _end_pos(self) -> int:
        if not self.tokens:
            return 0
        last = self.tokens[-1]
        return last.pos + len(last.lexeme)

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._end_pos())
        self.i += 1
        return tok

    def expect(self, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None or tok.lexeme != lexeme:
            pos = tok.pos if tok is not None else self._end_pos()
            raise ParseError(f"expected {lexeme!r}", pos)
        return self.advance()

    def expression(self, rbp: int = 0) -> ExprAst:
        left = self.nud(self.advance())
        while True:
            tok = self.peek()
            if tok is None or tok.lexeme not in _LBP or _LBP[tok.lexeme] <= rbp:
                break
            self.advance()
            op = tok.lexeme
            right = self.expression(_POW_BP - 1 if op == "^" else _LBP[op])
            left = Bin(op, left, right, tok.pos)
        return left

    def nud(self, tok: Token) -> ExprAst:
        if tok.kind == "number":
            return Num(float(tok.lexeme), tok.pos)
        if tok.kind == "identifier":
            if tok.lexeme == "x":
                return Var(tok.pos)
            if tok.lexeme in CONSTANTS:
                return Num(CONSTANTS[tok.lexeme], tok.pos)
            raise ParseError(f"unknown identifier {tok.lexeme!r}", tok.pos)
        if tok.kind == "function-name":
            self.expect("(")
            args = [self.expression()]
            while (nxt := self.peek()) is not None and nxt.lexeme == ",":
                self.advance()
                args.append(self.expression())
            self.expect(")")
            if len(args) != FUNCTIONS[tok.lexeme]:
                raise ParseError(
                    f"{tok.lexeme} takes {FUNCTIONS[tok.lexeme]} argument(s)", tok.pos
                )
            return Call(tok.lexeme, tuple(args), tok.pos)
        if tok.lexeme == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.lexeme == "-":
            return Neg(self.expression(_UNARY_BP), tok.pos)
        if tok.lexeme == "+":
            return self.expression(_UNARY_BP)
        raise ParseError(f"unexpected {tok.lexeme!r}", tok.pos)


def parse(tokens: list[Token]) -> ExprAst:
    """Parse a token sequence into an AST; the whole input must be consumed."""
    parser = _Parser(tokens)
    ast = parser.expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected {trailing.lexeme!r}", trailing.pos)
    return ast


def parse_expression(text: str) -> ExprAst:
    return parse(tokenize(text))


# ---------------------------------------------------------------------------
# Evaluation


def _fail(message: str, node, x, bad_mask=None) -> None:
    where = ""
    if isinstance(x, np.ndarray) and bad_mask is not None:
        idx = np.flatnonzero(bad_mask)
        if idx.size:
            where = f" (x={float(np.ravel(x)[idx[0]])!r})"
    elif not isinstance(x, np.ndarray):
        where = f" (x={x!r})"
    raise DomainError(f"{message} in node at offset {node.pos}{where}")


def evaluate(ast: ExprAst, x: Number) -> Number:
    """Evaluate at a scalar or numpy array; IEEE semantics, deterministic.

    Raises DomainError (naming the offending node) for log of a non-positive
    value, sqrt of a negative, division by zero, and 0 or a negative base
    raised to a bad power.
    """
    is_array = isinstance(x, np.ndarray)
    if isinstance(ast, Num):
        return np.full(np.shape(x), ast.value, dtype=float) if is_array else float(ast.value)
    if isinstance(ast, Var):
        return np.asarray(x, dtype=float) if is_array else float(x)
    if isinstance(ast, Neg):
        return -evaluate(ast.child, x)
    if isinstance(ast, Bin):
        op = ast.op
        lv = evaluate(ast.left, x)
        rv = _exponent(ast.right, x) if op == "^" else evaluate(ast.right, x)
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            bad = np.asarray(rv) == 0
            if np.any(bad):
                _fail("division by zero", ast, x, bad)
            return lv / rv
        return _power(lv, rv, ast, x)
    if isinstance(ast, Call):
        name = ast.name
        if name == "pow":
            return _power(evaluate(ast.args[0], x), _exponent(ast.args[1], x), ast, x)
        v = evaluate(ast.args[0], x)
        if name == "exp":
            with np.errstate(over="ignore"):
                return np.exp(v) if is_array else float(np.exp(v))
        if name == "log":
            bad = ~(np.asarray(v) > 0)
            if np.any(bad):
                _fail("log of non-positive value", ast, x, bad)
            return np.log(v) if is_array else math.log(v)
        if name == "sqrt":
            bad = np.asarray(v) < 0
            if np.any(bad):
                _fail("sqrt of negative value", ast, x, bad)
            return np.sqrt(v) if is_array else math.sqrt(v)
        if name == "sin":
            return np.sin(v) if is_array else math.sin(v)
        if name == "cos":
            return np.cos(v) if is_array else math.cos(v)
        if name == "abs":
            return np.abs(v) if is_array else abs(v)
        raise AssertionError(name)
    raise TypeError(f"not an ExprAst: {ast!r}")


def _has_x(ast: ExprAst) -> bool:
    kids = (ast.child,) if isinstance(ast, Neg) else (ast.left, ast.right) if isinstance(ast, Bin) else ()
    return isinstance(ast, Var) or any(map(_has_x, kids + getattr(ast, "args", ())))


def _exponent(ast: ExprAst, x: Number) -> Number:
    """An exponent at x, a float if it has no x (np.power's scalar loops)."""
    constant = isinstance(x, np.ndarray) and x.size and not _has_x(ast)
    return evaluate(ast, float(x.flat[0]) if constant else x)


def _power(base: Number, expo: Number, node, x) -> Number:
    b = np.asarray(base, dtype=float)
    p = np.asarray(expo, dtype=float)
    neg = p < 0  # the base is read only where the exponent can make it a domain error
    if np.any(neg) and np.any(bad := (b == 0) & neg):
        _fail("0 raised to a negative power", node, x, bad)
    frac = p != np.round(p)
    if np.any(frac) and np.any(bad := (b < 0) & frac):
        _fail("negative base with non-integer exponent", node, x, bad)
    with np.errstate(over="ignore"):
        out = np.power(b, p)
    if not isinstance(base, np.ndarray) and not isinstance(expo, np.ndarray):
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Printing (round-trips through parse to a structurally identical tree)


def _prec(ast: ExprAst) -> int:
    if isinstance(ast, Bin):
        return _LBP[ast.op]
    if isinstance(ast, Neg):
        return _UNARY_BP
    return 100


def to_text(ast: ExprAst) -> str:
    """Render with parentheses chosen so parse(to_text(t)) == t structurally."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return "x"
    if isinstance(ast, Neg):
        inner = to_text(ast.child)
        # a Neg or lower-precedence child would rebind: -(x^2) vs -(x)*2 etc.
        if _prec(ast.child) <= _UNARY_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(ast, Bin):
        op = ast.op
        p = _LBP[op]
        lt = to_text(ast.left)
        rt = to_text(ast.right)
        if op == "^":
            # '^' is right-associative and binds tighter than unary minus:
            # the left operand needs parens at equal precedence or for Neg.
            if _prec(ast.left) <= p:
                lt = f"({lt})"
            if isinstance(ast.right, Bin) and _LBP[ast.right.op] < p:
                rt = f"({rt})"
        else:
            # left-associative operators
            if _prec(ast.left) < p:
                lt = f"({lt})"
            if isinstance(ast.right, Bin) and _LBP[ast.right.op] <= p:
                rt = f"({rt})"
        return f"{lt} {op} {rt}" if op in "+-" else f"{lt}{op}{rt}"
    if isinstance(ast, Call):
        return f"{ast.name}({', '.join(to_text(a) for a in ast.args)})"
    raise TypeError(f"not an ExprAst: {ast!r}")


# ---------------------------------------------------------------------------
# Positivity diagnostics and presets


@dataclass(frozen=True)
class PositivityReport:
    passed: bool
    first_violation_x: float | None = None
    detail: str = ""


def validate_positive(ast: ExprAst, upper: float, samples: int = 200) -> PositivityReport:
    """Check a(x) > 0 on an interior grid of (0, upper), endpoints excluded.

    The coefficient may degenerate at 0 or at the right endpoint, so sampling
    uses midpoints of a uniform partition.  Evaluation domain errors count as
    failures at the offending sample.  All samples are evaluated in one array
    pass; only a failure walks them one at a time, from the first failing
    sample (from the first sample when the array pass raised), so the report
    names the same sample and value as a scalar walk would.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    xs = (np.arange(samples) + 0.5) * (upper / samples)
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(evaluate(ast, xs), dtype=float)
        failed = np.flatnonzero(~(vals > 0) | ~np.isfinite(vals))
        if not failed.size:
            return PositivityReport(True)
        start = int(failed[0])
    except DomainError:
        start = 0
    for xv in xs[start:]:
        try:
            v = evaluate(ast, float(xv))
        except DomainError as exc:
            return PositivityReport(False, float(xv), f"evaluation failed: {exc}")
        if not (v > 0) or not math.isfinite(v):
            return PositivityReport(False, float(xv), f"value {v} at x={xv} is not positive")
    return PositivityReport(True)


#: Built-in coefficient pairs that bypass parsing.
PRESETS: dict[str, tuple[ExprAst, ExprAst]] = {
    "laplacian": (Num(1.0), Num(0.0)),
    "ou": (Num(1.0), Neg(Var())),
}
