"""Coefficient expressions: lexer, Pratt parser, and vectorized evaluation.

The CLI accepts the diffusion coefficients a(x), b(x) as infix arithmetic in
one free variable x, with the constants pi and e and the functions exp, log,
sqrt, sin, cos, abs, pow built in.  Precedence is the standard one
(^ right-associative, then unary minus, then * /, then + -), so -x^2 parses
as -(x^2) while 2^-3 is accepted.  The lexer is one regular expression:
numbers are decimal digits with at most one dot and an optional exponent,
and an identifier starts with a letter or "_" and holds no digit that is
not decimal ("x²" is a LexError).  Text nested deeper than MAX_DEPTH levels
is a ParseError.

Parsing and evaluation are pure; an AST is frozen after construction and can
be evaluated concurrently.  Evaluation is one walk of the tree on numpy
arrays (``walk``), in which a subtree without x stays 0-d and is broadcast;
``evaluate`` runs it on a scalar, giving a float, or on an array, giving an
array of its shape.
"""

from __future__ import annotations

import math
import re
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

#: Deepest nesting a parsed expression may have, counted both as the parser's
#: recursion and as the levels of the finished tree: walk and to_text recurse
#: once or twice a level, and must stay within Python's recursion limit.
MAX_DEPTH = 400

Number = Union[float, np.ndarray]


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "identifier" | "operator" | "paren" | "function-name"
    lexeme: str
    pos: int


# One alternative per token kind, tried in order, then any other character.
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<identifier>\w+)"
    r"|(?P<operator>[-+*/^,])|(?P<paren>[()])|(?P<bad>.)",
    re.S,
)


def _bad_in_name(name: str) -> int | None:
    """Index of the first character a name may not hold where it stands, or
    None.  A name starts with a letter or "_"; after that it may hold any
    character str.isalnum() accepts except a digit that is not decimal, so
    "x²" is an error at the "²", as "²" alone is."""
    if not (name[0].isalpha() or name[0] == "_"):
        return 0
    return next((i for i, c in enumerate(name) if c.isdigit() and not c.isdecimal()), None)


def tokenize(text: str) -> list[Token]:
    """Split expression source into tokens; reject any character outside the grammar."""
    if not text:
        raise LexError("empty expression", 0)
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        bad = 0 if kind == "bad" else _bad_in_name(lexeme) if kind == "identifier" else None
        if bad is not None:
            raise LexError(f"unexpected character {lexeme[bad]!r}", m.start() + bad)
        if kind != "space":
            tokens.append(Token("function-name" if lexeme in FUNCTIONS else kind, lexeme, m.start()))
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
        self.depth = 0

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
        if self.depth == MAX_DEPTH:
            raise _too_deep(self.advance().pos)
        self.depth += 1
        left = self.nud(self.advance())
        while True:
            tok = self.peek()
            if tok is None or tok.lexeme not in _LBP or _LBP[tok.lexeme] <= rbp:
                break
            self.advance()
            op = tok.lexeme
            right = self.expression(_POW_BP - 1 if op == "^" else _LBP[op])
            left = Bin(op, left, right, tok.pos)
        self.depth -= 1
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


def _too_deep(pos: int) -> ParseError:
    return ParseError(f"expression nested more than {MAX_DEPTH} levels deep", pos)


def parse(tokens: list[Token]) -> ExprAst:
    """Parse a token sequence into an AST; the whole input must be consumed,
    and neither the parser nor the tree may nest deeper than MAX_DEPTH."""
    parser = _Parser(tokens)
    ast = parser.expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected {trailing.lexeme!r}", trailing.pos)
    # a chain such as x+x+...+x grows the tree in the parser's loop, not its
    # recursion; the error names the leftmost node past the bound
    stack, leftmost = [(ast, 1)], math.inf
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            leftmost = min(leftmost, node.pos)
        kids = (
            (node.left, node.right) if isinstance(node, Bin)
            else (node.child,) if isinstance(node, Neg)
            else getattr(node, "args", ())  # a Call's, or none
        )
        stack.extend((kid, depth + 1) for kid in kids)
    if leftmost < math.inf:
        raise _too_deep(leftmost)
    return ast


def parse_expression(text: str) -> ExprAst:
    return parse(tokenize(text))


# ---------------------------------------------------------------------------
# Evaluation


def _fail(message: str, node, x: np.ndarray, bad) -> None:
    """Raise DomainError naming node and the smallest x at which bad holds;
    bad has x's shape, or is 0-d under a subtree without x."""
    where = float(x[np.broadcast_to(bad, x.shape)].min())
    raise DomainError(f"{message} in node at offset {node.pos} (x={where!r})", where)


def evaluate(ast: ExprAst, x: Number) -> Number:
    """Evaluate at a scalar or numpy array; IEEE semantics, deterministic.

    A scalar x gives a float, an array x an array of its shape (a new one
    unless the expression is x itself); both come from one walk.  Raises
    DomainError (naming the offending node and the smallest x it fails at)
    for log of a non-positive value, sqrt of a negative, division by zero,
    and 0 or a negative base raised to a bad power.
    """
    xs = np.asarray(x, dtype=float)
    v = walk(ast, xs)
    if not isinstance(x, np.ndarray):
        return float(v)
    return v if np.shape(v) == xs.shape else np.full(xs.shape, v)


_UFUNCS = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "abs": np.abs,
}


def walk(ast: ExprAst, x: np.ndarray) -> Number:
    """ast at the float array x, broadcastable to its shape: a subtree
    without x stays 0-d, so numpy computes it once, broadcasts it, and takes
    np.power's scalar loops for a constant exponent."""
    if isinstance(ast, Num):
        return np.float64(ast.value)
    if isinstance(ast, Var):
        return x
    if isinstance(ast, Neg):
        return -walk(ast.child, x)
    if not isinstance(ast, (Bin, Call)):
        raise TypeError(f"not an ExprAst: {ast!r}")
    op, args = (ast.op, (ast.left, ast.right)) if isinstance(ast, Bin) else (ast.name, ast.args)
    v = [walk(arg, x) for arg in args]
    if op in ("^", "pow"):
        return _power(*v, ast, x)
    if op == "/" and np.any(bad := v[1] == 0):
        _fail("division by zero", ast, x, bad)
    if op == "log" and np.any(bad := ~(v[0] > 0)):
        _fail("log of non-positive value", ast, x, bad)
    if op == "sqrt" and np.any(bad := v[0] < 0):
        _fail("sqrt of negative value", ast, x, bad)
    with np.errstate(over="ignore"):
        return _UFUNCS[op](*v)


def _power(base: Number, expo: Number, node, x: np.ndarray) -> Number:
    neg = expo < 0  # the base is read only where the exponent can make it a domain error
    if np.any(neg) and np.any(bad := (base == 0) & neg):
        _fail("0 raised to a negative power", node, x, bad)
    frac = expo != np.round(expo)
    if np.any(frac) and np.any(bad := (base < 0) & frac):
        _fail("negative base with non-integer exponent", node, x, bad)
    with np.errstate(over="ignore"):
        return np.power(base, expo)


# ---------------------------------------------------------------------------
# Printing (round-trips through parse to a structurally identical tree)


def _prec(ast: ExprAst) -> int:
    if isinstance(ast, Bin):
        return _LBP[ast.op]
    if isinstance(ast, Neg):
        return _UNARY_BP
    return 100


def to_text(ast: ExprAst) -> str:
    """Render with parentheses chosen so parse(to_text(t)) == t structurally.

    Each parenthesis added costs the parser a level, so a tree whose printing
    adds one a level (a right-nested - or / chain) may not parse back once it
    is more than about MAX_DEPTH / 2 deep; a chain of negations prints as --x
    and adds none.
    """
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return "x"
    if isinstance(ast, Neg):
        inner = to_text(ast.child)
        # a lower-precedence child would rebind: -(x+1) vs -x+1.  A Neg child
        # needs none, as --x parses back to Neg(Neg(x))
        if _prec(ast.child) < _UNARY_BP:
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
        return f"{ast.name}({', '.join([to_text(a) for a in ast.args])})"
    raise TypeError(f"not an ExprAst: {ast!r}")


# ---------------------------------------------------------------------------
# Presets


#: Built-in coefficient pairs that bypass parsing.
PRESETS: dict[str, tuple[ExprAst, ExprAst]] = {
    "laplacian": (Num(1.0), Num(0.0)),
    "ou": (Num(1.0), Neg(Var())),
}
