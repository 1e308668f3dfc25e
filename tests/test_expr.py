import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ast, strip_positions
from eigenbound import expr
from eigenbound.errors import DomainError, LexError, ParseError


# The hand-written scanner that tokenize replaced, frozen here: tokenize must
# give its tokens, or its LexError offset, on every input without a character
# that str.isdigit accepts and float rejects.
def _frozen_tokenize(text):
    if not text:
        raise LexError("empty expression", 0)
    tokens = []
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
            tokens.append(expr.Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            kind = "function-name" if name in expr.FUNCTIONS else "identifier"
            tokens.append(expr.Token(kind, name, i))
            i = j
            continue
        if c in "+-*/^,":
            tokens.append(expr.Token("operator", c, i))
            i += 1
            continue
        if c in "()":
            tokens.append(expr.Token("paren", c, i))
            i += 1
            continue
        raise LexError(f"unexpected character {c!r}", i)
    return tokens


# the grammar's characters, letters and decimal digits outside ASCII (é ß ٣ １),
# numerics that are not digits (½ ⅷ), and whitespace outside ASCII
_SCANNER_ALPHABET = "x0123456789+-*/^(),. eEpilogsqrtcanbw_$\t\n" + "éß٣１½ⅷ\xa0\x1c\x85"


def _tokens_or_offset(tokenizer, text):
    try:
        return [(t.kind, t.lexeme, t.pos) for t in tokenizer(text)]
    except LexError as exc:
        return exc.offset


class TestTokenize:
    def test_seven_tokens(self):
        toks = expr.tokenize("x*(1-x)")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("identifier", "x"),
            ("operator", "*"),
            ("paren", "("),
            ("number", "1"),
            ("operator", "-"),
            ("identifier", "x"),
            ("paren", ")"),
        ]

    def test_function_name_kind(self):
        toks = expr.tokenize("exp(-x^2/2)")
        assert ("function-name", "exp") in [(t.kind, t.lexeme) for t in toks]

    def test_forbidden_character_offset(self):
        with pytest.raises(LexError) as err:
            expr.tokenize("1 + $")
        assert err.value.offset == 4

    def test_positions_increase_and_lexemes_cover_input(self):
        src = "exp(-x^2/2) + 3.5e-1*x"
        toks = expr.tokenize(src)
        positions = [t.pos for t in toks]
        assert positions == sorted(positions) and len(set(positions)) == len(positions)
        assert "".join(t.lexeme for t in toks) == src.replace(" ", "")

    def test_empty_input(self):
        with pytest.raises(LexError):
            expr.tokenize("")

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=_SCANNER_ALPHABET, max_size=40))
    def test_tokens_match_the_frozen_scanner(self, text):
        assert _tokens_or_offset(expr.tokenize, text) == _tokens_or_offset(_frozen_tokenize, text)

    @pytest.mark.parametrize("text, offset", [
        ("²", 0), ("1²", 1), ("x*⁵", 2), ("①", 0), ("x²", 1), ("1e²", 2), ("sin(x_²)", 6),
    ])
    def test_digit_that_is_not_decimal_is_a_lex_error(self, text, offset):
        with pytest.raises(LexError, match=f"unexpected character {text[offset]!r}") as err:
            expr.parse_expression(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize("name", ["x2", "x_1", "é", "x½"])
    def test_other_names_stay_unknown_identifiers(self, name):
        assert [(t.kind, t.lexeme) for t in expr.tokenize(name)] == [("identifier", name)]
        with pytest.raises(ParseError, match=f"unknown identifier {name!r}"):
            expr.parse_expression(name)


class TestParse:
    def test_precedence(self):
        ast = expr.parse_expression("1+2*x")
        assert ast == expr.Bin(
            "+", expr.Num(1.0, 0), expr.Bin("*", expr.Num(2.0, 2), expr.Var(4), 3), 1
        )

    def test_power_right_associative(self):
        assert expr.evaluate(expr.parse_expression("2^3^2"), 0.0) == 512.0

    def test_malformed_offset(self):
        with pytest.raises(ParseError) as err:
            expr.parse_expression("1+*x")
        assert err.value.offset == 2

    @pytest.mark.parametrize("bad", ["(1+x", "1+x)", "x 1", "pow(x)", "sin(x,1)", "y+1", "1+"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            expr.parse_expression(bad)

    def test_unary_minus_binds_looser_than_power(self):
        assert expr.evaluate(expr.parse_expression("-x^2"), 2.0) == -4.0
        assert expr.evaluate(expr.parse_expression("2^-3"), 0.0) == 0.125

    def test_depth_bounded_by_input(self):
        deep = "(" * 200 + "x" + ")" * 200
        assert expr.parse_expression(deep) == expr.Var(200)

    # text nested n levels deep, in the parser's recursion, the tree's levels, or both
    _NESTED = {
        "parentheses": lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),
        "calls": lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1),
        "powers": lambda n: "x" + "^x" * (n - 1),
        "negations": lambda n: "-" * (n - 1) + "x",
        "sum": lambda n: "x" + "+x" * (n - 1),
    }

    @pytest.mark.parametrize("kind", _NESTED)
    def test_nesting_at_the_bound_parses_walks_and_prints(self, kind):
        ast = expr.parse_expression(self._NESTED[kind](expr.MAX_DEPTH))
        assert np.all(np.isfinite(expr.walk(ast, np.array([0.5, 1.0]))))
        assert expr.to_text(ast)

    @pytest.mark.parametrize("kind", _NESTED)
    def test_nesting_past_the_bound_is_a_parse_error(self, kind):
        with pytest.raises(ParseError, match=f"nested more than {expr.MAX_DEPTH} levels"):
            expr.parse_expression(self._NESTED[kind](expr.MAX_DEPTH + 1))

    @pytest.mark.parametrize("text, offset", [
        ("1" + "+0*x" * 999, 0),  # a sum's tree: its leftmost node past the bound
        ("(" * 1500 + "x" + ")" * 1500, 400),  # the parser's recursion: the token it stops at
    ])
    def test_nesting_error_names_the_leftmost_node_past_the_bound(self, text, offset):
        with pytest.raises(ParseError) as err:
            expr.parse_expression(text)
        assert err.value.offset == offset

    def test_long_sum_parses(self):
        ast = expr.parse_expression("1" + "+0*x" * 299)
        assert expr.evaluate(ast, 0.5) == 1.0


class TestEvaluate:
    @pytest.mark.parametrize(
        "src,x,val",
        [
            ("x*(1-x)", 0.5, 0.25),
            ("exp(-x^2/2)", 0.0, 1.0),
            ("pi", 0.0, math.pi),
            ("e", 0.0, math.e),
            ("pow(x, 3)", 2.0, 8.0),
            ("abs(-x)", 2.5, 2.5),
            ("sqrt(x)", 4.0, 2.0),
            ("sin(x)^2 + cos(x)^2", 0.7, 1.0),
        ],
    )
    def test_values(self, src, x, val):
        assert expr.evaluate(expr.parse_expression(src), x) == pytest.approx(val, rel=1e-14)

    @pytest.mark.parametrize("src,x", [("log(x)", 0.0), ("1/x", 0.0), ("x^-1", 0.0), ("sqrt(-x)", 1.0)])
    def test_domain_errors(self, src, x):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse_expression(src), x)

    def test_array_matches_scalar(self):
        ast = expr.parse_expression("exp(-x^2/2) * (1 + sin(x))")
        xs = np.linspace(0.1, 3.0, 17)
        arr = expr.evaluate(ast, xs)
        assert arr == pytest.approx([expr.evaluate(ast, float(x)) for x in xs])

    def test_pure_and_deterministic(self):
        ast = expr.parse_expression("exp(x)*sin(x) - x/7")
        a = expr.evaluate(ast, 1.2345)
        b = expr.evaluate(ast, 1.2345)
        assert a == b  # bit-identical

    @pytest.mark.parametrize("src, ref", [
        ("x^2", lambda x: x * x), ("pow(x, 2)", lambda x: x * x),
        ("x^0.5", np.sqrt), ("x^(1/2)", np.sqrt), ("pow(x, 0.5)", np.sqrt),
    ])
    def test_constant_exponent_takes_the_scalar_power(self, src, ref):
        xs = np.linspace(0.0, 50.0, 28_001)
        assert np.array_equal(expr.evaluate(expr.parse_expression(src), xs), ref(xs))

    @pytest.mark.parametrize("src, message", [
        ("0^-1", "0 raised to a negative power"), ("(-1)^0.5", "negative base with non-integer exponent"),
        ("pow(x - 1, 0.5)", "negative base with non-integer exponent"), ("x^-1", "0 raised to a negative power"),
    ])
    def test_constant_exponent_domain_errors_name_x(self, src, message):
        xs = np.linspace(0.0, 0.5, 11)
        with pytest.raises(DomainError, match=rf"{message} in node at offset \d+ \(x=0\.0\)"):
            expr.evaluate(expr.parse_expression(src), xs)
        with pytest.raises(DomainError, match=rf"{message} .*\(x=0\.0\)"):
            expr.evaluate(expr.parse_expression(src), 0.0)

    def test_domain_error_names_node(self):
        with pytest.raises(DomainError, match="offset"):
            expr.evaluate(expr.parse_expression("1 + log(x-2)"), 1.0)


class TestEvaluateContract:
    """One walk serves both inputs: a float for a scalar, an array of x's shape for an array."""

    @pytest.mark.parametrize("src", [
        "2", "pi", "x", "-x", "x + 1", "x - 1", "2*x", "x/2", "x^2", "pow(x, 3)", "2^0.5",
        "exp(x)", "log(x)", "sqrt(x)", "sin(x)", "cos(x)", "abs(x)", "exp(1)", "sin(1)*x",
    ])
    def test_scalar_gives_a_python_float(self, src):
        assert type(expr.evaluate(expr.parse_expression(src), 0.7)) is float

    @pytest.mark.parametrize("src", ["2", "-pi", "exp(1)", "2^0.5", "pow(2, 3)", "1/4"])
    def test_constant_on_an_array_is_a_fresh_array_of_its_shape(self, src):
        ast = expr.parse_expression(src)
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        first = expr.evaluate(ast, x)
        assert first.shape == x.shape and first.dtype == float and first.flags.writeable
        assert np.all(first == expr.evaluate(ast, 0.5))
        first[:] = -1.0
        assert np.all(expr.evaluate(ast, x) == expr.evaluate(ast, 0.5))

    def test_domain_error_names_the_smallest_bad_x_of_a_node_major_array(self):
        # (7, P): row j holds node j of every panel, so row order is not x order
        t = np.linspace(0.0, 1.0, 7 * 40).reshape(40, 7).T
        bad = (t - 0.31) * (t - 0.7) < 0
        assert t.ravel()[np.argmax(bad.ravel())] != t[bad].min()
        with pytest.raises(DomainError, match=re.escape(f"(x={float(t[bad].min())!r})")):
            expr.evaluate(expr.parse_expression("sqrt((x-0.31)*(x-0.7))"), t)

    @pytest.mark.parametrize("x", [np.array([0.9, 0.25, 0.5]), np.linspace(0.1, 1.0, 14).reshape(2, 7).T, 0.25])
    def test_domain_error_under_a_constant_subtree_names_the_smallest_x(self, x):
        with pytest.raises(DomainError, match=re.escape(f"division by zero in node at offset 1 (x={float(np.min(x))!r})")):
            expr.evaluate(expr.parse_expression("1/0*x"), x)


class TestRoundTrip:
    def test_seeded_fuzz_1000(self):
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            ast = random_ast(rng, depth=5)
            text = expr.to_text(ast)
            assert strip_positions(expr.parse_expression(text)) == ast, text

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_hypothesis_roundtrip(self, seed, depth):
        ast = random_ast(np.random.default_rng(seed), depth)
        assert strip_positions(expr.parse_expression(expr.to_text(ast))) == ast

    def test_negations_at_the_bound_round_trip(self):
        # a negated negation prints as --x: parentheses would double the depth
        text = "-" * (expr.MAX_DEPTH - 1) + "x"
        printed = expr.to_text(expr.parse_expression(text))
        assert printed == text
        assert expr.to_text(expr.parse_expression(printed)) == text

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="x123+-*/^(), .epilogsqrtcanbw²½", max_size=40))
    def test_fuzzed_text_never_hangs(self, text):
        try:
            expr.parse_expression(text)
        except (LexError, ParseError):
            pass

    def test_fuzzed_token_sequences_bounded_recursion(self):
        pool = [
            expr.Token("number", "2", 0),
            expr.Token("identifier", "x", 0),
            expr.Token("function-name", "sin", 0),
            expr.Token("operator", "+", 0),
            expr.Token("operator", "-", 0),
            expr.Token("operator", "*", 0),
            expr.Token("operator", "^", 0),
            expr.Token("operator", ",", 0),
            expr.Token("paren", "(", 0),
            expr.Token("paren", ")", 0),
        ]
        rng = np.random.default_rng(5)
        for _ in range(500):
            toks = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 64))]
            try:
                expr.parse(toks)
            except ParseError:
                pass


class TestPresets:
    def test_presets_evaluate(self):
        a, b = expr.PRESETS["laplacian"]
        assert expr.evaluate(a, 0.3) == 1.0 and expr.evaluate(b, 0.3) == 0.0
        a, b = expr.PRESETS["ou"]
        assert expr.evaluate(a, 0.3) == 1.0 and expr.evaluate(b, 0.3) == -0.3
