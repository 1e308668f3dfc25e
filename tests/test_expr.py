import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ast, strip_positions
from eigenbound import expr
from eigenbound.errors import DomainError, LexError, ParseError


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


class TestValidatePositive:
    def test_constant_passes(self):
        assert expr.validate_positive(expr.parse_expression("1"), 1.0, 100).passed

    def test_sign_change_fails_at_first_bad_sample(self):
        rep = expr.validate_positive(expr.parse_expression("x-0.5"), 1.0, 100)
        assert not rep.passed
        assert rep.first_violation_x == pytest.approx(0.005)

    def test_open_interval_endpoints_excluded(self):
        assert expr.validate_positive(expr.parse_expression("x*(1-x)"), 1.0, 100).passed

    def test_domain_error_counts_as_failure(self):
        rep = expr.validate_positive(expr.parse_expression("log(x-0.5)"), 1.0, 50)
        assert not rep.passed

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            expr.validate_positive(expr.Num(1.0), 1.0, 1)

    @pytest.mark.parametrize("text", ["3-x", "log(x-0.5)", "sqrt(2-x)", "1/(x-1)", "x^2-1"])
    @pytest.mark.parametrize("upper, samples", [(0.5, 64), (4.0, 64), (4.0, 200)])
    def test_array_pass_reports_like_a_scalar_walk(self, text, upper, samples):
        def scalar_walk(ast):
            xs = (np.arange(samples) + 0.5) * (upper / samples)
            for xv in xs:
                try:
                    v = expr.evaluate(ast, float(xv))
                except DomainError as exc:
                    return expr.PositivityReport(False, float(xv), f"evaluation failed: {exc}")
                if not (v > 0) or not math.isfinite(v):
                    return expr.PositivityReport(False, float(xv), f"value {v} at x={xv} is not positive")
            return expr.PositivityReport(True)

        ast = expr.parse_expression(text)
        assert expr.validate_positive(ast, upper, samples) == scalar_walk(ast)


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

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="x123+-*/^(), .epilogsqrtcanbw", max_size=40))
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
