"""Expression language tests: precedence, totality, round-trips, IEEE eval."""

import math
import random
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfrac.exprparse import FUNCTIONS, MAX_DEPTH, ParseError, _tokenize, evaluate, parse

from oracles import to_str, tokenize_reference

GOLDEN = [
    "1 - x^2",
    "max(0, sin(3.14159265358979*x))",
    "x*t + 2",
    "abs(-3) + max(1, 2)",
    "-x^2",
    "(-x)^2",
    "2^3^2",
    "(2^3)^2",
    "1/(1 + x^2)",
    "x - t - 1",
    "x - (t - 1)",
    "x*t/2*3",
    "x/(t*2)/3",
    "sqrt(max(0, 1 - x^2))",
    "exp(-4*t)*sin(2*x)",
    "min(x, t)",
    "min(max(x, 0), 1)",
    "-(x + t)",
    "--x",
    "2^-3",
    "x^0.5",
    "0.5*(1 + cos(3.1415926*x))",
    "1e3*x",
    "2.5e-2 + t",
    ".5 + x",
    "x + .25*t",
    "sin(cos(exp(x)))",
    "abs(x - t)",
    "1 - 2 - 3 - 4",
    "1/2/4",
    "x^2^0.5",
    "(1 - x)*(1 + x)",
    "max(1 - x^2, 0)^0.5",
    "3",
    "x",
    "t",
    "-1",
    "-x*t",
    "x*-t",
    "exp(x)^2",
    "sin(x)^2 + cos(x)^2",
    "1 + 2*3^4",
    "(1 + 2)*3^4",
    "((x))",
    "max(min(1, x), min(t, 0))",
    "2*3.14159*x",
    "sqrt(2)",
    "abs(-x)",
    "t^3 - 3*t^2 + 3*t - 1",
    "exp(-(x - 0.5)^2/0.01)",
]


class TestParsePrecedence:
    def test_power_binds_before_subtraction(self):
        assert parse("1 - x^2") == (1.0, "x", 2.0, "^", "-")

    def test_unary_minus_below_power(self):
        assert parse("-x^2") == ("x", 2.0, "^", "neg")

    def test_power_right_associative(self):
        e = parse("2^3^2")
        assert e == (2.0, 3.0, 2.0, "^", "^")
        assert evaluate(e, 0, 0) == 512.0

    def test_mul_before_add(self):
        e = parse("1 + 2*3")
        assert e == (1.0, 2.0, 3.0, "*", "+") and evaluate(e, 0, 0) == 7.0

    def test_each_binary_operator_at_its_level(self):
        assert parse("1 - 2*3") == (1.0, 2.0, 3.0, "*", "-")
        assert parse("1/2 - 3") == (1.0, 2.0, "/", 3.0, "-")
        assert parse("1 - 2/3 + 4*5 - 6") == (1.0, 2.0, 3.0, "/", "-", 4.0, 5.0, "*", "+", 6.0, "-")

    def test_left_associative_subtraction(self):
        assert evaluate(parse("1 - 2 - 3 - 4"), 0, 0) == -8.0

    def test_two_arg_call(self):
        e = parse("max(0, sin(3.14159265358979*x))")
        assert e == (0.0, 3.14159265358979, "x", "*", "sin", "max")

    def test_whitespace_insensitive(self):
        assert parse("1-x^2") == parse("  1   -  x ^ 2 ")


class TestParseErrors:
    def test_truncated_input_offset(self):
        with pytest.raises(ParseError) as info:
            parse("2 *")
        assert info.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as info:
            parse("1 - y")
        assert "y" in str(info.value)
        assert "x" in info.value.expected

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("max(1)")
        with pytest.raises(ParseError):
            parse("sin(1, 2)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(1 + 2")
        with pytest.raises(ParseError):
            parse("1 + 2)")

    def test_stray_character(self):
        with pytest.raises(ParseError) as info:
            parse("1 + $")
        assert info.value.offset == 4

    def test_totality_fuzz(self):
        # arbitrary byte strings parse or raise ParseError, never crash
        rng = random.Random(0)
        alphabet = string.ascii_letters + string.digits + "+-*/^()., \t" + "\x00\xff@#$%"
        parsed = 0
        for _ in range(100_000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            try:
                parse(s)
                parsed += 1
            except ParseError:
                pass
        assert parsed > 0  # some random strings are valid


class TestTokenize:
    # Letters, digits, operators and the characters where the pattern and
    # the character scanner could part: \w admits the numerics ² ½ Ⅷ ٣ and
    # the letters 三 é, and \s and str.isspace must agree on \xa0 and \x1c.
    ALPHABET = ("xtsinmaqrpcob" + string.digits + "+-*/^(),eE._" + " \t\n\xa0\x1c\x00$"
                + "²½Ⅷ٣三é")

    @staticmethod
    def scan(tokenize, src):
        try:
            return tokenize(src)
        except ParseError as e:
            return str(e), e.offset, e.expected

    def test_matches_the_character_scanner(self):
        rng = random.Random(33)
        errors = 0
        for _ in range(100_000):
            src = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 12)))
            got = self.scan(_tokenize, src)
            assert got == self.scan(tokenize_reference, src), src
            errors += isinstance(got, tuple)
        assert 0 < errors < 100_000  # both outcomes are exercised

    @pytest.mark.parametrize("ch", "²½Ⅷ٣")
    def test_name_cannot_start_with_a_numeric(self, ch):
        with pytest.raises(ParseError, match=f"unexpected character '{ch}' at offset 2"):
            _tokenize("x*" + ch + "x")
        assert _tokenize("x" + ch) == [("name", "x" + ch, 0), ("end", "", 2)]

    def test_numbers(self):
        assert [t[1] for t in _tokenize("1.e5 .5e+x 2.5E-3 7e")] == [
            "1.e5", ".5", "e", "+", "x", "2.5E-3", "7", "e", ""]


def _programs():
    """Programs over the whole grammar whose literals parse can produce: finite and >= +0.0."""
    leaves = st.one_of(
        st.sampled_from([("x",), ("t",)]),
        st.floats(min_value=0.0, allow_infinity=False).map(lambda v: (v,)),  # no -0.0
    )
    unary = st.sampled_from([f for f, k in FUNCTIONS.items() if k == 1])
    binary = st.sampled_from([f for f, k in FUNCTIONS.items() if k == 2])

    def extend(sub):
        return st.one_of(
            sub.map(lambda a: a + ("neg",)),
            st.builds(lambda op, a, b: a + b + (op,), st.sampled_from("+-*/^"), sub, sub),
            st.builds(lambda f, a: a + (f,), unary, sub),
            st.builds(lambda f, a, b: a + b + (f,), binary, sub, sub),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestRoundTrip:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(p=_programs())
    def test_printer_inverts_parse(self, p):
        assert parse(to_str(p)) == p

    @pytest.mark.parametrize("src", GOLDEN)
    def test_pretty_print_fixed_point(self, src):
        tree = parse(src)
        printed = to_str(tree)
        assert parse(printed) == tree
        assert to_str(parse(printed)) == printed

    @pytest.mark.parametrize("src", GOLDEN)
    def test_print_preserves_value(self, src):
        tree = parse(src)
        printed = to_str(tree)
        for x, t in ((0.3, 0.7), (-0.5, 0.0), (1.5, 2.0)):
            v1 = evaluate(tree, x, t)
            v2 = evaluate(parse(printed), x, t)
            assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))


class TestEvaluate:
    def test_examples(self):
        assert evaluate(parse("1 - x^2"), 0.0, 0.0) == 1.0
        assert evaluate(parse("x*t + 2"), 2.0, 3.0) == 8.0
        assert evaluate(parse("abs(-3) + max(1, 2)"), 0.0, 0.0) == 5.0

    def test_purity(self):
        e = parse("sin(x*t) - exp(-t)")
        vals = {evaluate(e, 0.4, 1.2) for _ in range(10)}
        assert len(vals) == 1

    def test_division_conventions(self):
        assert evaluate(parse("1/x"), 0.0, 0.0) == math.inf
        assert evaluate(parse("-1/x"), 0.0, 0.0) == -math.inf
        assert math.isnan(evaluate(parse("x/x"), 0.0, 0.0))
        assert math.isnan(evaluate(parse("sqrt(-1 + x)"), 0.0, 0.0))

    def test_power_semantics(self):
        assert evaluate(parse("x^3"), -2.0, 0.0) == -8.0
        assert evaluate(parse("x^0.5"), 4.0, 0.0) == pytest.approx(2.0, rel=1e-15)
        assert math.isnan(evaluate(parse("x^0.5"), -1.0, 0.0))
        assert evaluate(parse("2^-3"), 0.0, 0.0) == 0.125
        assert evaluate(parse("x^0"), 0.0, 0.0) == 1.0

    def test_getoor_profile_accuracy(self):
        # repeated-multiplication and exp*log paths agree with math.pow
        e = parse("(1 - x^2)^0.75")
        for x in (0.0, 0.3, 0.9):
            assert evaluate(e, x, 0.0) == pytest.approx((1 - x * x) ** 0.75, rel=1e-15)

    def test_inf_propagates(self):
        assert math.isnan(evaluate(parse("sin(1/x)"), 0.0, 0.0))
        assert evaluate(parse("exp(1/x)"), 0.0, 0.0) == math.inf


class TestNestingLimit:
    def test_parentheses_past_the_limit_raise_with_offset(self):
        src = "(" * 400 + "x" + ")" * 400
        with pytest.raises(ParseError) as info:
            parse(src)
        assert info.value.offset == MAX_DEPTH
        assert str(info.value) == f"expression nested too deeply at offset {MAX_DEPTH}"

    def test_parentheses_at_the_limit_parse(self):
        e = parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH)
        assert e == ("x",)

    def test_exponents_and_calls_count_as_nesting(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("^".join(["x"] * (MAX_DEPTH + 2)))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("sin(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
        assert evaluate(parse("^".join(["1"] * (MAX_DEPTH + 1))), 0.0, 0.0) == 1.0

    def test_long_unary_minus_chain_parses_and_evaluates(self):
        assert parse("-" * 900 + "x") == ("x",) + ("neg",) * 900
        assert evaluate(parse("-" * 900 + "x"), 2.0, 0.0) == 2.0
        assert evaluate(parse("-" * 901 + "x"), 2.0, 0.0) == -2.0

    @pytest.mark.parametrize("src", [
        "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "sin(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "^".join(["x"] * (MAX_DEPTH + 1)),
        "1 + 2*(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    ], ids=["parentheses", "calls", "exponents", "sums-of-products"])
    def test_nesting_at_the_limit_takes_at_most_six_frames_a_level(self, src):
        # 507 frames for MAX_DEPTH parentheses (5 a level); one frame per precedence level took 608
        depth = deepest = 0

        def profile(frame, event, arg):
            nonlocal depth, deepest
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            parse(src)
        finally:
            sys.setprofile(outer)
        assert deepest <= 6 * MAX_DEPTH + 10

    def test_parenthesized_minus_chain_never_crashes(self):
        src = "(" * 150 + "-" * 300 + "x" + ")" * 150
        try:
            parse(src)
        except ParseError as e:
            assert "nested too deeply" in str(e)

    def test_flat_sum_of_five_thousand_terms_evaluates(self):
        e = parse("+".join(["x"] * 5000))
        assert evaluate(e, 1.0, 0.0) == 5000.0
        assert repr(e).count("'+'") == 4999  # a flat program, no recursion

    def test_flat_sum_of_five_thousand_terms_compares_and_hashes(self):
        src = "+".join(["x"] * 5000)
        e = parse(src)
        assert e == parse(src) and hash(e) == hash(parse(src))
        assert e != parse(src[:-1] + "t") and e != parse(src + "+x")
        assert len({e, parse(src), parse(src[:-1] + "t")}) == 2
