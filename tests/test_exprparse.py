"""Expression language tests: precedence, totality, round-trips, IEEE eval."""

import math
import random
import string

import pytest

from tsfrac.exprparse import (
    MAX_DEPTH,
    BinOp,
    Call,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
    parse,
)

from oracles import to_str

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
        e = parse("1 - x^2")
        assert isinstance(e, BinOp) and e.op == "-"
        assert isinstance(e.right, BinOp) and e.right.op == "^"

    def test_unary_minus_below_power(self):
        e = parse("-x^2")
        assert isinstance(e, Neg)
        assert isinstance(e.arg, BinOp) and e.arg.op == "^"

    def test_power_right_associative(self):
        e = parse("2^3^2")
        assert isinstance(e.right, BinOp) and e.right.op == "^"
        assert evaluate(e, 0, 0) == 512.0

    def test_mul_before_add(self):
        e = parse("1 + 2*3")
        assert e.op == "+" and evaluate(e, 0, 0) == 7.0

    def test_left_associative_subtraction(self):
        assert evaluate(parse("1 - 2 - 3 - 4"), 0, 0) == -8.0

    def test_two_arg_call(self):
        e = parse("max(0, sin(3.14159265358979*x))")
        assert isinstance(e, Call) and e.name == "max" and len(e.args) == 2

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


class TestRoundTrip:
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
        assert e == Var("x")

    def test_exponents_and_calls_count_as_nesting(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("^".join(["x"] * (MAX_DEPTH + 2)))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("sin(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
        assert evaluate(parse("^".join(["1"] * (MAX_DEPTH + 1))), 0.0, 0.0) == 1.0

    def test_long_unary_minus_chain_parses_and_evaluates(self):
        e = parse("-" * 900 + "x")
        depth = 0
        while isinstance(e, Neg):
            e, depth = e.arg, depth + 1
        assert depth == 900 and e == Var("x")
        assert evaluate(parse("-" * 900 + "x"), 2.0, 0.0) == 2.0
        assert evaluate(parse("-" * 901 + "x"), 2.0, 0.0) == -2.0

    def test_parenthesized_minus_chain_never_crashes(self):
        src = "(" * 150 + "-" * 300 + "x" + ")" * 150
        try:
            parse(src)
        except ParseError as e:
            assert "nested too deeply" in str(e)

    def test_flat_sum_of_five_thousand_terms_evaluates(self):
        e = parse("+".join(["x"] * 5000))
        assert evaluate(e, 1.0, 0.0) == 5000.0
        assert repr(e).startswith("<tsfrac.exprparse.BinOp object")  # no recursion
