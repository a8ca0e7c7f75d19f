"""The array evaluator against the scalar walk in tests/oracles.py.

``exprparse.evaluate`` samples an expression on a whole node array at
once.  Outside exp and non-integer powers it must agree with the scalar
walk bit for bit, element by element: same value, same sign bit, nan
where the walk gives nan.  exp and exp*log powers go through numpy's
exp and log, so there the bound is in ulps.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import evaluate_reference

from tsfrac.exprparse import evaluate, parse

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 0.5, -2.5, 3.0]
SPECIALS += [1e300, -1e300, math.inf, -math.inf]


def bitwise_equal(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Elementwise: same bits, or both nan (whatever their payload)."""
    both_nan = np.isnan(got) & np.isnan(want)
    return both_nan | (got.view(np.int64) == want.view(np.int64))


def ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between same-signed finite doubles."""
    return np.abs(got.view(np.int64) - want.view(np.int64))


def _trees():
    """Programs without exp or non-integer powers; exponents are integer literals."""
    unary = st.sampled_from(["sin", "cos", "abs", "sqrt"])  # exp is held to an ulp bound below
    leaves = st.one_of(
        st.sampled_from([("x",), ("t",)]),
        st.floats(-1e3, 1e3).map(lambda v: (v,)),
    )

    def extend(sub):
        return st.one_of(
            sub.map(lambda a: a + ("neg",)),
            st.builds(lambda op, a, b: a + b + (op,), st.sampled_from("+-*/"), sub, sub),
            st.builds(lambda a, k: a + (float(k), "^"), sub, st.integers(-64, 64)),
            st.builds(lambda f, a: a + (f,), unary, sub),
            st.builds(lambda f, a, b: a + b + (f,), st.sampled_from(["max", "min"]), sub, sub),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    e=_trees(),
    extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
    t=st.sampled_from([0.0, -0.0, 0.25, -3.0, 1e-300, math.inf]) | st.floats(-10, 10),
)
def test_matches_scalar_walk_bitwise(e, extra, t):
    xs = np.array(SPECIALS + extra)
    want = np.array([evaluate_reference(e, x, t) for x in xs])
    got = evaluate(e, xs, t)
    assert got.shape == xs.shape
    assert bitwise_equal(got, want).all()


class TestArrayEvaluate:
    def test_scalar_inputs_give_a_float(self):
        v = evaluate(parse("x + t"), 1, 2)
        assert type(v) is float and v == 3.0

    def test_constant_fills_the_broadcast_shape(self):
        out = evaluate(parse("-0"), np.zeros(5), 0.0)
        assert out.shape == (5,)
        assert bitwise_equal(out, np.full(5, -0.0)).all()

    def test_result_does_not_alias_the_input(self):
        xs = np.array([1.0, 2.0])
        out = evaluate(parse("x"), xs, 0.0)
        out[0] = 7.0
        assert xs[0] == 1.0

    def test_row_of_x_and_column_of_t_broadcast(self):
        e = parse("x*t - max(x, t)^2")
        xs, ts = np.linspace(-1, 1, 5), np.linspace(0, 1, 3)
        out = evaluate(e, xs, ts[:, None])
        assert out.shape == (3, 5)
        want = np.array([[evaluate_reference(e, x, t) for x in xs] for t in ts])
        assert bitwise_equal(out, want).all()

    def test_array_exponent_takes_each_elements_rule(self):
        e = parse("x^t")
        xs = np.array([2.0, -2.0, 0.0, -0.0, 3.0, 2.0, -2.0, 0.0, 0.0, 2.0])
        ts = np.array([3.0, -3.0, -1.0, -1.0, 0.0, 64.0, 0.5, 0.5, -0.5, 65.0])
        want = np.array([evaluate_reference(e, x, t) for x, t in zip(xs, ts)])
        assert bitwise_equal(evaluate(e, xs, ts), want).all()

    def test_infinite_and_nan_exponents_do_not_raise(self):
        # the scalar walk raises in int(b) here; the array rules give inf or nan
        out = evaluate(parse("x^(1/t)"), np.array([2.0, 0.5, -2.0, 1.0]), 0.0)
        assert out[0] == math.inf and out[1] == 0.0
        assert np.isnan(out[2]) and np.isnan(out[3])
        assert not np.isfinite(evaluate(parse("x^(t/t)"), np.array([2.0, 0.0]), 0.0)).any()

    def test_no_runtime_warnings(self):
        # pytest turns RuntimeWarning into an error for the whole suite
        e = parse("1/x + sqrt(x) + exp(1/x) + x^0.5 + (x*1e300)^64 + sin(1/x)")
        assert np.isnan(evaluate(e, np.array([0.0, -1.0]), 0.0)).all()


class TestUlpBound:
    def test_exp_within_one_ulp_of_math(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([np.linspace(-745.0, 709.7, 20001), rng.uniform(-50, 50, 20000)])
        got = evaluate(parse("exp(x)"), xs, 0.0)
        want = np.array([math.exp(x) for x in xs])
        assert ulps(got, want).max() <= 1

    def test_three_quarter_power_within_the_log_bound(self):
        # a^b is exp(b log a).  numpy's log differs from libm's by 1 ulp on
        # some inputs; with the rounding of b * log a that moves the exponent
        # by up to 2 |b log a| 2^-52, i.e. up to 4 |b log a| ulps of the result,
        # plus 1 ulp from each exp.  Measured worst here: 3 ulps at x near 9.
        rng = np.random.default_rng(1)
        xs = np.concatenate([np.geomspace(1e-300, 1.0, 20001), rng.uniform(0.0, 10.0, 40000)])
        e = parse("x^0.75")
        want = np.array([evaluate_reference(e, x, 0.0) for x in xs])
        bound = 2.0 + 4.0 * np.abs(0.75 * np.log(xs))
        assert (ulps(evaluate(e, xs, 0.0), want) <= bound).all()
