"""Exact symbolic layer: sparse polynomials, rational functions, square roots."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypoint.poly import (
    DivisionByZeroFunction,
    MPoly,
    PoleAtPoint,
    RatFun,
    _DEG_LIMIT,
    poly_exact_sqrt,
    rf_eq,
)

A, B, T, U = (MPoly.var(v) for v in "abtu")


def test_variable_universe_is_closed():
    with pytest.raises(ValueError):
        MPoly.var("x")
    with pytest.raises(ValueError):
        RatFun.var("zz")


def test_normalization_drops_zero_terms_and_unused_vars():
    f = T * T - T * T + A
    assert f.vars == ("a",)
    assert f == A
    assert (T - T).is_zero()


def test_zero_tests_follow_the_ring():
    assert not MPoly() and not (T - T) and not MPoly.const(0)
    assert T and MPoly.const(Fraction(1, 2))
    assert not RatFun(T - T, T) and not (RatFun.var("t") - RatFun.var("t"))
    assert RatFun(1, T) and RatFun.var("a")


def test_variable_order_is_canonical():
    # vars given out of universe order: u first, then t
    f = MPoly(("u", "t"), {1: 1, 1 << 16: 1})
    assert f.vars == ("t", "u") and f == T + U
    assert rf_eq(f, T + U) and rf_eq(RatFun(f, A), RatFun(T + U, A))
    g = MPoly(("u", "a", "t"), {2 | 3 << 32: 5, 1 << 16: -1})
    assert g == 5 * U**2 * T**3 - A
    with pytest.raises(ValueError):
        MPoly(("t", "u", "t"), {1: 1})


def test_known_product():
    f = (T + 1) * (T - 1)
    assert f == T**2 - 1
    assert (T + U) ** 2 == T**2 + 2 * T * U + U**2


def test_scalar_coercion_and_fractions():
    assert T + Fraction(1, 2) == Fraction(1, 2) + T
    f = Fraction(3, 2) * T
    assert f * 2 == 3 * T
    assert (2 * T) - T - T == 0


def test_degree_conventions():
    zero = T - T
    assert zero.degree() == -1
    assert MPoly.const(5).degree() == 0
    assert (T**3 * U + T).degree() == 4
    assert (T**3 * U + T).degree("t") == 3
    assert (T**3 * U + T).degree("u") == 1


def test_evaluate():
    f = T**2 * A - U
    assert f.evaluate({"t": 2, "a": Fraction(1, 4), "u": 3}) == Fraction(-2)
    with pytest.raises(ValueError):
        f.evaluate({"t": 1})


def test_pow_laws():
    f = T + 2 * U + 1
    assert f**0 == 1
    assert f**3 == f * f * f
    with pytest.raises(ValueError):
        f ** (-1)


def test_str_deterministic_and_readable():
    f = 3 * T**2 * U - Fraction(1, 2) * U + 7
    assert str(f) == "3*t^2*u^1 - 1/2*u^1 + 7"
    assert str(MPoly.const(0)) == "0"


def test_ratfun_is_never_reduced():
    num = T**2 - 1
    den = T - 1
    f = RatFun(num, den)
    # the representation keeps exactly what it was given
    assert f.num == num and f.den == den
    assert rf_eq(f, RatFun(T + 1))


def test_ratfun_zero_denominator_rejected():
    with pytest.raises(DivisionByZeroFunction):
        RatFun(T, T - T)
    with pytest.raises(DivisionByZeroFunction):
        RatFun(T) / RatFun(T - T)


def test_ratfun_arithmetic_cross_checks():
    t = RatFun.var("t")
    f = (t**2 - 1) / (t - 1)
    assert f == t + 1
    g = 1 / t + 1 / (t + 1)
    assert rf_eq(g, (2 * t + 1) / (t * (t + 1)))
    assert rf_eq((t / (t + 1)) ** (-2), (t + 1) ** 2 / t**2)


def test_ratfun_substitute_inversion_symmetry():
    t = RatFun.var("t")
    f = (t**2 + 1) / t
    g = f.substitute({"t": 1 / t})
    assert rf_eq(f, g)


def test_substitute_rejects_identically_zero_denominator():
    t = RatFun.var("t")
    f = 1 / (t - 1)
    with pytest.raises(DivisionByZeroFunction):
        f.substitute({"t": RatFun(MPoly.const(1))})


def test_evaluate_pole():
    t = RatFun.var("t")
    f = 1 / (t - 1)
    assert f.evaluate({"t": 2}) == 1
    with pytest.raises(PoleAtPoint):
        f.evaluate({"t": 1})


def test_exact_sqrt_examples():
    assert poly_exact_sqrt(T**4 + 2 * T**2 + 1) == T**2 + 1
    assert poly_exact_sqrt(T**2 + 1) is None
    assert poly_exact_sqrt(Fraction(9, 4) * T**2) == Fraction(3, 2) * T
    assert poly_exact_sqrt(T - T) == MPoly.const(0)
    assert poly_exact_sqrt(T**3) is None
    assert poly_exact_sqrt(-(T**2)) is None
    assert poly_exact_sqrt(MPoly.const(49)) == 7


def test_exact_sqrt_multivariate_rejected():
    with pytest.raises(ValueError):
        poly_exact_sqrt(T * U)


def test_degree_guard():
    with pytest.raises(OverflowError):
        T ** (1 << 15)


def test_normalization_collapses_and_prunes():
    f = MPoly(("t", "u"), {1: 0, 1 << 16: 3})
    assert f.vars == ("u",) and f.terms == {1: 3}
    assert MPoly.const(0).terms == {}
    c = MPoly.const(Fraction(4, 2)).terms[0]
    assert c == 2 and type(c) is int
    assert (T + A) - A == T and ((T + A) - A).vars == ("t",)
    # the guard uses the exact per-variable maximum (here 2^14), not the OR
    # of the exponents (2^15 - 1), so this product still fits
    half = _DEG_LIMIT >> 1
    f = MPoly(("t", "u"), {half << 16: 1, (half - 1) << 16: 1})
    assert (f * U).degree("u") == half + 1
    for key in (_DEG_LIMIT, _DEG_LIMIT << 16):
        with pytest.raises(OverflowError):
            MPoly(("t", "u"), {key: 1, 1: 1})


# --- property tests -------------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw, vars_=("t", "u")):
    terms = draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, 4) for _ in vars_)),
            coeffs,
            max_size=5,
        )
    )
    return MPoly.from_terms(terms, vars_) if terms else MPoly.const(0)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_rf_eq_stable_under_common_factors(f, g):
    base = RatFun(f, MPoly.const(1))
    scale = g * g + 1  # never the zero polynomial
    assert rf_eq(base, RatFun(f * scale, scale))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys(), polys(), st.booleans())
def test_rf_eq_matches_explicit_cross_product(f, g, d, e, same_num):
    assume(not d.is_zero() and not e.is_zero())
    if same_num:
        g = MPoly(f.vars, dict(f.terms))
    shared = rf_eq(RatFun(f, d), RatFun(g, d))
    assert shared == (f == g) == (f * d == g * d)
    assert rf_eq(RatFun(f, d), RatFun(g, e)) == (f * e == g * d)


@settings(max_examples=40, deadline=None)
@given(polys(vars_=("t",)), st.integers(-5, 5), st.integers(-5, 5))
def test_substitution_is_evaluation_compatible(f, num, point):
    # substituting t -> constant then evaluating equals direct evaluation
    g = RatFun(f).substitute({"t": RatFun(MPoly.const(num))})
    assert g.evaluate({}) == Fraction(f.evaluate({"t": num}))
    del point


@settings(max_examples=40, deadline=None)
@given(polys(vars_=("t",)))
def test_exact_sqrt_roundtrip(f):
    sq = f * f
    root = poly_exact_sqrt(sq)
    assert root is not None
    assert root * root == sq
