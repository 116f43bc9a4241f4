"""Exact symbolic layer: sparse polynomials, rational functions, square roots."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypoint import poly
from hypoint.curves import (
    _square_is_product,
    certify_auxiliary,
    certify_three_point,
    certify_two_point,
    identity_rows,
    two_point_symbolic,
)
from hypoint.poly import (
    DivisionByZeroFunction,
    MPoly,
    PoleAtPoint,
    VARS,
    RatFun,
    _DEG_LIMIT,
    _Atom,
    _unpack,
    _VAR_FUNS,
    poly_exact_sqrt,
    rf_eq,
)
from hypoint.survey import degree_stats

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
    assert not (T - T)


def test_zero_tests_follow_the_ring():
    assert not MPoly() and not (T - T) and not MPoly.const(0)
    assert T and MPoly.const(-1) and RatFun(Fraction(1, 2))
    assert not RatFun(T - T, T) and not (RatFun.var("t") - RatFun.var("t"))
    assert RatFun(1, T) and RatFun.var("a")


def test_variable_order_is_canonical():
    # vars given out of universe order: u first, then t
    f = MPoly.from_terms({(1, 0): 1, (0, 1): 1}, ("u", "t"))
    assert f.vars == ("t", "u") and f == T + U
    assert rf_eq(f, T + U) and rf_eq(RatFun(f, A), RatFun(T + U, A))
    g = MPoly.from_terms({(2, 0, 3): 5, (0, 1, 0): -1}, ("u", "a", "t"))
    assert g == 5 * U**2 * T**3 - A
    with pytest.raises(ValueError):
        MPoly.from_terms({(1, 0, 0): 1}, ("t", "u", "t"))
    with pytest.raises(ValueError):
        MPoly.from_terms({(1,): 1}, ("x",))


def test_keys_are_packed_over_the_fixed_universe():
    # limb i of every key holds the exponent of VARS[i], whatever the variables
    assert A.terms == {1: 1} and T.terms == {1 << 64: 1} and U.terms == {1 << 80: 1}
    assert (A * U**3).terms == {1 | 3 << 80: 1} and (U**3).vars == ("u",) and (U**3).degree("u") == 3
    assert MPoly({1 << 80: 3}) == 3 * U and MPoly({1 << 80: 3}).vars == ("u",)
    # a call in the old relative layout, where key 1 meant "u", is refused
    with pytest.raises(TypeError):
        MPoly(("u",), {1: 3})
    with pytest.raises(TypeError):
        MPoly(("u",))
    with pytest.raises(ValueError):
        MPoly.from_terms({(1, 0): 1}, ("u",))
    with pytest.raises(ValueError):
        MPoly.from_terms({(1 << 16,): 1}, ("t",))


def test_known_product():
    f = (T + 1) * (T - 1)
    assert f == T**2 - 1
    assert (T + U) ** 2 == T**2 + 2 * T * U + U**2


def test_scalar_coercion_and_fractions():
    # ints coerce to MPoly; a Fraction coefficient raises TypeError, and the
    # same Fraction goes into a RatFun's c
    assert T + 2 == 2 + T and (2 * T) - T - T == 0
    half = Fraction(1, 2)
    for build in (lambda: MPoly.const(half), lambda: MPoly.const(1.0), lambda: MPoly({1 << 64: half}),
                  lambda: MPoly.from_terms({(1,): half}, ("t",)), lambda: T + half, lambda: half + T,
                  lambda: T - half, lambda: half - T, lambda: T * half, lambda: half * T):
        with pytest.raises(TypeError):
            build()
    t = RatFun(T)
    assert t + half == half + t and rf_eq(t + half, RatFun(2 * T + 1, 2))
    assert rf_eq(t - half, RatFun(2 * T - 1, 2)) and rf_eq(half - t, RatFun(1 - 2 * T, 2))
    assert (t * half).c == half == (half * t).c and rf_eq(t * half, RatFun(T, 2))
    f = Fraction(3, 2) * t
    assert f * 2 == 3 * t
    assert (2 * t) - t - t == 0


def test_mpoly_compares_with_a_fraction_as_ratfun_does():
    # a refused operand is compared as a rational function, never silently
    # unequal; arithmetic with it still raises
    one = MPoly.const(1)
    assert one == Fraction(1) and Fraction(1) == one and RatFun(1) == Fraction(1)
    assert 2 * T == 2 * RatFun(T) and MPoly.const(3) == Fraction(6, 2)
    for other in (Fraction(1, 2), 1.0, "x", None):
        assert one != other and not (one == other) and (RatFun(1) == other) == (one == other)
    with pytest.raises(TypeError):
        one + Fraction(1)


def test_every_coefficient_the_library_builds_is_an_int(monkeypatch):
    # _raw skips validation, so the internal paths are guarded here: every
    # identity row and degree_stats at rational a, b and u, recording the
    # class of each coefficient that reaches _raw
    classes = set()
    raw = MPoly._raw.__func__

    def recording(cls, terms):
        classes.update(c.__class__ for c in terms.values())
        return raw(cls, terms)

    monkeypatch.setattr(MPoly, "_raw", classmethod(recording))
    for _, fn, args, expected in identity_rows(3, 9, True):
        assert bool(fn(*args)) == expected
    stats = degree_stats(Fraction(1, 2), Fraction(3, 4), Fraction(1, 3))
    assert (stats.deg_num, stats.deg_den) == (8, 6)
    assert classes == {int}


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
    f = 3 * T**2 * U - 2 * U + 7
    assert str(f) == "3*t^2*u^1 - 2*u^1 + 7"
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


def test_evaluate_pole():
    t = RatFun.var("t")
    f = 1 / (t - 1)
    assert f.evaluate({"t": 2}) == 1
    with pytest.raises(PoleAtPoint):
        f.evaluate({"t": 1})


def test_exact_sqrt_examples():
    assert poly_exact_sqrt(T**4 + 2 * T**2 + 1) == T**2 + 1
    assert poly_exact_sqrt(T**2 + 1) is None
    assert poly_exact_sqrt(9 * T**2) == 3 * T
    assert poly_exact_sqrt(T - T) == MPoly.const(0)
    assert poly_exact_sqrt(T**3) is None
    assert poly_exact_sqrt(-(T**2)) is None
    assert poly_exact_sqrt(MPoly.const(49)) == 7
    # a square in Z[t] has its root in Z[t] (Gauss's lemma), so a division
    # that is not exact or a leading coefficient that is no square ends it
    assert poly_exact_sqrt(T**2 + T + 1) is None and poly_exact_sqrt(2 * T**2) is None
    root = poly_exact_sqrt((2 * T + 1) ** 2)
    assert root == 2 * T + 1 and all(type(c) is int for c in root.terms.values())


def test_exact_sqrt_multivariate_rejected():
    with pytest.raises(ValueError):
        poly_exact_sqrt(T * U)


def test_univariate_readers_in_any_variable():
    # a and u sit in the first and last limb of the packed keys
    for x, v in ((A, "a"), (U, "u"), (T, "t")):
        h = 2 * x**2 - 4 * x + 3
        assert (h * h).coeffs(v) == [9, -24, 28, -16, 4]
        assert all(type(c) is int for c in (h * h).coeffs(v))
        assert poly_exact_sqrt(h * h) == h and poly_exact_sqrt(h * h).vars == (v,)
        assert poly_exact_sqrt(x**2 + 1) is None and poly_exact_sqrt(x**3) is None
        assert poly_exact_sqrt(MPoly.const(4)) == 2 and MPoly.const(4).coeffs(v) == [4]
        assert MPoly().coeffs(v) == []
    with pytest.raises(ValueError):
        (A + U).coeffs("u")
    with pytest.raises(ValueError):
        U.coeffs("a")
    with pytest.raises(ValueError):
        MPoly.const(1).coeffs("x")
    with pytest.raises(ValueError):
        poly_exact_sqrt(A * U)


def test_degree_guard():
    with pytest.raises(OverflowError):
        T ** (1 << 15)


def test_product_degree_guard_is_per_variable():
    # the limit binds each variable's degree, not the sum over variables
    half = _DEG_LIMIT >> 1
    f = T**half * U**half
    assert (f.degree("t"), f.degree("u"), f.degree()) == (half, half, 2 * half)
    with pytest.raises(OverflowError):
        T**half * T**half


def test_normalization_collapses_and_prunes():
    f = MPoly({1 << 64: 0, 1 << 80: 3})
    assert f.vars == ("u",) and f.terms == {1 << 80: 3}
    assert MPoly.const(0).terms == {}
    # over Z nothing collapses: even an integral Fraction is refused
    for c in (Fraction(4, 2), Fraction(1, 2)):
        with pytest.raises(TypeError):
            MPoly({1 << 64: c})
    assert (T + A) - A == T and ((T + A) - A).vars == ("t",)
    # the guard uses the exact per-variable maximum (here 2^14), not the OR
    # of the exponents (2^15 - 1), so this product still fits
    half = _DEG_LIMIT >> 1
    f = MPoly({half << 80: 1, (half - 1) << 80: 1})
    assert (f * U).degree("u") == half + 1
    for key in (_DEG_LIMIT << 64, _DEG_LIMIT << 80, 1 << 96, -1):
        with pytest.raises(OverflowError):
            MPoly({key: 1, 1 << 64: 1})


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
    assume(d and e)
    if same_num:
        g = MPoly(dict(f.terms))
    shared = rf_eq(RatFun(f, d), RatFun(g, d))
    assert shared == (f == g) == (f * d == g * d)
    assert rf_eq(RatFun(f, d), RatFun(g, e)) == (f * e == g * d)


def _monomials(i, j):
    """t^i * u^j as its numerator and denominator monomials."""
    return T ** max(i, 0) * U ** max(j, 0), T ** max(-i, 0) * U ** max(-j, 0)


shift_exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys(), polys(), shift_exps, shift_exps, st.booleans())
def test_rf_eq_with_shifts_matches_cross_multiplication(f, g, d, e, s1, s2, same):
    # each side carries a shift t^i * u^j, which the degree exit reads before
    # anything is expanded; with same, the second side is the first with the
    # shifts folded into its polynomials, equal to it in value and degrees
    assume(f and d and e and any(s1 + s2))
    (p1, n1), (p2, n2) = _monomials(*s1), _monomials(*s2)
    if same:
        g, e = f * p1 * n2, d * n1 * p2
    t, u = RatFun.var("t"), RatFun.var("u")
    x, y = RatFun(f, d) * t ** s1[0] * u ** s1[1], RatFun(g, e) * t ** s2[0] * u ** s2[1]
    # x = f*p1/(d*n1) and y = g*p2/(e*n2), cross-multiplied on exponent tuples
    cross = (_reference_product(_reference_product(f, p1), _reference_product(e, n2))
             == _reference_product(_reference_product(g, p2), _reference_product(d, n1)))
    assert rf_eq(x, y) == (x == y) == (y == x) == cross
    assert cross or not same


def test_erratum_sides_are_told_apart_by_their_degrees_alone(monkeypatch):
    # the published family-1 value term leaves u^2 and the product of the
    # g-values with a-degrees 2n and 2n - 2, so the check answers False
    # before a single atom power is expanded
    tris = [two_point_symbolic("g2", n, "family1_literal") for n in range(3, 10)]

    def refuse(factors):
        raise AssertionError("an expansion")

    monkeypatch.setattr(poly, "_expand", refuse)
    for tri in tris:
        assert not _square_is_product(tri.u, tri.values)


def test_the_degree_exit_reads_each_side_shift():
    # t * (t + 1) keeps t in its shift, t^2 + t in its atom: equal degrees
    assert RatFun(T) * RatFun(T + 1) == RatFun(T**2 + T)
    assert RatFun(T**2 + T) == RatFun(T) * RatFun(T + 1)
    assert RatFun(U) * RatFun(T + 1) != RatFun(T**2 + T)


def test_unequal_sides_of_equal_degrees_reach_the_sum(monkeypatch):
    x, y, z = (RatFun(T + k) for k in (1, 2, 3))
    calls = []
    real = poly._sum
    monkeypatch.setattr(poly, "_sum", lambda *args: calls.append(args) or real(*args))
    assert x * y != x * z and len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(polys(vars_=("t",)))
def test_exact_sqrt_roundtrip(f):
    sq = f * f
    root = poly_exact_sqrt(sq)
    assert root is not None
    assert root * root == sq


fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
wide_coeffs = st.integers(-12, 12)


@st.composite
def wide_polys(draw, vars_=("t", "u"), max_size=5):
    terms = draw(st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in vars_)), wide_coeffs, max_size=max_size))
    return MPoly.from_terms(terms, vars_) if terms else MPoly.const(0)


def _reference_product(f, g):
    """f*g on exponent tuples over the union of variables, with no packed keys."""
    vs = tuple(sorted(set(f.vars) | set(g.vars), key="abcdtu".index))
    def spread(k):
        exps = dict(zip(VARS, _unpack(k)))
        return tuple(exps[v] for v in vs)
    out = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(spread(k1), spread(k2)))
            out[e] = out.get(e, 0) + c1 * c2
    return MPoly.from_terms(out, vs)


def _is_normal(f):
    """Every coefficient a nonzero int, and every key in the layout the
    packing guard relies on: each 16-bit limb, one per universe variable,
    below _DEG_LIMIT, and no bit past the last limb."""
    coeffs_ok = all(c and type(c) is int for c in f.terms.values())
    limbs_ok = all(not k >> (16 * len(VARS)) and all((k >> (16 * i)) & 0xFFFF < _DEG_LIMIT for i in range(len(VARS)))
                   for k in f.terms)
    return coeffs_ok and limbs_ok


@settings(max_examples=60, deadline=None)
@given(wide_polys(), wide_polys(), st.integers(-2, 2), wide_polys(max_size=1))
def test_square_path_equals_general_product(f, g, k, m):
    # f + k*g and f - k*g make cancelling cross terms likely in the products
    for h in (f, f + k * g, (f + k * g) * (f - k * g)):
        sq = h * h
        general = h * MPoly(dict(h.terms))
        assert sq == general == _reference_product(h, h)
        assert _is_normal(sq) and _is_normal(general)
        assert sq.vars == general.vars and all(sq.degree(v) == general.degree(v) for v in VARS)
    prod = (f + k * g) * (f - k * g)
    assert prod == _reference_product(f + k * g, f - k * g) and _is_normal(prod)
    # one-term operands, on either side, go through the same loop
    for x, y in ((f, m), (m, f), (m, m)):
        assert x * y == _reference_product(x, y) and _is_normal(x * y)


@st.composite
def mixed_polys(draw):
    """A polynomial over one of several variable subsets, some given out of
    universe order, so operands rarely share their variables."""
    vars_ = draw(st.sampled_from([("a", "t"), ("u", "a"), ("t", "u"), ("u",), ("d", "b"), ()]))
    terms = draw(st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in vars_)), wide_coeffs, max_size=4))
    return MPoly.from_terms(terms, vars_) if terms else MPoly.const(0)


def _reference_sum(f, g, sign=1):
    """f + sign*g on exponent tuples over the universe, with no packed keys."""
    out = {}
    for p, s in ((f, 1), (g, sign)):
        for k, c in p.terms.items():
            e = _unpack(k)
            out[e] = out.get(e, 0) + s * c
    return MPoly.from_terms(out, VARS)


@settings(max_examples=80, deadline=None)
@given(mixed_polys(), mixed_polys(), mixed_polys(), mixed_polys())
def test_arithmetic_across_variable_subsets_matches_exponent_tuples(f, g, h, k):
    assert f + g == _reference_sum(f, g) == g + f and f - g == _reference_sum(f, g, -1)
    assert f * g == _reference_product(f, g) == g * f and f * f == _reference_product(f, f) == f**2
    for p in (f + g, f - g, f * g, f * f, f**3):
        assert _is_normal(p)
    assume(g and k)
    # rf_eq against cross-multiplication done on exponent tuples
    cross = _reference_product(f, k) == _reference_product(h, g)
    assert rf_eq(RatFun(f, g), RatFun(h, k)) == cross
    assert rf_eq(RatFun(f, g), RatFun(f * k, g * k))
    total = _reference_sum(_reference_product(f, k), _reference_product(h, g))
    assert rf_eq(RatFun(f, g) + RatFun(h, k), RatFun(total, _reference_product(g, k)))


def test_subtraction_results_are_normal():
    f = T * U - 2 * T + 3
    assert f - f == 0 and (f - f).vars == ()
    assert 3 - f == T * (2 - U) and _is_normal(3 - f)
    assert (f - (T * U - 1)).vars == ("t",)
    assert 2 - MPoly.const(2) == 0 and Fraction(1, 2) - RatFun(Fraction(1, 2)) == 0


small_polys = st.builds(
    lambda terms: MPoly.from_terms(terms, ("t", "u")) if terms else MPoly.const(0),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), st.integers(-3, 3), max_size=3),
)
ops = st.lists(st.tuples(st.sampled_from("+-*/^"), st.integers(0, 2), st.integers(-2, 3)), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=3, max_size=3), st.lists(small_polys, min_size=2, max_size=2),
       st.lists(st.integers(0, 2), min_size=3, max_size=3), ops,
       st.tuples(fracs, fracs))
def test_ratfun_chains_match_explicit_cross_multiplication(nums, dens, pick, chain, point):
    # three operands over two denominators, so some share one and some do not;
    # pick 2 takes a distinct but equal copy of the first, so atoms must be
    # matched by value. A naive (num, den) pair follows every step with full
    # cross-products.
    dens = [d if d else MPoly.const(1) + T * T for d in dens]
    dens.append(MPoly(dict(dens[0].terms)))
    base = [(n, dens[i]) for n, i in zip(nums, pick)]
    acc = RatFun(*base[0])
    ref_n, ref_d = base[0]
    for op, j, e in chain:
        n2, d2 = base[j]
        other = RatFun(n2, d2)
        if op == "+":
            acc, ref_n, ref_d = acc + other, ref_n * d2 + n2 * ref_d, ref_d * d2
        elif op == "-":
            acc, ref_n, ref_d = acc - other, ref_n * d2 - n2 * ref_d, ref_d * d2
        elif op == "*":
            acc, ref_n, ref_d = acc * other, ref_n * n2, ref_d * d2
        elif op == "/" and n2:
            acc, ref_n, ref_d = acc / other, ref_n * d2, ref_d * n2
        elif op == "^" and (e >= 0 or ref_n):
            acc = acc**e
            ref_n, ref_d = (ref_n**e, ref_d**e) if e >= 0 else (ref_d**-e, ref_n**-e)
    ref = RatFun(ref_n, ref_d)
    assert rf_eq(acc, ref) and rf_eq(ref, acc)
    assert acc.num * ref_d == ref_n * acc.den
    assert rf_eq(acc + 1, ref + 1) and not rf_eq(acc + 1, ref)
    pt = dict(zip("tu", point))
    if ref_d.evaluate(pt) and acc.den.evaluate(pt):
        assert acc.evaluate(pt) == ref_n.evaluate(pt) / ref_d.evaluate(pt)


def test_ratfun_numerator_equal_to_denominator_is_one():
    f = T * U - 3
    for x in (RatFun(f, f), RatFun(MPoly(dict(f.terms)), f), RatFun(-1, -1), RatFun(2, 2)):
        assert x.factors == {} and x.num == 1 and x.den == 1
        assert rf_eq(x, 1) and x == 1 and not rf_eq(x, -1)
    assert RatFun(-1, 1) == -1 and RatFun(1, -1) == -1


def test_ratfun_sum_equal_to_a_common_atom_cancels_it():
    # t/(t+1) + 1/(t+1): the denominator atom t+1 is kept in common, and the
    # sum of what is left, t + 1, equals it, so it must merge and cancel
    t = RatFun.var("t")
    x = t / (t + 1) + 1 / (t + 1)
    assert x.factors == {} and rf_eq(x, 1) and x.den == 1
    # no gcd: t^2 - 1 is one atom, so t - 1 stays in the denominator
    y = t * t / (t - 1) - 1 / (t - 1)
    assert rf_eq(y, t + 1) and y.num == T**2 - 1 and y.den == T - 1
    # a numerator atom both sides share, times a sum equal to another atom
    z = (t + 2) * t + (t + 2) * 1
    assert rf_eq(z, (t + 2) * (t + 1)) and sorted((str(a), e) for a, e in z.factors.items()) == [
        ("1*t^1 + 1", 1), ("1*t^1 + 2", 1)]


def test_ratfun_sums_with_zero():
    x = RatFun(T + 1, U - 2)
    zero = RatFun(0)
    assert (0 - x) == -x and rf_eq(zero - x, RatFun(-(T + 1), U - 2))
    assert rf_eq(x - 0, x) and rf_eq(x - zero, x) and rf_eq(0 + x, x) and rf_eq(zero + x, x)
    assert not (x - x) and (x - x).factors is None
    assert (x - x).num == 0 and (x - x).den == 1 and rf_eq(x - x, 0)
    assert not (zero * x) and not (x * zero) and not (zero / x)
    assert zero**0 == 1 and zero**3 == 0
    with pytest.raises(DivisionByZeroFunction):
        zero**-1
    with pytest.raises(DivisionByZeroFunction):
        x / (x - x)


def test_ratfun_negative_powers_and_the_minus_one_atom():
    x = RatFun(T + 1, U - 2)
    assert rf_eq(x**-2, RatFun((U - 2) ** 2, (T + 1) ** 2)) and (x**-2 * x**2).factors == {}
    assert rf_eq(1 / x, x**-1) and rf_eq(x / x, 1)
    assert -(-x) == x and rf_eq((-x) * (-x), x * x) and rf_eq((-x) ** 3, -(x**3))
    assert rf_eq(-x, RatFun(-T - 1, U - 2)) and rf_eq(-x, RatFun(T + 1, 2 - U))
    assert rf_eq(x - (-x), 2 * x) and rf_eq(-x + x, 0) and not rf_eq(-x, x)
    assert rf_eq(RatFun(-1) ** 2, 1) and rf_eq(RatFun(-1) ** -3, -1)


def test_atoms_match_only_when_equal_as_polynomials():
    # same variables, degrees and number of terms, or the same terms over
    # other variables: distinct atoms, which must never cancel or merge
    for f, g in ((T + 1, T - 1), (T + 1, U + 1), (T * U + 1, T * U + 2), (T + U, T - U)):
        assert not rf_eq(RatFun(f, g), 1) and not rf_eq(RatFun(1, f), RatFun(1, g))
        assert rf_eq(RatFun(1, f) + RatFun(1, g), RatFun(f + g, f * g))
        assert rf_eq(RatFun(f) * RatFun(1, g), RatFun(f, g)) and len((RatFun(f) / g).factors) == 2


def test_mpoly_rsub_refuses_an_operand_it_cannot_coerce():
    # 2 - f coerces 2; a float gets Python's own TypeError naming "-"
    assert 2 - (T + 1) == 1 - T
    with pytest.raises(TypeError, match="for -:"):
        1.5 - (T + 1)


pool_polys = st.builds(
    lambda terms: MPoly.from_terms(terms, ("t", "u")) if terms else MPoly.const(0),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), st.integers(-2, 2), max_size=3),
)
shared_ops = st.lists(st.tuples(st.sampled_from("+-*/^n"), st.integers(0, 4), st.integers(-3, 3)),
                      min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(st.lists(pool_polys, min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), min_size=5, max_size=5),
       shared_ops, st.tuples(fracs, fracs))
def test_ratfun_chains_with_shared_atoms_match_cross_multiplication(pool, picks, chain, point):
    # A pool of four atoms, the last -1, and operands (n1 * n2)/d taken from
    # it, so numerator and denominator atoms recur within and across
    # operands, numerators equal denominators, and sums can rebuild an atom.
    # A naive (num, den) pair follows every step by full cross-products.
    pool = [p if p else T + 2 for p in pool] + [MPoly.const(-1)]
    base = [(pool[i] * pool[j], pool[k]) for i, j, k in picks]
    acc = RatFun(pool[picks[0][0]]) * RatFun(pool[picks[0][1]]) / RatFun(pool[picks[0][2]])
    ref_n, ref_d = base[0]
    for op, j, e in chain:
        n2, d2 = base[j]
        other = RatFun(pool[picks[j][0]]) * pool[picks[j][1]] / pool[picks[j][2]]
        if op == "+":
            acc, ref_n, ref_d = acc + other, ref_n * d2 + n2 * ref_d, ref_d * d2
        elif op == "-":
            acc, ref_n, ref_d = acc - other, ref_n * d2 - n2 * ref_d, ref_d * d2
        elif op == "*":
            acc, ref_n, ref_d = acc * other, ref_n * n2, ref_d * d2
        elif op == "/" and n2:
            acc, ref_n, ref_d = acc / other, ref_n * d2, ref_d * n2
        elif op == "n":
            acc, ref_n = -acc, -ref_n
        elif op == "^" and (e >= 0 or ref_n):
            acc = acc**e
            ref_n, ref_d = (ref_n**e, ref_d**e) if e >= 0 else (ref_d**-e, ref_n**-e)
    ref = RatFun(ref_n, ref_d)
    assert rf_eq(acc, ref) and rf_eq(ref, acc)
    assert acc.num * ref_d == ref_n * acc.den
    assert (not acc) == (not ref_n) == (acc.factors is None)
    assert rf_eq(acc + 1, ref + 1) and not rf_eq(acc + 1, ref) and not rf_eq(acc, ref - 1)
    assert all(e and a for a, e in (acc.factors or {}).items())
    pt = dict(zip("tu", point))
    if ref_d.evaluate(pt) and acc.den.evaluate(pt):
        assert acc.evaluate(pt) == ref_n.evaluate(pt) / ref_d.evaluate(pt)


def _assert_normal(f):
    # constants and monomials never become atoms, c is an int whenever it
    # is integral, every polynomial coefficient is an int, and no float
    # appears anywhere
    assert f.c.__class__ is int or (f.c.__class__ is Fraction and f.c.denominator != 1)
    assert all(e.__class__ is int for e in f.mexp)
    for a, e in (f.factors or {}).items():
        assert len(a.poly.terms) >= 2 and e.__class__ is int and e
    for p in [f.num, f.den] + [a.poly for a in f.factors or ()]:
        assert all(c.__class__ is int for c in p.terms.values())


@settings(max_examples=80, deadline=None)
@given(small_polys, st.lists(st.tuples(st.sampled_from("+-*/^nrq"), st.integers(0, 6), st.integers(-3, 3)),
                             min_size=1, max_size=8), st.tuples(fracs, fracs))
def test_ratfun_chains_over_constants_and_monomials(extra, chain, point):
    # operands 2, 3, -1, 2t, t*u and u^2, which stay out of the factor list,
    # and one drawn polynomial; int operands only scale c. After every step
    # the result is in normal form and matches a naive (num, den) pair that
    # follows it by full cross-products.
    pool = [2, 3, -1, 2 * T, T * U, U * U, extra if extra else T + 2]
    acc, ref_n, ref_d = RatFun(T * U, 2), T * U, MPoly.const(2)
    for op, j, e in chain:
        x = pool[j]
        n2 = x if isinstance(x, MPoly) else MPoly.const(x)
        if op == "+":
            acc, ref_n = acc + x, ref_n + n2 * ref_d
        elif op == "-":
            acc, ref_n = acc - x, ref_n - n2 * ref_d
        elif op == "r":
            acc, ref_n = x - acc, n2 * ref_d - ref_n
        elif op == "*":
            acc, ref_n = acc * x, ref_n * n2
        elif op == "/":
            acc, ref_d = acc / x, ref_d * n2
        elif op == "q" and ref_n:
            acc, ref_n, ref_d = x / acc, n2 * ref_d, ref_n
        elif op == "n":
            acc, ref_n = -acc, -ref_n
        elif op == "^" and (e >= 0 or ref_n):
            acc = acc**e
            ref_n, ref_d = (ref_n**e, ref_d**e) if e >= 0 else (ref_d**-e, ref_n**-e)
        _assert_normal(acc)
        assert acc.num * ref_d == ref_n * acc.den and (not acc) == (not ref_n)
        assert rf_eq(acc, RatFun(ref_n, ref_d)) and not rf_eq(acc, RatFun(ref_n + ref_d, ref_d))
    pt = dict(zip("tu", point))
    if ref_d.evaluate(pt) and acc.den.evaluate(pt):
        assert acc.evaluate(pt) == ref_n.evaluate(pt) / ref_d.evaluate(pt)


def test_constants_and_monomials_scale_c_and_mexp():
    half = RatFun(2 * T, 4 * T)
    assert half == Fraction(1, 2) and half.factors == {} and half.c == Fraction(1, 2)
    assert half.num == 1 and half.den == 2
    t = RatFun.var("t")
    assert not (t * 0) and not (0 * t) and (t * 0).den == 1
    with pytest.raises(TypeError):
        1.5 * t
    with pytest.raises(TypeError):
        t * 1.5
    # an int to a negative power is a float in Python; c must stay exact
    for f, c in ((RatFun(1) ** -1, 1), (RatFun(-1) ** -3, -1), ((2 * t) ** -2, Fraction(1, 4))):
        assert f.c == c and f.c.__class__ is c.__class__ and f.factors == {}
    assert (t * t / t).factors == {} and (t * t / t).mexp == t.mexp
    x = (t + 1) / (2 * t - 1) * half
    assert pickle.loads(pickle.dumps(x)) == x and str(next(iter(x.factors))) == "1*t^1 + 1"


def _factor_items(fs):
    """Each function's factor dict as a list of its (atom, exponent) items,
    or None for the zero function."""
    return [None if f.factors is None else list(f.factors.items()) for f in fs]


@settings(max_examples=30, deadline=None)
@given(st.lists(pool_polys, min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=2),
       st.integers(-2, 2))
def test_no_operation_writes_a_factor_dict(pool, picks, e):
    # A dict, unlike a tuple, can be changed in place, and factor dicts are
    # shared: _merge returns one operand's dict when the other has no atoms,
    # and every RatFun.var shares its dict with _VAR_FUNS. So no operation
    # may write one: every operand's items, and _VAR_FUNS's, are the same
    # after every + - * / **, ==, num and den between them, some of the
    # operands sharing one dict already.
    pool = [p if p else T + 2 for p in pool] + [MPoly.const(-1)]
    t = RatFun.var("t")
    x, y = (RatFun(pool[i]) * pool[j] / pool[k] * t for i, j, k in picks)
    fs = [x, y, t, x * 2, t / x, y / t, RatFun(3), x - x]
    before = _factor_items(fs + list(_VAR_FUNS.values()))
    for f in fs:
        for g in fs + [0, -1, Fraction(1, 2)]:
            f + g, g + f, f - g, g - f, f * g, g * f, (f == g, g == f)
            if f:
                f**e, g / f
        f.num, f.den
    assert _factor_items(fs + list(_VAR_FUNS.values())) == before
    # an atom pickles as its polynomial and is rebuilt with a fresh memo
    w = x / (T + U + 2) ** 2
    w2 = pickle.loads(pickle.dumps(w))
    assert min(w.factors.values()) < 0 and w2 == w and w2.factors == w.factors
    assert [(a.poly.terms, e) for a, e in w2.factors.items()] == [(a.poly.terms, e) for a, e in w.factors.items()]
    assert all(type(a) is _Atom and a**2 == a.poly**2 for a in w2.factors)


def test_atom_free_functions_compare_by_c_and_exponents():
    # c * t^i * u^j with no atoms: equal exactly when c and both exponents are
    t, u = RatFun.var("t"), RatFun.var("u")
    keys = [(3, 2, -1), (Fraction(3, 2), 2, -1), (-3, 2, -1), (3, 1, -1), (3, 2, 0),
            (Fraction(-3, 2), -2, 1), (1, 0, 0)]
    fs = [c * t**i * u**j for c, i, j in keys]
    assert all(f.factors == {} for f in fs)
    for f, key in zip(fs, keys):
        for g, other in zip(fs, keys):
            assert (f == g) == (key == other) and rf_eq(f, g) == (key == other)
    # the same functions built another way
    assert RatFun(3 * T**3, U * T) == fs[0] and RatFun(3 * T**2, 2 * U) == fs[1]
    assert RatFun(-3 * U, 2 * T**2) == fs[5] and fs[6] == 1 and fs[0] != 3


def test_scalars_times_a_function_with_atoms_scale_c():
    x = RatFun(T + 1, U - 2) * RatFun.var("t")
    for k in (3, -2, Fraction(2, 3), Fraction(-4, 2)):
        for y in (x * k, k * x):
            c = x.c * k
            assert y.c == c and y.c.__class__ is (int if c.denominator == 1 else Fraction)
            assert y.mexp == x.mexp and y.factors == x.factors
            assert rf_eq(y, RatFun((T + 1) * T * k.numerator, (U - 2) * k.denominator))
    for zero in (0, Fraction(0)):
        for y in (x * zero, zero * x):
            assert not y and y.factors is None and y.num == 0 and y.den == 1


@st.composite
def binomials(draw):
    """A two-term polynomial over a variable subset, nonzero int
    coefficients."""
    vars_ = draw(st.sampled_from([("t",), ("a", "t"), ("u", "b"), ("t", "u")]))
    keys = draw(st.lists(st.tuples(*(st.integers(0, 3) for _ in vars_)), min_size=2, max_size=2, unique=True))
    cs = wide_coeffs.filter(bool)
    return MPoly.from_terms({k: draw(cs) for k in keys}, vars_)


@settings(max_examples=60, deadline=None)
@given(binomials(), st.integers(0, 15))
def test_binomial_power_equals_repeated_product(f, e):
    assert len(f.terms) == 2
    ref = MPoly.const(1)
    for _ in range(e):
        ref = ref * f
    got = f**e
    assert got == ref and _is_normal(got) and all(got.degree(v) == ref.degree(v) for v in VARS)
    assert len(got.terms) == (e + 1 if e else 1)


def test_binomial_power_keeps_the_degree_guard():
    half = _DEG_LIMIT >> 1
    assert (T ** (half - 1) + U) ** 2 == T ** (2 * half - 2) + 2 * T ** (half - 1) * U + U**2
    for f, e in ((T**half + U, 2), (T + 1, _DEG_LIMIT), (-2 * A + U**3, _DEG_LIMIT // 3 + 1)):
        with pytest.raises(OverflowError):
            f**e


atom_polys = st.one_of(binomials(), polys().filter(lambda f: len(f.terms) >= 3))


@settings(max_examples=60, deadline=None)
@given(atom_polys, st.permutations(range(1, 11)), st.integers(1, 10))
def test_atom_powers_in_any_order_equal_poly_powers(f, order, k):
    atom = _Atom(f)
    for e in order[:k] + [9, 8, 2, 5]:
        assert atom**e == f**e
    assert atom**3 is atom**3 and atom**1 is f


def _square_and_multiply_products(e):
    return e.bit_length() - 1 + bin(e).count("1") - 1


@pytest.mark.parametrize("order", [(9, 8, 2, 5), (2, 3), (8, 9), (2, 4, 5, 6, 7, 8), (16, 9, 15),
                                   (31, 30, 2, 1), (13, 7, 12, 25), (3, 5, 6, 11, 22, 24)])
def test_atom_power_never_costs_more_products_than_square_and_multiply(order, monkeypatch):
    # a linear chain p^e = p^(e-1)*p from a small memo would cost e - k
    # products; the memo may only save products, never add them
    f = T + U + 1
    refs = {e: f**e for e in order}
    products = []
    mul = MPoly.__mul__

    def counted(g, h):
        products[-1] += 1
        return mul(g, h)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    atom = _Atom(f)
    for e in order:
        products.append(0)
        assert atom**e == refs[e]
        assert products[-1] <= _square_and_multiply_products(e)
    # runs of neighbouring exponents cost one product each once a neighbour
    # is memoised
    if order == (2, 4, 5, 6, 7, 8):
        assert products == [1] * 6


def _checked_sum(x, y, sign):
    """x + sign*y, checked against the cross-multiplied num/den on exponent
    tuples; every polynomial the result holds, its num and den, and each
    atom's, must be normal."""
    r = x + y if sign == 1 else x - y
    ref_num = _reference_sum(_reference_product(x.num, y.den), _reference_product(y.num, x.den), sign)
    ref_den = _reference_product(x.den, y.den)
    assert _reference_product(r.num, ref_den) == _reference_product(ref_num, r.den)
    for p in [r.num, r.den] + [a.poly for a in r.factors or ()]:
        assert _is_normal(p)
    return r


shared_atoms = st.builds(lambda p: p if len(p.terms) >= 2 else T + 2 * U - 1, wide_polys(max_size=3))
distinct_exps = st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=2, max_size=2, unique=True)


@settings(max_examples=40, deadline=None)
@given(wide_polys(max_size=3).filter(bool), wide_polys(max_size=2).filter(bool), shared_atoms, shared_atoms,
       distinct_exps, distinct_exps, st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_ratfun_sums_over_shared_atoms_with_cancelling_tops_match_cross_multiplication(
        n1, n2, a, b, a_exps, b_exps, shifts):
    # f and h share the atoms A and B at different exponents. f + (h - f)
    # and f - (f - h) cancel all of f's rest, its top-degree terms with it,
    # so the sum's degrees fall and must be read again where they fell.
    # Every input is drawn valid, since rejecting most draws fails
    # hypothesis's health check on some seeds.
    (e1, e2), (f1, f2) = a_exps, b_exps
    big_a, big_b = RatFun(a), RatFun(b)
    f = RatFun(n1) * big_a**e1 * big_b**f1 * RatFun.var("t") ** shifts[0]
    h = RatFun(n2) * big_a**e2 * big_b**f2 * RatFun.var("u") ** shifts[1]
    for sign in (1, -1):
        _checked_sum(f, h, sign)
    assert rf_eq(_checked_sum(f, _checked_sum(h, f, -1), 1), h)
    assert rf_eq(_checked_sum(f, _checked_sum(f, h, -1), -1), h)


def test_a_cancelled_top_key_leaves_the_degrees_of_the_keys_left():
    t3u, tu2 = T**3 * U, T * U**2
    f = (t3u + tu2) - t3u
    assert f == tu2 and (f.degree("t"), f.degree("u")) == (1, 2) and _is_normal(f)
    # t^3*u cancels but t^3 keeps the t-degree and u keeps the u-degree
    g = T**3 * U + T**3 + U
    assert ((g - t3u).degree("t"), (g - t3u).degree("u")) == (3, 1) and _is_normal(g - t3u)


def test_every_key_making_site_keeps_the_packing_guard():
    # each site that makes a key raises OverflowError exactly where a limb
    # would reach _DEG_LIMIT: a RatFun sum packs each shift and guards the
    # shifted keys, a product guards its keys, a power checks e times its
    # largest limb, and num/den pack their shift
    t, limit, half = RatFun.var("t"), _DEG_LIMIT, _DEG_LIMIT >> 1
    assert (t ** (limit - 1) + 1).num == T ** (limit - 1) + 1
    assert (t ** (limit - 2) * RatFun(T + 1) + 1).num.degree("t") == limit - 1
    assert ((T ** (half - 1) + U + 1) ** 2).degree("t") == limit - 2
    assert (T**half * T ** (half - 1)).degree("t") == limit - 1
    assert (1 / t ** (limit - 1)).den == T ** (limit - 1)
    # a shift of 2^16 would carry into the u limb, past the bit test
    for build in (lambda: t**limit + 1, lambda: (t**limit + 1) * RatFun(T + 1), lambda: t ** (2 * limit) + 1,
                  lambda: t ** (limit - 1) * RatFun(T + 1) + 1, lambda: (T**half + U + 1) ** 2,
                  lambda: T**half * T ** (half - 1) * T, lambda: (1 / t**limit).den,
                  lambda: (1 / t ** (2 * limit)).den):
        with pytest.raises(OverflowError):
            build()
    # the constructor drops zeros before it guards the keys left
    assert MPoly({limit << 64: 0, 1 << 64: 1}) == T


def test_ratfun_sum_makes_no_mpoly_sum(monkeypatch):
    # a RatFun sum or equality scales and adds its two rests in one pass and
    # never builds an MPoly sum
    def refuse(self, other, sign=1):
        raise AssertionError("an MPoly sum")

    monkeypatch.setattr(MPoly, "__add__", refuse)
    monkeypatch.setattr(MPoly, "__radd__", refuse)
    assert certify_three_point("g1", 5) and certify_two_point("g2", 4) and certify_auxiliary("g2", 2, 3)
