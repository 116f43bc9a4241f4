"""Exact symbolic layer: sparse polynomials, rational functions, square roots."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypoint.poly import (
    DivisionByZeroFunction,
    MPoly,
    PoleAtPoint,
    VARS,
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
    assert (A * U**3).terms == {1 | 3 << 80: 1} and (U**3).degs == (0, 0, 0, 0, 0, 3)
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


def test_univariate_readers_in_any_variable():
    # a and u sit in the first and last limb of the packed keys
    for x, v in ((A, "a"), (U, "u"), (T, "t")):
        h = x**2 - 2 * x + Fraction(3, 2)
        assert (h * h).coeffs(v) == [Fraction(9, 4), -6, 7, -4, 1]
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
    c = MPoly.const(Fraction(4, 2)).terms[0]
    assert c == 2 and type(c) is int
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
    assume(not d.is_zero() and not e.is_zero())
    if same_num:
        g = MPoly(dict(f.terms))
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


fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def frac_polys(draw, vars_=("t", "u")):
    terms = draw(st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in vars_)), fracs, max_size=5))
    return MPoly.from_terms(terms, vars_) if terms else MPoly.const(0)


def _reference_product(f, g):
    """f*g on exponent tuples over the union of variables, with no packed keys."""
    vs = tuple(sorted(set(f.vars) | set(g.vars), key="abcdtu".index))
    def spread(p, k):
        exps = dict(zip(p.vars, p.exponents(k)))
        return tuple(exps.get(v, 0) for v in vs)
    out = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(spread(f, k1), spread(g, k2)))
            out[e] = out.get(e, 0) + Fraction(c1) * Fraction(c2)
    return MPoly.from_terms(out, vs)


def _is_normal(f):
    """Nonzero coefficients, integral ones as int, and the stored degrees
    equal to those read off the 16-bit limbs of the keys, one per universe
    variable, with no limb past the last."""
    degs = tuple(max(((k >> (16 * i)) & 0xFFFF for k in f.terms), default=0) for i in range(len(VARS)))
    coeffs_ok = all(c and (type(c) is int or c.denominator != 1) for c in f.terms.values())
    return coeffs_ok and f.degs == degs and not any(k >> (16 * len(VARS)) for k in f.terms)


@settings(max_examples=60, deadline=None)
@given(frac_polys(), frac_polys(), st.integers(-2, 2))
def test_square_path_equals_general_product(f, g, k):
    # f + k*g and f - k*g make cancelling cross terms likely in the products
    for h in (f, f + k * g, (f + k * g) * (f - k * g)):
        sq = h * h
        general = h * MPoly(dict(h.terms))
        assert sq == general == _reference_product(h, h)
        assert _is_normal(sq) and _is_normal(general)
        assert sq.vars == general.vars and sq.degs == general.degs
    prod = (f + k * g) * (f - k * g)
    assert prod == _reference_product(f + k * g, f - k * g) and _is_normal(prod)


@st.composite
def mixed_polys(draw):
    """A polynomial over one of several variable subsets, some given out of
    universe order, so operands rarely share their variables."""
    vars_ = draw(st.sampled_from([("a", "t"), ("u", "a"), ("t", "u"), ("u",), ("d", "b"), ()]))
    terms = draw(st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in vars_)), fracs, max_size=4))
    return MPoly.from_terms(terms, vars_) if terms else MPoly.const(0)


def _reference_sum(f, g, sign=1):
    """f + sign*g on exponent tuples over the universe, with no packed keys."""
    out = {}
    for p, s in ((f, 1), (g, sign)):
        for k, c in p.terms.items():
            exps = dict(zip(p.vars, p.exponents(k)))
            e = tuple(exps.get(v, 0) for v in VARS)
            out[e] = out.get(e, 0) + s * Fraction(c)
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
    f = T * U - Fraction(1, 2) * T + 3
    assert f - f == 0 and (f - f).vars == ()
    assert 3 - f == T * (Fraction(1, 2) - U) and _is_normal(3 - f)
    assert (f - (T * U - 1)).vars == ("t",)
    assert Fraction(1, 2) - MPoly.const(Fraction(1, 2)) == 0


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
        assert x.factors == () and x.num == 1 and x.den == 1
        assert rf_eq(x, 1) and x == 1 and not rf_eq(x, -1)
    assert RatFun(-1, 1) == -1 and RatFun(1, -1) == -1


def test_ratfun_sum_equal_to_a_common_atom_cancels_it():
    # t/(t+1) + 1/(t+1): the denominator atom t+1 is kept in common, and the
    # sum of what is left, t + 1, equals it, so it must merge and cancel
    t = RatFun.var("t")
    x = t / (t + 1) + 1 / (t + 1)
    assert x.factors == () and rf_eq(x, 1) and x.den == 1
    # no gcd: t^2 - 1 is one atom, so t - 1 stays in the denominator
    y = t * t / (t - 1) - 1 / (t - 1)
    assert rf_eq(y, t + 1) and y.num == T**2 - 1 and y.den == T - 1
    # a numerator atom both sides share, times a sum equal to another atom
    z = (t + 2) * t + (t + 2) * 1
    assert rf_eq(z, (t + 2) * (t + 1)) and sorted((str(a), e) for a, e in z.factors) == [
        ("1*t^1 + 1", 1), ("1*t^1 + 2", 1)]


def test_ratfun_sums_with_zero():
    x = RatFun(T + 1, U - 2)
    zero = RatFun(0)
    assert (0 - x) == -x and rf_eq(zero - x, RatFun(-(T + 1), U - 2))
    assert rf_eq(x - 0, x) and rf_eq(x - zero, x) and rf_eq(0 + x, x) and rf_eq(zero + x, x)
    assert (x - x).is_zero() and not (x - x) and (x - x).factors is None
    assert (x - x).num == 0 and (x - x).den == 1 and rf_eq(x - x, 0)
    assert (zero * x).is_zero() and (x * zero).is_zero() and (zero / x).is_zero()
    assert zero**0 == 1 and zero**3 == 0
    with pytest.raises(DivisionByZeroFunction):
        zero**-1
    with pytest.raises(DivisionByZeroFunction):
        x / (x - x)


def test_ratfun_negative_powers_and_the_minus_one_atom():
    x = RatFun(T + 1, U - 2)
    assert rf_eq(x**-2, RatFun((U - 2) ** 2, (T + 1) ** 2)) and (x**-2 * x**2).factors == ()
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
    assert acc.is_zero() == ref_n.is_zero() == (acc.factors is None)
    assert rf_eq(acc + 1, ref + 1) and not rf_eq(acc + 1, ref) and not rf_eq(acc, ref - 1)
    assert all(e and a for a, e in acc.factors or ())
    pt = dict(zip("tu", point))
    if ref_d.evaluate(pt) and acc.den.evaluate(pt):
        assert acc.evaluate(pt) == ref_n.evaluate(pt) / ref_d.evaluate(pt)

