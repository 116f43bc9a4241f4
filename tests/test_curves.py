"""Curve parametrizations, the encoder, and the exact certification suite."""

import copy
import hashlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoint import curves
from hypoint.curves import (
    AffinePoint,
    BasePointOnCurve,
    CurveError,
    CurveParams,
    DenominatorVanishes,
    DomainExcluded,
    NotReciprocal,
    ParamTriple,
    UnsupportedParity,
    certify_auxiliary,
    certify_even_n_value,
    certify_quartic,
    certify_reciprocal_pair,
    certify_reciprocal_triple,
    certify_three_point,
    certify_two_point,
    encode,
    even_n_point,
    g_eval,
    g_shape,
    identity_rows,
    is_reciprocal,
    make_point,
    parse_curve_spec,
    quartic_triple_curve,
    reciprocal_pair_curve,
    reciprocal_triple_curve,
    three_point_inner,
    three_point_map,
    two_point_map,
    two_point_symbolic,
)
from hypoint.ff import FieldSpec, field_new
from hypoint.poly import MPoly, RatFun, _Atom, rf_eq

K11 = field_new(11)
P11 = CurveParams("g1", 3, K11.elem(1), K11.elem(1))


def as_ints(pt):
    return int(str(pt.x)), int(str(pt.y))


def verify_triple(params, triple):
    """u^2 = prod g(x_i), exact in the triple's ring: the reference the
    field-map tests hold the maps to, apart from the maps' own check."""
    return triple.u * triple.u == prod(g_eval(params, x) for x in triple.xs)


# --- records -----------------------------------------------------------------


def test_records_keep_frozen_dataclass_behaviour():
    pt = AffinePoint(K11.elem(1), K11.elem(2))
    assert repr(pt) == "AffinePoint(x=FieldElement(1 in F_11), y=FieldElement(2 in F_11))"
    assert pt == AffinePoint(K11.elem(1), K11.elem(2)) and pt != AffinePoint(K11.elem(1), K11.elem(9))
    assert hash(pt) == hash((K11.elem(1), K11.elem(2)))
    # equal only to its own class, never to a plain tuple
    assert pt != (K11.elem(1), K11.elem(2)) and (K11.elem(1), K11.elem(2)) != pt
    assert len({pt, AffinePoint(K11.elem(1), K11.elem(2))}) == 1
    with pytest.raises(AttributeError):
        pt.x = K11.elem(3)
    with pytest.raises(AttributeError):
        pt.z = 0
    with pytest.raises(AttributeError):
        del pt.y
    assert repr(ParamTriple((1, 2), 3, (4, 5))) == "ParamTriple(xs=(1, 2), u=3, values=(4, 5))"
    assert ParamTriple(xs=(1,), u=2, values=(4,)).values == (4,)
    assert repr(FieldSpec(p=5, trust_prime=True)) == "FieldSpec(p=5, m=1, modulus=None, trust_prime=True)"
    assert FieldSpec(3, 2, (1, 0, 1)) == FieldSpec(p=3, m=2, modulus=(1, 0, 1), trust_prime=False)
    params = CurveParams(family="g1", n=3, a=K11.elem(1), b=K11.elem(2))
    assert repr(params) == "CurveParams(family='g1', n=3, a=FieldElement(1 in F_11), b=FieldElement(2 in F_11))"
    assert str(params) == "g1:n=3,a=1,b=2"
    assert params == CurveParams("g1", 3, K11.elem(1), K11.elem(2))
    with pytest.raises(AttributeError):
        params.n = 5
    with pytest.raises(TypeError):
        AffinePoint(1, 2, 3)
    assert pickle.loads(pickle.dumps(params)) == params and copy.copy(pt) == pt


# --- parameter validation ---------------------------------------------------


def test_params_validation():
    with pytest.raises(CurveError):
        CurveParams("g3", 3, F(1), F(1))
    with pytest.raises(CurveError):
        CurveParams("g1", 1, F(1), F(1))
    with pytest.raises(CurveError):
        CurveParams("g1", 3, F(0), F(1))
    with pytest.raises(CurveError):
        CurveParams("g2", 3, K11.elem(5), K11.elem(0))


def test_params_reject_symbolic_zero():
    a, b = RatFun.var("a"), RatFun.var("b")
    with pytest.raises(CurveError):
        CurveParams("g1", 3, a - a, b)
    with pytest.raises(CurveError):
        CurveParams("g2", 3, a, RatFun(0, MPoly.var("b")))
    with pytest.raises(CurveError):
        CurveParams("g1", 3, MPoly.var("a"), MPoly.const(0))


def test_g_shapes():
    assert g_shape("g1", 3, F(2), F(5), F(3)) == 27 + 6 + 5
    assert g_shape("g2", 3, F(2), F(5), F(3)) == 27 + 18 + 15
    assert g_eval(P11, K11.elem(8)) == K11.elem(4)


# --- two-point map ------------------------------------------------------------


def test_two_point_rational_instance():
    params = CurveParams("g1", 3, F(1), F(1))
    tr = two_point_map(params, F(2))
    assert tr.xs == (F(-21, 20), F(-21, 5))
    assert tr.u == F(-9661, 1000)
    assert verify_triple(params, tr)


def test_two_point_rejections():
    params = CurveParams("g1", 3, F(1), F(1))
    with pytest.raises(DenominatorVanishes):
        two_point_map(params, F(0))
    with pytest.raises(DenominatorVanishes):
        two_point_map(params, F(1))
    with pytest.raises(DenominatorVanishes):
        two_point_map(params, F(-1))
    with pytest.raises(CurveError):
        two_point_map(CurveParams("g1", 2, F(1), F(1)), F(2))
    # t^(2(e-1)) = 1 with t^2 != 1: 5^4 = 1 and 5^2 = 12 in F_13
    K = field_new(13)
    with pytest.raises(DenominatorVanishes):
        two_point_map(CurveParams("g1", 3, K.elem(1), K.elem(1)), K.elem(5))
    with pytest.raises(CurveError):
        two_point_symbolic("g1", 2)


def test_two_point_field_matches_rational():
    K = field_new(101)
    params = CurveParams("g2", 5, K.elem(3), K.elem(7))
    tr = two_point_map(params, K.elem(10))
    ratq = two_point_map(CurveParams("g2", 5, F(3), F(7)), F(10))
    for got, exact in zip(tr.xs + (tr.u,), ratq.xs + (ratq.u,)):
        assert got == K.elem(exact.numerator) / K.elem(exact.denominator)


def test_two_point_map_returns_each_g_value():
    K = field_new(101)
    for params, t in ((CurveParams("g2", 5, K.elem(3), K.elem(7)), K.elem(10)),
                      (CurveParams("g1", 3, F(1), F(1)), F(2))):
        tr = two_point_map(params, t)
        assert tr.values == tuple(g_eval(params, x) for x in tr.xs)
        assert tr.u * tr.u == tr.values[0] * tr.values[1]


def test_two_point_map_evaluates_g_once_per_component(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return g_shape(*args)

    monkeypatch.setattr(curves, "g_shape", counting)
    tr = two_point_map(CurveParams("g1", 3, F(1), F(1)), F(2))
    assert calls == list(tr.xs)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["g1", "g2"]),
    st.integers(3, 6),
    st.integers(1, 5),
    st.integers(-5, -1),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_two_point_symbolic_matches_map_over_q(family, n, a, b, t):
    if t in (0, 1, -1):
        return
    tr = two_point_map(CurveParams(family, n, F(a), F(b)), t)
    sym = two_point_symbolic(family, n)
    point = {"a": a, "b": b, "t": t}
    assert [f.evaluate(point) for f in sym.xs + (sym.u,)] == list(tr.xs + (tr.u,))


@pytest.mark.parametrize("params, t, xs, u", [
    (CurveParams("g1", 4, F(1), F(1)), F(2), (F(-85, 84), F(-85, 21)), F(51607921, 3111696)),
    (CurveParams("g2", 6, F(3), F(7)), F(-1, 2), (F(-2387, 255), F(-2387, 1020)),
     F(185029888608652927609, 17596287801000000)),
])
def test_two_point_even_n_over_q(params, t, xs, u):
    tr = two_point_map(params, t)
    assert (tr.xs, tr.u) == (xs, u)
    assert tr.values == tuple(g_eval(params, x) for x in xs)


@pytest.mark.parametrize("p", [11, 13, 101])
@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize("n", [3, 5])
def test_three_point_map_at_g_of_u_one_is_two_point_map(p, family, n):
    K = field_new(p)
    # g(0) = 1 on g1 and g(1) = 1 on g2
    params = CurveParams(family, n, K.elem(1), K.elem(1 if family == "g1" else -1))
    pairs = 0
    for u in K.elements():
        if g_eval(params, u) != 1:
            continue
        for t in K.elements():
            try:
                two = two_point_map(params, t)
            except DenominatorVanishes:
                continue
            three = three_point_map(params, t, u)
            assert (three.xs[1:], three.u, three.values[1:]) == (two.xs, two.u, two.values)
            pairs += 1
    assert pairs


def test_map_identity_is_checked_under_python_O():
    # the check is an explicit raise, so -O (which strips assert) keeps it
    code = """if True:
        from hypoint import curves
        from hypoint.ff import field_new
        assert False, "this child must run under -O"
        curves._square_is_product = lambda u, values: False
        K = field_new(11)
        params = curves.parse_curve_spec("g1:n=3,a=1,b=1", K)
        t, u = K.elem(2), K.elem(3)
        for call in (lambda: curves.two_point_map(params, t),
                     lambda: curves.three_point_map(params, t, u),
                     lambda: curves.encode(params, t, u)):
            try:
                call()
            except AssertionError:
                print("raised")
            else:
                print("silent")
    """
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3


# --- three-point map and the encoder -----------------------------------------


def test_three_point_f11_instance():
    tr = three_point_map(P11, K11.elem(2), K11.elem(3))
    assert [as_ints(AffinePoint(x, K11.zero()))[0] for x in tr.xs] == [3, 9, 5]
    assert str(tr.u) == "9"
    assert verify_triple(P11, tr)


def test_three_point_rejections():
    with pytest.raises(BasePointOnCurve):
        three_point_map(P11, K11.elem(5), K11.elem(2))  # g(2) = 0 over F_11
    with pytest.raises(DenominatorVanishes):
        three_point_map(P11, K11.elem(0), K11.elem(3))
    with pytest.raises(UnsupportedParity):
        three_point_map(CurveParams("g1", 4, K11.elem(1), K11.elem(1)), K11.elem(2), K11.elem(3))
    # s = t^2 g(u) = 1 is fine for the deployed denominator
    K13 = field_new(13)
    p13 = CurveParams("g1", 3, K13.elem(2), K13.elem(6))
    hits = 0
    for t in range(1, 13):
        for u in range(13):
            gu = g_eval(p13, K13.elem(u))
            if gu and K13.elem(t * t) * gu == K13.one():
                tr = three_point_map(p13, K13.elem(t), K13.elem(u))
                assert verify_triple(p13, tr)
                hits += 1
    assert hits == 12


def test_encode_frozen_instance():
    pt = encode(P11, K11.elem(2), K11.elem(3))
    assert pt.to_json() == {"x": "3", "y": "3"}


def test_encode_root_short_circuit():
    # g(2) = 0 over F_11, so u = 2 returns (2, 0) for any t
    for t in (0, 1, 7):
        pt = encode(P11, K11.elem(t), K11.elem(2))
        assert pt.to_json() == {"x": "2", "y": "0"}


def test_encode_domain_exclusion():
    with pytest.raises(DomainExcluded):
        encode(P11, K11.elem(0), K11.elem(3))


def test_encode_zero_u_branch_reachable():
    """Some (t, u) with U = 0 must return a y = 0 point."""
    found = 0
    for p in (11, 13, 17, 19, 23):
        K = field_new(p)
        for b in range(1, 5):
            params = CurveParams("g1", 3, K.elem(1), K.elem(b))
            for t in range(1, p):
                for u in range(p):
                    gu = g_eval(params, K.elem(u))
                    if not gu:
                        continue
                    try:
                        tr = three_point_map(params, K.elem(t), K.elem(u))
                    except DenominatorVanishes:
                        continue
                    if not tr.u:
                        pt = encode(params, K.elem(t), K.elem(u))
                        assert not pt.y
                        assert g_eval(params, pt.x) == K.zero()
                        found += 1
    assert found > 0


def test_encode_whole_domain_f11():
    for t in range(11):
        for u in range(11):
            te, ue = K11.elem(t), K11.elem(u)
            if not g_eval(P11, ue):
                pt = encode(P11, te, ue)
            else:
                try:
                    pt = encode(P11, te, ue)
                except DomainExcluded:
                    continue
            assert pt.y * pt.y == g_eval(P11, pt.x)


def test_three_point_map_returns_each_g_value():
    tr = three_point_map(P11, K11.elem(2), K11.elem(3))
    assert tr.values == tuple(g_eval(P11, x) for x in tr.xs)
    # a symbolic t runs the same raw form and carries its values too (for
    # symbolic (a, b, t, u) see the test below)
    a, b, t, u = (RatFun.var(v) for v in "abtu")
    for family, n in (("g1", 3), ("g2", 3), ("g1", 5)):
        rat = three_point_map(CurveParams(family, n, F(1), F(1)), t, F(3))
        assert all(rf_eq(v, g_shape(family, n, 1, 1, x)) for x, v in zip(rat.xs, rat.values, strict=True))
        sym = three_point_map(CurveParams(family, n, a, b), t, u)
        # the raw X2 at a = b = 1, u = 3 is the cancelled X2 at s = t^2*g(u)
        # there, exactly: the two agree at more rational t, none a pole, than
        # their cross-multiplied t-degree; so does the raw X2 over Q(a, b)(t, u)
        canc = curves._x2(a, b, t * t * sym.values[0], curves._exponent(family, n), "cancelled")
        x2, at = rat.xs[1], {"a": 1, "b": 1, "u": 3}
        bound = max(x2.num.degree("t") + canc.den.degree("t"), canc.num.degree("t") + x2.den.degree("t"))
        ts = [tv for tv in (F(k, 7) for k in range(1, 200))
              if x2.den.evaluate({"t": tv}) and canc.den.evaluate({**at, "t": tv})][:bound + 1]
        assert len(ts) == bound + 1
        assert all(x2.evaluate({"t": tv}) == canc.evaluate({**at, "t": tv}) == sym.xs[1].evaluate({**at, "t": tv})
                   for tv in ts)


@pytest.mark.parametrize("family,n", [("g1", 3), ("g2", 3), ("g1", 5)])
def test_three_point_display_values_are_g_of_u_and_x2(family, n):
    # the displayed (t, u) values are three_point_map's own over Q(a, b)(t, u):
    # g(u), g(X2) and g(X3)
    a, b, t, u = (RatFun.var(v) for v in "abtu")
    sym = three_point_map(CurveParams(family, n, a, b), t, u)
    assert len(sym.values) == 3
    for x, gx in zip(sym.xs, sym.values, strict=True):
        assert rf_eq(gx, g_shape(family, n, a, b, x))


@pytest.mark.parametrize("K", [field_new(13), field_new("3^3:1,2,0,1")], ids=["F13", "F27"])
@pytest.mark.parametrize("family,n", [("g1", 3), ("g2", 5), ("g1", 27)])
def test_raw_form_matches_cancelled_sums(K, family, n):
    """The raw form that fields run equals the cancelled form on every
    (t, gamma), s = 1 included (there U^2 = gamma*g(X2)*g(X3) holds for any
    X2, so the identity check alone would not notice a wrong X2)."""
    a, b = K.elem(2), K.elem(5)
    ones = 0
    for t in K.elements():
        for gamma in K.elements():
            if not gamma:
                continue
            ones += t * t * gamma == 1
            out = {}
            for form in ("raw", "cancelled"):
                try:
                    out[form] = curves._three_point(family, n, a, b, t, gamma, form)
                except DenominatorVanishes as exc:
                    out[form] = str(exc)
            assert out["raw"] == out["cancelled"]
    assert ones == K.q - 1


@pytest.mark.parametrize("form", ["raw", "cancelled"])
@pytest.mark.parametrize("family,n", [("g1", 3), ("g2", 5)])
def test_three_point_with_g_shape_passed_equals_the_default(family, n, form):
    """A caller's g for g(X2) changes nothing when it is g_shape: on F_p
    elements (s = 1 included), on Q, and on Q(a, b, c, t) by rf_eq."""

    def both(a, b, t, gamma):
        def g(x):
            return g_shape(family, n, a, b, x)

        return (curves._three_point(family, n, a, b, t, gamma, form),
                curves._three_point(family, n, a, b, t, gamma, form, g))

    K = field_new(101)
    for t, gamma in [(1, 1), (3, 7), (10, 2), (50, 99)]:
        default, passed = both(K.elem(2), K.elem(5), K.elem(t), K.elem(gamma))
        assert default == passed
        default, passed = both(F(2), F(5, 3), F(t, 4), F(gamma, 7))
        assert default == passed
    default, passed = both(*(RatFun.var(v) for v in "abtc"))
    assert len(default) == len(passed) == 4
    assert all(rf_eq(x, y) for x, y in zip(default, passed))


def test_encode_256_bit_stream_is_pinned():
    """sha256 of a seeded 256-bit encode stream: both primes (p = 3 and
    p = 1 mod 4), g1 and g2, n in {3, 5, 7, 9}; digest computed before the
    Jacobi character, the fused square root and the closed-form geometric
    factor replaced Euler's criterion, the separate square test and the
    O(n) sums."""
    rng = random.Random(20261018)
    h = hashlib.sha256()
    for p in (2**256 - 189, 2**255 - 19):
        K = field_new(FieldSpec(p, trust_prime=True))
        for family in ("g1", "g2"):
            for n in (3, 5, 7, 9):
                a, b = K.elem(rng.randrange(1, p)), K.elem(rng.randrange(1, p))
                params = CurveParams(family, n, a, b)
                for _ in range(8):
                    pt = encode(params, K.elem(rng.randrange(p)), K.elem(rng.randrange(p)))
                    h.update(f"{pt.x},{pt.y};".encode())
    assert h.hexdigest() == "d16ad14f473f5158145417678af39cbb6457651a6ade1892a57527a095913929"


@pytest.mark.parametrize("p", [11, 13], ids=["3mod4", "1mod4"])
def test_encode_rejects_an_all_nonsquare_triple(p, monkeypatch):
    """X3 gets no character test, but make_point checks its root: values
    whose character product is -1 must raise, not return a point."""
    K = field_new(p)
    params = CurveParams("g1", 3, K.elem(1), K.elem(1))
    bad = [K.elem(v) for v in range(1, p) if K.legendre(K.elem(v)) == -1][:3]
    xs = (K.elem(3), K.elem(4), K.elem(5))

    def fake_map(params_, t, u):
        return ParamTriple(xs, K.one(), tuple(bad))

    monkeypatch.setattr(curves, "three_point_map", fake_map)
    with pytest.raises(AssertionError, match=r"^\(5, None\) not on g1"):
        encode(params, K.elem(2), K.elem(3))


def test_even_n_point_frozen_instance():
    params = CurveParams("g1", 4, K11.elem(2), K11.elem(6))
    assert even_n_point(params).to_json() == {"x": "8", "y": "9"}
    with pytest.raises(UnsupportedParity):
        even_n_point(P11)


def test_make_point_checks_membership():
    with pytest.raises(AssertionError):
        make_point(P11, K11.elem(0), K11.elem(5))


# --- symbolic certifications --------------------------------------------------


@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize("n", [*range(3, 10), 16, 21, 32])
def test_two_point_certified(family, n):
    assert certify_two_point(family, n)


@pytest.mark.parametrize("n", range(3, 10))
def test_second_family_literal_value_term_fails(n):
    assert not certify_two_point("g2", n, u_formula="family1_literal")


@pytest.mark.parametrize("u_formula,calls", [("corrected", ["g2", "g2"]),
                                             ("family1_literal", ["g2", "g2", "g1"])])
def test_two_point_certificate_evaluates_g_of_x1_once(u_formula, calls, monkeypatch):
    # the curve's own g(X1) and g(X2) are evaluated once, as in
    # two_point_map, and the erratum's U, formed after both, adds one
    # evaluation of the first family's g
    seen = []
    shape = curves.g_shape

    def counted(family, n, a, b, x):
        seen.append(family)
        return shape(family, n, a, b, x)

    monkeypatch.setattr(curves, "g_shape", counted)
    assert certify_two_point("g2", 5, u_formula) == (u_formula == "corrected")
    assert seen == calls


@pytest.mark.parametrize("family,n", [(fam, n) for fam in ("g1", "g2") for n in (3, 5, 7, 9, 21)])
def test_three_point_certificate_evaluates_g_once(family, n, monkeypatch):
    # the identity is built in the raw form only: U's g(X2) is reused and
    # only g(X3) is evaluated again, two evaluations, and g never sees the
    # cancelled X2, which only the X2 comparison builds
    raw = three_point_inner(family, n, "raw")
    seen = []
    shape = curves.g_shape

    def counted(*args):
        seen.append(args)
        return shape(*args)

    monkeypatch.setattr(curves, "g_shape", counted)
    assert certify_three_point(family, n)
    assert [args[0] for args in seen] == [family] * 2
    assert [args[4].factors for args in seen] == [raw["x2"].factors, raw["x3"].factors]


@pytest.mark.parametrize("args", [("g1", 9), ("g1", 3, True)])
def test_power_memo_never_outlives_a_call(args, monkeypatch):
    # atoms memoise their powers only for their own lifetime, so a second,
    # identical certification raises as many multi-term polynomials as the
    # first; a cache kept across calls would make it cheaper. Every power is
    # raised in _Atom.__pow__, and a power its memo lacks is one raised
    counts = []
    pow_ = _Atom.__pow__

    def counted(atom, e):
        counts[-1] += len(atom.poly.terms) > 1 and e not in atom._pows
        return pow_(atom, e)

    monkeypatch.setattr(_Atom, "__pow__", counted)
    for _ in range(2):
        counts.append(0)
        assert certify_three_point(*args)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("family", ["g1", "g2"])
def test_deep_three_point_certificate_evaluates_g_five_times(family, monkeypatch):
    # two in the inner check, then three_point_map's g(u) and g(X2), which U
    # needs anyway, and one new evaluation, g(X3)
    seen = []
    shape = curves.g_shape

    def counted(*args):
        seen.append(args[0])
        return shape(*args)

    monkeypatch.setattr(curves, "g_shape", counted)
    assert certify_three_point(family, 3, deep=True)
    assert seen == [family] * 5


@pytest.mark.parametrize("family", ["g1", "g2"])
def test_deep_check_runs_the_raw_map_where_s_involves_u(family, monkeypatch):
    # the deep check runs three_point_map, whose raw X2 comes from _x2 at
    # s = t^2*g(u), so a raw form that is wrong only where s involves u
    # must fail the deep certificate and leave the inner one standing
    x2 = curves._x2

    def skewed(a, b, s, e, form):
        out = x2(a, b, s, e, form)
        return out * 2 if form == "raw" and "u" in s.num.vars else out

    monkeypatch.setattr(curves, "_x2", skewed)
    assert certify_three_point(family, 3)
    assert not certify_three_point(family, 3, deep=True)


def _geom_sum_without_its_top_term(monkeypatch):
    geom = curves._geom_sum
    monkeypatch.setattr(curves, "_geom_sum", lambda s, k: geom(s, max(k - 1, 1)))


def _cancelled_numerator_one_power_short(monkeypatch):
    x2 = curves._x2

    def mutant(a, b, s, e, form):
        if form == "raw":
            return x2(a, b, s, e, form)
        den_core = curves._geom_sum(s, e - 1)
        return -(b * (den_core + s ** (e - 2))) / (a * s * den_core)

    monkeypatch.setattr(curves, "_x2", mutant)


@pytest.mark.parametrize("mutate,changed", [(_geom_sum_without_its_top_term, 7),
                                            (_cancelled_numerator_one_power_short, 8)])
def test_cancelled_form_is_guarded_by_the_x2_comparison(mutate, changed, monkeypatch):
    # a mutant of the cancelled form alone leaves the raw identity standing,
    # so only the raw = cancelled X2 comparison can reject it; it must, for
    # both families at every odd n where the mutant changes X2 (g2 at n = 3
    # sums one term, which the first mutant leaves as it is)
    cases = [(fam, n) for fam in ("g1", "g2") for n in (3, 5, 7, 9)]
    before = {case: three_point_inner(*case, "cancelled")["x2"] for case in cases}
    mutate(monkeypatch)
    hit = [case for case in cases if not rf_eq(three_point_inner(*case, "cancelled")["x2"], before[case])]
    assert len(hit) == changed
    for fam, n in hit:
        raw = three_point_inner(fam, n, "raw")
        assert rf_eq(raw["u"] * raw["u"], raw["g_x1"] * raw["g_x2"] * raw["g_x3"])
        assert not certify_three_point(fam, n)


def test_identity_rows_run_every_public_certificate():
    # the full suite names each row once and reaches every certify_*
    # function, so no certificate is left out of `hypoint identities`
    rows = identity_rows(3, 9, True)
    assert len(rows) == len({name for name, *_ in rows}) == 72
    public = {fn for name, fn in vars(curves).items() if name.startswith("certify_") and callable(fn)}
    assert {fn for _, fn, _, _ in rows} == public
    assert [expected for *_, expected in rows].count(False) == 7


def test_literal_value_term_is_identity_on_first_family():
    assert certify_two_point("g1", 5, u_formula="family1_literal")


@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 21, 31])
def test_three_point_certified(family, n):
    assert certify_three_point(family, n, deep=(n == 3))


@pytest.mark.parametrize("family", ["g1", "g2"])
def test_deep_certificate_runs_the_deployed_map(family, monkeypatch):
    # the deep check is three_point_map itself over Q(a, b)(t, u), and the
    # AssertionError of its identity check is a failed certificate
    calls = []
    deployed = curves.three_point_map

    def recorded(params, t, u):
        calls.append((params, t, u))
        return deployed(params, t, u)

    monkeypatch.setattr(curves, "three_point_map", recorded)
    assert certify_three_point(family, 3, deep=True)
    a, b, t, u = (RatFun.var(v) for v in "abtu")
    assert calls == [(CurveParams(family, 3, a, b), t, u)]

    def broken(params, t, gamma, xs, values):
        raise AssertionError("U^2 != prod g(x_i)")

    monkeypatch.setattr(curves, "_checked_map", broken)
    assert certify_three_point(family, 3)
    assert not certify_three_point(family, 3, deep=True)


def test_deep_identity_rejects_one_extra_monomial():
    # The n = 3 deep sides share their denominator, so rf_eq decides them on
    # the numerators alone; one monomial more in U^2 must flip the verdict.
    a, b, t, u = (RatFun.var(v) for v in "abtu")
    tri = three_point_map(CurveParams("g1", 3, a, b), t, u)
    lhs = tri.u * tri.u
    rhs = 1
    for x in tri.xs:
        rhs = rhs * g_shape("g1", 3, a, b, x)
    assert lhs.den == rhs.den and rf_eq(lhs, rhs)
    bumped = RatFun(lhs.num + MPoly.var("a") * MPoly.var("t") ** 5, lhs.den)
    assert not rf_eq(bumped, rhs)
    assert not rf_eq(rhs, bumped)


def _two_point_sides_rescaled():
    # two-point g2, n = 5, with X1 written as (num*(t+1))/(den*(t+1)) from
    # expanded polynomials: the same function, but its two atoms match none
    # of U^2's, so the product's denominator is not U^2's
    a, b = RatFun.var("a"), RatFun.var("b")
    tri = two_point_symbolic("g2", 5)
    lift = MPoly.var("t") + 1
    x1 = RatFun(tri.xs[0].num * lift, tri.xs[0].den * lift)
    return tri.u * tri.u, g_shape("g2", 5, a, b, x1) * g_shape("g2", 5, a, b, tri.xs[1])


def _three_point_sides_across_forms():
    # U^2 of the raw form against c*g(X2)*g(X3) of the cancelled form, n = 5
    a, b = RatFun.var("a"), RatFun.var("b")
    raw, canc = three_point_inner("g1", 5, "raw"), three_point_inner("g1", 5, "cancelled")
    gx2, gx3 = (g_shape("g1", 5, a, b, canc[x]) for x in ("x2", "x3"))
    return raw["u"] * raw["u"], canc["g_x1"] * gx2 * gx3


@pytest.mark.parametrize("sides", [_two_point_sides_rescaled, _three_point_sides_across_forms])
def test_lcm_path_rejects_one_extra_monomial(sides):
    # Different denominators: rf_eq must bring both sides to the formal lcm,
    # and one monomial more in U^2 must still flip the verdict.
    lhs, rhs = sides()
    assert lhs.den != rhs.den and rf_eq(lhs, rhs) and rf_eq(rhs, lhs)
    bumped = RatFun(lhs.num + MPoly.var("a") * MPoly.var("t") ** 5, lhs.den)
    assert not rf_eq(bumped, rhs)
    assert not rf_eq(rhs, bumped)


@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_auxiliary_surface_curves(family, m, n):
    assert certify_auxiliary(family, m, n)


@pytest.mark.parametrize("family", ["g1", "g2"])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_even_degree_value(family, n):
    assert certify_even_n_value(family, n)


def test_even_degree_reversed_ratio_fails():
    a, b = RatFun.var("a"), RatFun.var("b")
    assert not rf_eq(g_shape("g1", 4, a, b, -(a / b)), (b / a) ** 4)


def test_display_matches_deployed_map_at_rational_points():
    # the displayed (t, u) functions are three_point_map's own over Q(a, b)(t, u)
    a, b, t, u = (RatFun.var(v) for v in "abtu")
    sym = three_point_map(CurveParams("g1", 3, a, b), t, u)
    params = CurveParams("g1", 3, F(1), F(1))
    tr = three_point_map(params, F(2), F(3))
    point = {"a": F(1), "b": F(1), "t": F(2), "u": F(3)}
    assert sym.xs[1].evaluate(point) == tr.xs[1]
    assert sym.xs[2].evaluate(point) == tr.xs[2]
    assert sym.u.evaluate(point) == tr.u


# --- reciprocal and quartic curves --------------------------------------------


def tpoly():
    return MPoly.var("t")


def test_is_reciprocal():
    t = tpoly()
    assert is_reciprocal(t**3 + 1, 3)
    assert is_reciprocal(t**4 + 1, 4)
    assert is_reciprocal(t**4 + 3 * t**3 + 5 * t**2 + 3 * t + 1, 4)
    assert not is_reciprocal(t**3 + t + 1, 3)
    assert not is_reciprocal(t**2 + t, 2)
    assert not is_reciprocal(t**3 + 1, 4)


def test_is_reciprocal_in_any_variable():
    # keys of a polynomial in u or a carry its exponents in limb 5 or 0
    for v in "aut":
        x = MPoly.var(v)
        g = x**4 + 3 * x**3 + 5 * x**2 + 3 * x + 1
        assert is_reciprocal(g, 4) and not is_reciprocal(g + x, 4) and not is_reciprocal(g, 5)
        assert is_reciprocal(x**3 + 1, 3) and not is_reciprocal(x**3 + x + 1, 3)
        assert certify_reciprocal_pair(x**3 + 1, 3) and certify_reciprocal_triple(x**5 + 1, 5)
    with pytest.raises(CurveError):
        is_reciprocal(MPoly.var("t") * MPoly.var("u") + 1, 2)


def test_reciprocal_curves_certified():
    t = tpoly()
    for g, n in ((t**3 + 1, 3), (t**4 + 1, 4), (t**6 + 4 * t**3 + 1, 6)):
        assert certify_reciprocal_pair(g, n)
    for g, n in ((t**3 + 1, 3), (t**5 + 1, 5), (t**5 + 2 * t**4 + 7 * t**3 + 7 * t**2 + 2 * t + 1, 5)):
        assert certify_reciprocal_triple(g, n)


def test_reciprocal_curves_evaluate_g_once_per_component(monkeypatch):
    t = tpoly()
    g = t**5 + 2 * t**4 + 7 * t**3 + 7 * t**2 + 2 * t + 1
    apply_ = curves._apply
    for build, certify, k in ((reciprocal_pair_curve, certify_reciprocal_pair, 2),
                              (reciprocal_triple_curve, certify_reciprocal_triple, 3)):
        tri = build(g, 5)
        assert all(rf_eq(v, apply_(g, x)) for x, v in zip(tri.xs, tri.values))
        calls = []
        monkeypatch.setattr(curves, "_apply", lambda g, x: calls.append(x) or apply_(g, x))
        assert certify(g, 5) and len(calls) == k
        monkeypatch.undo()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from("abcdtu"), st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.integers(1, 9),
       st.fractions(-5, 5, max_denominator=6), st.integers(-50, 50), st.sampled_from(range(4)),
       st.fractions(1, 5, max_denominator=6), st.fractions(3, 6, max_denominator=6))
def test_apply_is_g_in_the_ring_of_its_argument(v, low, lead, q, i, j, tv, uv):
    # a random g in any one variable, evaluated at a Fraction, at an F_101
    # element and at a rational function in t and u whose denominators are
    # nonzero at every drawn (t, u)
    g = MPoly.from_terms({(k,): c for k, c in enumerate(low + [lead]) if c}, (v,))
    assert curves._apply(g, q) == g.evaluate({v: q})
    K = field_new(101)
    assert curves._apply(g, K.elem(i)) == K.elem(int(g.evaluate({v: i})) % 101)
    t, u = RatFun.var("t"), RatFun.var("u")
    x = (t, 1 / (t * t), (t + 1) / (u - 2), (t * t - u) / (2 * t + 3))[j]
    point = {"t": tv, "u": uv}
    assert curves._apply(g, x).evaluate(point) == g.evaluate({v: x.evaluate(point)})


def test_reciprocal_rejections():
    t = tpoly()
    with pytest.raises(NotReciprocal):
        reciprocal_pair_curve(t**3 + t + 1, 3)
    with pytest.raises(UnsupportedParity):
        reciprocal_triple_curve(t**4 + 1, 4)


def test_quartic_triple_curve_values():
    tr = quartic_triple_curve()
    assert certify_quartic()
    assert all(rf_eq(v, x**4 + 1) for x, v in zip(tr.xs, tr.values, strict=True))
    vals = [x.evaluate({"t": F(1)}) for x in tr.xs]
    assert vals == [F(3, 7), F(5, 7), F(8, 7)]
    u0 = tr.u.evaluate({"t": F(0)})
    assert u0 * u0 == 4


def test_certificates_count_a_broken_promise_as_failed(monkeypatch):
    # a builder's AssertionError is a failed row, not an aborted suite
    monkeypatch.setattr(curves, "poly_exact_sqrt", lambda p: None)
    with pytest.raises(AssertionError, match="not a square"):
        quartic_triple_curve()
    assert certify_quartic() is False
    monkeypatch.setattr(curves, "g_eval", lambda params, x: g_shape(params.family, params.n, params.a,
                                                                     params.b, x) + 1)
    assert certify_even_n_value("g1", 4) is False


# --- curve spec strings --------------------------------------------------------


def test_parse_curve_spec():
    params = parse_curve_spec("g1:n=3,a=1,b=1", K11)
    assert params == P11
    F9 = field_new("3^2:1,0,1")
    ext = parse_curve_spec("g2:n=5,a=1,2,b=0,1", F9)
    assert str(ext.a) == "1,2" and str(ext.b) == "0,1"
    with pytest.raises(CurveError):
        parse_curve_spec("g3:n=3,a=1,b=1", K11)
    with pytest.raises(CurveError):
        parse_curve_spec("g1:n=3,a=1", K11)
    with pytest.raises(CurveError):
        parse_curve_spec("g1:n=3,a=1,b=1,c=2", K11)


@pytest.mark.parametrize("spec", ["g1:n=3,a=1,b=1,b=2", "g1:n=3,n=5,a=1,b=1", "g2:n=3,a=1,a=1,b=1"])
def test_parse_curve_spec_rejects_repeated_keys(spec):
    with pytest.raises(CurveError, match="repeats"):
        parse_curve_spec(spec, K11)


# --- property tests ------------------------------------------------------------

prime = st.sampled_from([11, 13, 17, 19, 23, 29, 101])


@settings(max_examples=80, deadline=None)
@given(prime, st.integers(1, 100), st.integers(1, 100), st.integers(1, 100), st.integers(0, 100), st.sampled_from(["g1", "g2"]), st.sampled_from([3, 5, 7]))
def test_three_point_identity_holds_on_fields(p, a, b, t, u, family, n):
    K = field_new(p)
    ae, be = K.elem(a), K.elem(b)
    if not ae or not be:
        return
    params = CurveParams(family, n, ae, be)
    try:
        tr = three_point_map(params, K.elem(t), K.elem(u))
    except (DenominatorVanishes, BasePointOnCurve):
        return
    assert verify_triple(params, tr)
    assert tr.u * tr.u == g_eval(params, tr.xs[0]) * g_eval(params, tr.xs[1]) * g_eval(params, tr.xs[2])


@settings(max_examples=80, deadline=None)
@given(prime, st.integers(1, 100), st.integers(1, 100), st.integers(2, 100), st.sampled_from(["g1", "g2"]), st.sampled_from([3, 4, 5, 6, 7]))
def test_two_point_identity_holds_on_fields(p, a, b, t, family, n):
    K = field_new(p)
    ae, be = K.elem(a), K.elem(b)
    if not ae or not be:
        return
    params = CurveParams(family, n, ae, be)
    try:
        tr = two_point_map(params, K.elem(t))
    except DenominatorVanishes:
        return
    assert verify_triple(params, tr)


@settings(max_examples=60, deadline=None)
@given(prime, st.integers(1, 100), st.integers(1, 100), st.integers(1, 100), st.integers(0, 100))
def test_encode_always_lands_on_the_curve(p, a, b, t, u):
    K = field_new(p)
    ae, be = K.elem(a), K.elem(b)
    if not ae or not be:
        return
    params = CurveParams("g1", 3, ae, be)
    try:
        pt = encode(params, K.elem(t), K.elem(u))
    except DomainExcluded:
        return
    assert pt.y * pt.y == g_eval(params, pt.x)
