"""Rational-curve parametrizations on u^2 = prod g(x_i) and the point encoder.

Two trinomial families are supported, tagged "g1" and "g2":

    g1: g(x) = x^n + a*x + b        g2: g(x) = x^n + a*x^2 + b*x     (a*b != 0)

Each construction is one ring-generic formula, certified exactly by the
symbolic layer:

* auxiliary_curve: a rational curve on the mixed surface
  g(x)*z^m = y^n + c*y + d (family 1 shape; family 2 uses y^n + c*y^2 + d*y).
* two_point_map: (X1(t), X2(t), U(t)) with U^2 = g(X1)*g(X2), any n >= 3.
* three_point_map: (u, X2(t,u), X3(t,u), U(t,u)) with U^2 = g(u)*g(X2)*g(X3),
  odd n >= 3.
* even_n_point: the explicit point (-b/a, (b/a)^(n/2)) on y^2 = g(x), even n.
* encode: deterministic point construction on y^2 = g(x) over F_q from a
  domain pair (t, u) via the three-point map and the first quadratic-square
  component.
* reciprocal_pair_curve / reciprocal_triple_curve / quartic_triple_curve:
  parametrizations for self-reciprocal g and for g = x^4 + 1.

Each formula is written once (_two_point, _three_point) and run both by the
maps that encode uses, on field elements or exact rationals, and by the
certifier, on symbolic rational functions; the certified identities are
therefore those of the deployed arithmetic. The three-point X2 has the
cancelled denominator g(u)*t^2*(1 + s + ... + s^(e-2)), s = t^2*g(u); it
agrees with the textbook quotient wherever the latter is defined and extends
it at s = 1, which is what makes the domain-size lower bound in the survey
unconditional. On fields and Q the map takes the sums in closed form, the
raw quotient (s^e - 1)/(s^(e-1) - 1), which the certifier proves equal to
the cancelled one, and e/(e - 1) at s = 1, so its cost grows with log n,
not n.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import mul

from ._record import Record
from .ff import Field, FieldElement
from .poly import MPoly, RatFun, poly_exact_sqrt, rf_eq

FAMILIES = ("g1", "g2")


class CurveError(ValueError):
    pass


class UnsupportedParity(CurveError):
    pass


class DenominatorVanishes(CurveError):
    pass


class BasePointOnCurve(CurveError):
    """g(u) = 0: (u, 0) already lies on the curve, no map needed."""


class DomainExcluded(CurveError):
    """The pair (t, u) is outside the encoder domain."""


class NotReciprocal(CurveError):
    pass


class NotAPerfectSquare(CurveError):
    pass


class NotOnCurve(CurveError):
    pass


class CurveParams(Record):
    """y^2 = g(x) data; a and b live in whatever ring the caller works in."""

    __slots__ = ("family", "n", "a", "b")

    def __init__(self, family: str, n: int, a, b):
        self._init(family, n, a, b)
        if self.family not in FAMILIES:
            raise CurveError(f"unknown family {self.family!r}")
        if not isinstance(self.n, int) or self.n < 2:
            raise CurveError("n must be an int >= 2")
        if not self.a or not self.b:
            raise CurveError("need a*b != 0")

    def __str__(self):
        return f"{self.family}:n={self.n},a={self.a},b={self.b}"


class AffinePoint(Record):
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self._init(x, y)


class ParamTriple(Record):
    """Components (x_1..x_k) and u with u^2 = prod g(x_i), k in {2, 3}.

    values holds (g(x_1), ..., g(x_k)) when the map already computed them.
    """

    __slots__ = ("xs", "u", "values")

    def __init__(self, xs: tuple, u, values: tuple | None = None):
        self._init(xs, u, values)


def _geom_sum(s, k: int):
    """1 + s + ... + s^(k-1); k >= 1."""
    if k < 1:
        raise ValueError("geometric sum needs k >= 1")
    acc = s**0
    pw = acc
    for _ in range(k - 1):
        pw = pw * s
        acc = acc + pw
    return acc


def g_shape(family: str, n: int, a, b, x):
    """The family polynomial evaluated in any ring."""
    if family == "g1":
        return x**n + a * x + b
    return x**n + a * x * x + b * x


def g_eval(params: CurveParams, x):
    return g_shape(params.family, params.n, params.a, params.b, x)


def make_point(params: CurveParams, x, y, gx=None) -> AffinePoint:
    """The point (x, y) after checking y^2 = g(x); gx is g(x) if known."""
    if y * y != (g_eval(params, x) if gx is None else gx):
        raise NotOnCurve(f"({x}, {y}) not on {params}")
    return AffinePoint(x, y)


def point_json(pt: AffinePoint) -> dict:
    return {"x": str(pt.x), "y": str(pt.y)}


def _square_is_product(u, values) -> bool:
    """u^2 = v_1*...*v_k, exact in u's ring (rf_eq for symbolic). Over RatFun
    both sides stay signed formal products of atoms, and rf_eq expands only
    the atoms whose exponents differ. For the map identities none do:
    g(X3) = s^n*g(X2), and g(X2) = t^(2n)*g(X1) for the two-point map, hold
    atom by atom, the sum atoms coming out equal as polynomials and s^n kept
    apart as atoms of its own, so u^2 is never expanded."""
    return u * u == reduce(mul, values)


def verify_triple(params: CurveParams, triple: ParamTriple) -> bool:
    """u^2 = prod g(x_i), exact in the triple's ring (rf_eq for symbolic)."""
    return _square_is_product(triple.u, [g_eval(params, x) for x in triple.xs])


def _exponent(family: str, n: int) -> int:
    # shared "effective exponent": the t-power scaling of each family
    return n if family == "g1" else n - 1


def _symbolic_params(family: str, n: int) -> CurveParams:
    return CurveParams(family, n, RatFun.var("a"), RatFun.var("b"))


# ---------------------------------------------------------------------------
# auxiliary surface curves


def auxiliary_curve(family: str, m: int, n: int) -> dict:
    """Rational curve (x(t), y(t), z(t)) on g(x)*z^m = y^n + c*y + d (family 1)
    or g(x)*z^m = y^n + c*y^2 + d*y (family 2), coefficients symbolic."""
    if family not in FAMILIES:
        raise CurveError(f"unknown family {family!r}")
    if m < 1 or n < 1:
        raise CurveError("need m >= 1, n >= 1")
    a, b, c, d, t = (RatFun.var(v) for v in "abcdt")
    k = _exponent(family, n)
    x = -(b * t ** (m * k) - d) / (a * t ** (m * k) - c * t**m)
    y = t**m * x
    z = t**n
    return {"x": x, "y": y, "z": z}


def certify_auxiliary(family: str, m: int, n: int) -> bool:
    cur = auxiliary_curve(family, m, n)
    a, b, c, d = (RatFun.var(v) for v in "abcd")
    x, y, z = cur["x"], cur["y"], cur["z"]
    return rf_eq(g_shape(family, n, a, b, x) * z**m, g_shape(family, n, c, d, y))


# ---------------------------------------------------------------------------
# two-point map


def _two_point(family: str, n: int, a, b, t):
    """(X1, X2, U, g(X1)) in any ring, X2 = t^2*X1 and U = t^n*g(X1)."""
    if n < 3:
        raise CurveError("two-point map needs n >= 3")
    e = _exponent(family, n)
    if not t:
        raise DenominatorVanishes("t = 0")
    den = t ** (2 * e) - t * t
    if not den:
        raise DenominatorVanishes(f"t^(2*{e - 1}) = 1")
    x1 = -(b * (t ** (2 * e) - 1)) / (a * den)
    gx1 = g_shape(family, n, a, b, x1)
    return x1, t * t * x1, t**n * gx1, gx1


def two_point_map(params: CurveParams, t) -> ParamTriple:
    """(X1, X2, U) with U^2 = g(X1)*g(X2); t from a field or Q.

    The triple carries values = (g(X1), g(X2)), each evaluated once, and the
    identity is asserted on them.
    """
    x1, x2, u, gx1 = _two_point(params.family, params.n, params.a, params.b, t)
    values = (gx1, g_eval(params, x2))
    assert _square_is_product(u, values)
    return ParamTriple((x1, x2), u, values)


def two_point_symbolic(family: str, n: int, u_formula: str = "corrected") -> ParamTriple:
    """Symbolic (X1(t), X2(t), U(t)) over Q(a, b).

    u_formula="family1_literal" reproduces a published variant that builds U
    from the family-1 polynomial even for family 2; it fails certification
    (deliberately kept reproducible).
    """
    x1, x2, u, _ = _two_point_over_q(family, n, u_formula)
    return ParamTriple((x1, x2), u)


def _two_point_over_q(family: str, n: int, u_formula: str):
    """_two_point over Q(a, b, t); the published variant "family1_literal"
    replaces U by t^n times the first family's g(X1). g(X1) stays the
    curve's own."""
    a, b, t = RatFun.var("a"), RatFun.var("b"), RatFun.var("t")
    x1, x2, u, gx1 = _two_point(family, n, a, b, t)
    if u_formula == "family1_literal":
        u = t**n * g_shape("g1", n, a, b, x1)
    return x1, x2, u, gx1


def certify_two_point(family: str, n: int, u_formula: str = "corrected") -> bool:
    """Exact rf_eq of U^2 = g(X1)*g(X2) at the displayed formulas, U built
    as u_formula says, with the curve's own g(X1) evaluated once, as in
    two_point_map."""
    params = _symbolic_params(family, n)
    x1, x2, u, gx1 = _two_point_over_q(family, n, u_formula)
    return _square_is_product(u, (gx1, g_eval(params, x2)))


# ---------------------------------------------------------------------------
# three-point map


def _three_point(family: str, n: int, a, b, t, gamma, form: str = "cancelled", g=None):
    """(X2, X3, U, g(X2)) in any ring, where gamma = g(X1) is nonzero and
    s = t^2*gamma. g(X2) is g_shape unless a caller that already holds g's
    values passes g, a function that returns g(X2) from X2.

    form "cancelled": X2 = -b*(1+s+...+s^(e-1)) / (a*t^2*gamma*(1+...+s^(e-2)))
    form "raw":       X2 = -b*(s^e - 1)        / (a*t^2*gamma*(s^(e-1) - 1))

    X3 = s*X2 and U = t^n * gamma^((n+1)/2) * g(X2), so that U^2 = gamma *
    g(X2) * g(X3). The two forms agree wherever the raw denominator is
    nonzero (certify_three_point proves raw = cancelled). Where s = 1, the
    raw form takes the cancelled sums' values e and e - 1, so on a field or
    Q it equals the cancelled form on every s at O(log n) multiplications;
    a symbolic s is never 1. Raises DenominatorVanishes for t = 0 or a
    vanishing denominator core.
    """
    if not t:
        raise DenominatorVanishes("t = 0")
    s = t * t * gamma
    x2 = _x2(a, b, t, gamma, s, _exponent(family, n), form)
    gx2 = g_shape(family, n, a, b, x2) if g is None else g(x2)
    return x2, s * x2, t**n * gamma ** ((n + 1) // 2) * gx2, gx2


def _x2(a, b, t, gamma, s, e: int, form: str):
    """_three_point's X2. Its sums die with this frame, so a caller on whole
    tables holds none of them while it forms X3 and U."""
    if form == "cancelled":
        num = _geom_sum(s, e)
        den_core = _geom_sum(s, e - 1)
    elif s == 1:
        num, den_core = s * e, s * (e - 1)
    else:
        pw = s ** (e - 1)
        num, den_core = pw * s - 1, pw - 1
    if not den_core:
        raise DenominatorVanishes("geometric factor 1 + s + ... vanishes")
    return -(b * num) / (a * t * t * gamma * den_core)


def _require_odd(n: int):
    if n < 3 or n % 2 == 0:
        raise UnsupportedParity(f"three-point map needs odd n >= 3, got {n}")


def three_point_map(params: CurveParams, t, u) -> ParamTriple:
    """(X1, X2, X3, U) = (u, ...) with U^2 = g(u)*g(X2)*g(X3); field or Q.

    The triple carries values = (g(u), g(X2), g(X3)), each evaluated once,
    and the identity is asserted on them.
    """
    _require_odd(params.n)
    gamma = g_eval(params, u)
    if not gamma:
        raise BasePointOnCurve(f"g({u}) = 0")
    x2, x3, uu, gx2 = _three_point(params.family, params.n, params.a, params.b, t, gamma, "raw")
    values = (gamma, gx2, g_eval(params, x3))
    assert _square_is_product(uu, values)
    return ParamTriple((u, x2, x3), uu, values)


def three_point_inner(family: str, n: int, form: str = "cancelled") -> dict:
    """Symbolic three-point data over Q(a, b, c, t), where the symbol c stands
    for the inner value g(u). Tiny polynomials for every n, so the defining
    identity U^2 = c * g(X2) * g(X3) is certifiable by exact rf_eq for every
    n; the (t, u) forms are the exact substitution c -> g(u)."""
    _require_odd(n)
    a, b, c, t = (RatFun.var(v) for v in "abct")
    x2, x3, u, _ = _three_point(family, n, a, b, t, c, form)
    return {"x2": x2, "x3": x3, "u": u, "g_x1": c}


def three_point_display(family: str, n: int, form: str = "raw") -> ParamTriple:
    """The displayed (t, u) rational functions over Q(a, b).

    These grow fast with n: kept as formal products, U's g(X2) atom alone
    has about 3*10^4 terms in the n = 9 raw form, and expanded numerators
    are far larger; certification therefore happens on three_point_inner,
    and this materialized form is for small-n checks and inspection.
    """
    _require_odd(n)
    a, b, t, u = (RatFun.var(v) for v in "abtu")
    x2, x3, uu, _ = _three_point(family, n, a, b, t, g_shape(family, n, a, b, u), form)
    return ParamTriple((u, x2, x3), uu)


def certify_three_point(family: str, n: int, deep: bool = False) -> bool:
    """Exact certification of U^2 = g(X1)*g(X2)*g(X3).

    Checks, all exact rf_eq comparisons over Q:
      1. the identity over Q(a, b, c, t) with c standing for g(u), in both the
         displayed (raw) and the deployed (cancelled) forms,
      2. raw and cancelled X2 agree as rational functions,
      3. with deep=True additionally the fully expanded (t, u) identity
         (affordable for n = 3) and the raw/cancelled display agreement.
    """
    a, b = RatFun.var("a"), RatFun.var("b")
    cores = {}
    for form in ("raw", "cancelled"):
        core = three_point_inner(family, n, form)
        gx2, gx3 = (g_shape(family, n, a, b, core[x]) for x in ("x2", "x3"))
        if not _square_is_product(core["u"], (core["g_x1"], gx2, gx3)):
            return False
        cores[form] = core
    if not rf_eq(cores["raw"]["x2"], cores["cancelled"]["x2"]):
        return False
    if deep:
        params = _symbolic_params(family, n)
        disp = three_point_display(family, n, "cancelled")
        if not verify_triple(params, disp):
            return False
        raw = three_point_display(family, n, "raw")
        if not rf_eq(raw.xs[1], disp.xs[1]):
            return False
    return True


# ---------------------------------------------------------------------------
# even n


def even_n_point(params: CurveParams) -> AffinePoint:
    """The point (-b/a, (b/a)^(n/2)) on y^2 = g(x) for even n."""
    if params.n % 2:
        raise UnsupportedParity(f"even_n_point needs even n, got {params.n}")
    ratio = params.b / params.a
    x = -ratio
    y = ratio ** (params.n // 2)
    return make_point(params, x, y)


def certify_even_n_value(family: str, n: int) -> bool:
    """g(-b/a) = (b/a)^n as an exact rational-function identity, checked by
    running even_n_point over Q(a, b)."""
    try:
        even_n_point(_symbolic_params(family, n))
    except NotOnCurve:
        return False
    return True


# ---------------------------------------------------------------------------
# encoder


def encode(params: CurveParams, t, u) -> AffinePoint:
    """Deterministic point on y^2 = g(x) over F_q from a domain pair (t, u).

    Branches, in order: g(u) = 0 gives (u, 0) directly; a vanishing map
    denominator raises DomainExcluded; U = 0 returns (X_i, 0) for the first
    component with g(X_i) = 0; otherwise the first X_i whose g-value is a
    nonzero square is completed with its canonical root. The three-point
    identity makes the character product +1, so such a component exists.

    The g-values come from three_point_map, never evaluated again. Only
    g(u) and g(X2) get a character: when both are -1, the identity makes
    g(X3) a square, so X3 goes straight to the root, and a missing root or
    y^2 != g(X3) raises AssertionError (the character product was -1).
    """
    _require_odd(params.n)
    ctx = _field_of(params, t, u)
    try:
        triple = three_point_map(params, t, u)
    except BasePointOnCurve:
        return AffinePoint(u, ctx.zero())
    except DenominatorVanishes as exc:
        raise DomainExcluded(str(exc)) from exc
    if not triple.u:
        for x, gx in zip(triple.xs, triple.values):
            if not gx:
                return AffinePoint(x, ctx.zero())
        raise AssertionError("U = 0 forces some g(X_i) = 0")
    for x, gx in zip(triple.xs[:2], triple.values[:2]):
        if ctx.legendre(gx) == 1:
            return make_point(params, x, ctx.sqrt(gx), gx)
    x3, gx3 = triple.xs[2], triple.values[2]
    y = ctx.sqrt(gx3)
    if y is None or y * y != gx3:
        raise AssertionError("character product cannot be -1 on the domain")
    return AffinePoint(x3, y)


def _field_of(params: CurveParams, *vals) -> Field:
    for v in (params.a, params.b) + vals:
        if isinstance(v, FieldElement):
            return v.ctx
    raise TypeError(f"{params} has no field-element coefficients or inputs")


# ---------------------------------------------------------------------------
# self-reciprocal curves and the quartic x^4 + 1


def _poly_var(g: MPoly) -> str:
    if len(g.vars) != 1:
        raise CurveError("need a univariate polynomial")
    return g.vars[0]


def is_reciprocal(g: MPoly, n: int) -> bool:
    """x^n * g(1/x) = g(x), decided on coefficients."""
    coeffs = g.coeffs(_poly_var(g))
    return len(coeffs) == n + 1 and coeffs == coeffs[::-1]


def _apply(g: MPoly, x) -> RatFun:
    return g.substitute({_poly_var(g): x if isinstance(x, RatFun) else RatFun(x)})


def reciprocal_pair_curve(g: MPoly, n: int) -> ParamTriple:
    """(t^2, 1/t^2, t^n*g(1/t^2)) with u^2 = g(x1)*g(x2) for reciprocal g."""
    if not is_reciprocal(g, n):
        raise NotReciprocal(str(g))
    t = RatFun.var("t")
    x1 = t * t
    x2 = 1 / (t * t)
    u = t**n * _apply(g, x2)
    return ParamTriple((x1, x2), u)


def certify_reciprocal_pair(g: MPoly, n: int) -> bool:
    triple = reciprocal_pair_curve(g, n)
    return _square_is_product(triple.u, [_apply(g, x) for x in triple.xs])


def reciprocal_triple_curve(g: MPoly, n: int) -> ParamTriple:
    """(t, g(t), 1/g(t), g(t)^((n+1)/2)*g(1/g(t))) for reciprocal g, odd n."""
    if n % 2 == 0 or n < 1:
        raise UnsupportedParity("odd degree needed")
    if not is_reciprocal(g, n):
        raise NotReciprocal(str(g))
    t = RatFun.var("t")
    gt = _apply(g, t)
    x3 = 1 / gt
    u = gt ** ((n + 1) // 2) * _apply(g, x3)
    return ParamTriple((t, gt, x3), u)


def certify_reciprocal_triple(g: MPoly, n: int) -> bool:
    triple = reciprocal_triple_curve(g, n)
    return _square_is_product(triple.u, [_apply(g, x) for x in triple.xs])


def quartic_triple_curve() -> ParamTriple:
    """Three-component curve on u^2 = prod (x_i^4 + 1).

    The product of the three quartic values is a ratio of two exact squares;
    u is recovered with poly_exact_sqrt (NotAPerfectSquare if either half
    fails, which certification treats as a hard error).
    """
    tp = MPoly.var("t")
    den = 3 * tp**2 + 3 * tp + 1
    nums = (2 * tp + 1, 3 * tp**2 + 2 * tp, 3 * tp**2 + 4 * tp + 1)
    num_prod = MPoly.const(1)
    for np_ in nums:
        num_prod = num_prod * (np_**4 + den**4)
    root_num = poly_exact_sqrt(num_prod)
    root_den = poly_exact_sqrt(den**12)
    if root_num is None or root_den is None:
        raise NotAPerfectSquare("quartic product is not a square ratio")
    xs = tuple(RatFun(np_, den) for np_ in nums)
    return ParamTriple(xs, RatFun(root_num, root_den))


def certify_quartic() -> bool:
    triple = quartic_triple_curve()
    return _square_is_product(triple.u, [x**4 + 1 for x in triple.xs])


# ---------------------------------------------------------------------------
# curve spec strings


_CURVE_RE = re.compile(r",(?=[nab]=)")


def parse_curve_spec(text: str, ctx: Field) -> CurveParams:
    """Grammar: family:n=..,a=..,b=.. (element values may be coefficient lists)."""
    head, _, tail = text.strip().partition(":")
    if head not in FAMILIES:
        raise CurveError(f"unknown family {head!r}")
    fields = {}
    for part in _CURVE_RE.split(tail):
        key, eq, val = part.partition("=")
        if eq != "=" or key not in ("n", "a", "b"):
            raise CurveError(f"bad curve spec component {part!r}")
        if key in fields:
            raise CurveError(f"curve spec repeats {key}=")
        fields[key] = val
    if set(fields) != {"n", "a", "b"}:
        raise CurveError("curve spec needs n=, a= and b=")
    try:
        return CurveParams(head, int(fields["n"]), ctx.parse_elem(fields["a"]), ctx.parse_elem(fields["b"]))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, CurveError):
            raise
        raise CurveError(f"bad curve spec {text!r}: {exc}") from exc
