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
* identity_rows: the certification suite of `hypoint identities`, one
  (name, certify function, args, expected) row per identity.

Each formula is written once and run both by the maps that encode uses, on
field elements or exact rationals, and by the certifier, on symbolic
rational functions; the certified identities are therefore those of the
deployed arithmetic. One map formula, _three_point, serves both maps: the
two-point map is the three-point map at gamma = g(X1) = 1, its X1 and X2
being the three-point X2 and X3. One builder, _map_triple, turns it into a
ParamTriple with g of each component evaluated once, for the field maps and
for every symbolic form the certifier checks. The three-point X2 has the
cancelled denominator a*s*(1 + s + ... + s^(e-2)), s = t^2*g(u); it agrees with
the textbook quotient wherever the latter is defined and extends it at
s = 1, which is what makes the domain-size lower bound in the survey
unconditional. On fields and Q the maps take the sums in closed form, the
raw quotient (s^e - 1)/(s^(e-1) - 1), which the certifier proves equal to
the cancelled one, and e/(e - 1) at s = 1, so their cost grows with log n,
not n. Both field maps check U^2 = prod g(x_i) with an explicit
AssertionError, which python -O keeps.
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

    values holds (g(x_1), ..., g(x_j)), j <= k, for the leading components
    whose g-values the construction already computed.
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
    apart in the constant, the monomial and atoms of its own, so u^2 is
    never expanded."""
    return u * u == reduce(mul, values)


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
# two-point map: the three-point formula at g(X1) = 1


def two_point_map(params: CurveParams, t) -> ParamTriple:
    """(X1, X2, U) with U^2 = g(X1)*g(X2); t from a field or Q.

    The map is _three_point at gamma = 1: its X2, X3 and U are X1, X2 and U
    here. The raw form extends the map to s = t^2 = 1, which stays outside
    this map's domain. The triple carries values = (g(X1), g(X2)), each
    evaluated once, and the identity is checked on them.
    """
    if t * t == 1:
        raise DenominatorVanishes("t^2 = 1")
    return _checked_map(params, t, 1, (), ())


def two_point_symbolic(family: str, n: int, u_formula: str = "corrected") -> ParamTriple:
    """Symbolic (X1(t), X2(t), U(t)) over Q(a, b), with values = (g(X1), g(X2)),
    built by _map_triple at gamma = 1 in the raw form, as two_point_map is.

    u_formula="family1_literal" reproduces a published variant that builds U
    from the family-1 polynomial even for family 2; it fails certification
    (deliberately kept reproducible). g(X1) and g(X2) stay the curve's own.
    """
    t = RatFun.var("t")
    params = _symbolic_params(family, n)
    # gamma as the function 1, whose empty factor list multiplies for free
    tri = _map_triple(params, t, RatFun(1), (), (), "raw")
    if u_formula == "family1_literal":
        return ParamTriple(tri.xs, t**n * g_shape("g1", n, params.a, params.b, tri.xs[0]), tri.values)
    return tri


def certify_two_point(family: str, n: int, u_formula: str = "corrected") -> bool:
    """Exact rf_eq of U^2 = g(X1)*g(X2) on two_point_symbolic, each g
    evaluated once, as in two_point_map."""
    tri = two_point_symbolic(family, n, u_formula)
    return _square_is_product(tri.u, tri.values)


# ---------------------------------------------------------------------------
# three-point map


def _three_point(family: str, n: int, a, b, t, gamma, form: str, g=None):
    """(X2, X3, U, g(X2)) in any ring, where gamma = g(X1) is nonzero and
    s = t^2*gamma. g(X2) is g_shape unless a caller that already holds g's
    values passes g, a function that returns g(X2) from X2.

    form "cancelled": X2 = -b*(1+s+...+s^(e-1)) / (a*s*(1+...+s^(e-2)))
    form "raw":       X2 = -b*(s^e - 1)        / (a*s*(s^(e-1) - 1))

    X3 = s*X2 and U = t^n * gamma^((n+1)//2) * g(X2), so that U^2 = gamma *
    g(X2) * g(X3). At gamma = 1 this is the two-point map for every n >= 3:
    X2, X3 and U are its X1, X2 and U. The two forms agree wherever the raw
    denominator is nonzero (certify_three_point proves raw = cancelled).
    Where s = 1, the raw form takes the cancelled sums' values e and e - 1,
    so on a field or Q it equals the cancelled form on every s at O(log n)
    multiplications; a symbolic s is never 1. Raises CurveError for n < 3
    and DenominatorVanishes for t = 0 or a vanishing denominator core.
    """
    if n < 3:
        raise CurveError(f"two- and three-point maps need n >= 3, got {n}")
    if not t:
        raise DenominatorVanishes("t = 0")
    s = t * t * gamma
    x2 = _x2(a, b, s, _exponent(family, n), form)
    gx2 = g_shape(family, n, a, b, x2) if g is None else g(x2)
    return x2, s * x2, t**n * gamma ** ((n + 1) // 2) * gx2, gx2


def _x2(a, b, s, e: int, form: str):
    """_three_point's X2. Its sums die with this frame, so a caller on whole
    tables holds none of them while it forms X3 and U. The cancelled form
    sums 1 + ... + s^(e-2) once and takes the numerator as that sum plus
    s^(e-1)."""
    if form == "cancelled":
        den_core = _geom_sum(s, e - 1)
        num = den_core + s ** (e - 1)
    else:
        pw = s ** (e - 1)
        num, den_core = pw * s - 1, pw - 1
        # s = 1 is tested only where the raw core vanishes, since the test
        # costs an expansion on a symbolic s, which is never 1
        if not den_core and s == 1:
            num, den_core = s * e, s * (e - 1)
    if not den_core:
        raise DenominatorVanishes("geometric factor 1 + s + ... vanishes")
    return -(b * num) / (a * s * den_core)


def _map_triple(params: CurveParams, t, gamma, xs: tuple, values: tuple, form: str) -> ParamTriple:
    """_three_point in any ring as ParamTriple(xs + (X2, X3), U, values +
    (g(X2), g(X3))), g evaluated once per component. xs and values are the
    leading component and its g-value, (u,) and (gamma,) for the three-point
    map and empty for the two-point map."""
    x2, x3, uu, gx2 = _three_point(params.family, params.n, params.a, params.b, t, gamma, form)
    return ParamTriple(xs + (x2, x3), uu, values + (gx2, g_eval(params, x3)))


def _checked_map(params: CurveParams, t, gamma, xs: tuple, values: tuple) -> ParamTriple:
    """The raw _map_triple on a field or Q. Raises AssertionError, also under
    python -O, when U^2 != prod values."""
    tri = _map_triple(params, t, gamma, xs, values, "raw")
    if not _square_is_product(tri.u, tri.values):
        raise AssertionError(f"U^2 != prod g(x_i) for {params} at t = {t}")
    return tri


def _require_odd(n: int):
    if n < 3 or n % 2 == 0:
        raise UnsupportedParity(f"three-point map needs odd n >= 3, got {n}")


def three_point_map(params: CurveParams, t, u) -> ParamTriple:
    """(X1, X2, X3, U) = (u, ...) with U^2 = g(u)*g(X2)*g(X3); field or Q.

    The triple carries values = (g(u), g(X2), g(X3)), each evaluated once,
    and the identity is checked on them.
    """
    _require_odd(params.n)
    gamma = g_eval(params, u)
    if not gamma:
        raise BasePointOnCurve(f"g({u}) = 0")
    return _checked_map(params, t, gamma, (u,), (gamma,))


def three_point_inner(family: str, n: int, form: str) -> dict:
    """Symbolic three-point data over Q(a, b, c, t), where the symbol c stands
    for the inner value g(u). Tiny polynomials for every n, so the defining
    identity U^2 = c * g(X2) * g(X3) is certifiable by exact rf_eq for every
    n; the (t, u) forms are the exact substitution c -> g(u). "g_x2" and
    "g_x3" are the g-values _map_triple computed, so no caller evaluates
    them again."""
    _require_odd(n)
    c = RatFun.var("c")
    tri = _map_triple(_symbolic_params(family, n), RatFun.var("t"), c, (), (c,), form)
    (x2, x3), (_, gx2, gx3) = tri.xs, tri.values
    return {"x2": x2, "x3": x3, "u": tri.u, "g_x1": c, "g_x2": gx2, "g_x3": gx3}


def three_point_display(family: str, n: int, form: str) -> ParamTriple:
    """The displayed (t, u) rational functions over Q(a, b), with values =
    (g(u), g(X2), g(X3)), each evaluated once.

    These grow fast with n: kept as formal products, U's g(X2) atom alone
    has about 3*10^4 terms in the n = 9 raw form, and expanded numerators
    are far larger; certification therefore happens on three_point_inner,
    and this materialized form is for small-n checks and inspection.
    """
    _require_odd(n)
    params = _symbolic_params(family, n)
    u = RatFun.var("u")
    gu = g_eval(params, u)
    return _map_triple(params, RatFun.var("t"), gu, (u,), (gu,), form)


def certify_three_point(family: str, n: int, deep: bool = False) -> bool:
    """Exact certification of U^2 = g(X1)*g(X2)*g(X3), on the g-values the
    builders computed, so no g is evaluated here.

    Checks, all exact rf_eq comparisons over Q:
      1. the identity over Q(a, b, c, t) with c standing for g(u), in both the
         raw form, which the field maps, encode and the survey walk run, and
         the cancelled form,
      2. raw and cancelled X2 agree as rational functions,
      3. with deep=True additionally the (t, u) identity of the cancelled
         display (affordable for n = 3), and the agreement of the display's
         X2 with the raw X2 that _x2 builds from the same s = t^2*g(u).
    """
    cores = {}
    for form in ("raw", "cancelled"):
        core = three_point_inner(family, n, form)
        if not _square_is_product(core["u"], (core["g_x1"], core["g_x2"], core["g_x3"])):
            return False
        cores[form] = core
    if not rf_eq(cores["raw"]["x2"], cores["cancelled"]["x2"]):
        return False
    if deep:
        disp = three_point_display(family, n, "cancelled")
        if not _square_is_product(disp.u, disp.values):
            return False
        a, b, t = (RatFun.var(v) for v in "abt")
        raw_x2 = _x2(a, b, t * t * disp.values[0], _exponent(family, n), "raw")
        if not rf_eq(raw_x2, disp.xs[1]):
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
    """(t^2, 1/t^2, t^n*g(1/t^2)) with u^2 = g(x1)*g(x2) for reciprocal g;
    values holds (g(x1), g(x2)), each evaluated once."""
    if not is_reciprocal(g, n):
        raise NotReciprocal(str(g))
    t = RatFun.var("t")
    x1 = t * t
    x2 = 1 / x1
    gx2 = _apply(g, x2)
    return ParamTriple((x1, x2), t**n * gx2, (_apply(g, x1), gx2))


def certify_reciprocal_pair(g: MPoly, n: int) -> bool:
    triple = reciprocal_pair_curve(g, n)
    return _square_is_product(triple.u, triple.values)


def reciprocal_triple_curve(g: MPoly, n: int) -> ParamTriple:
    """(t, g(t), 1/g(t), g(t)^((n+1)/2)*g(1/g(t))) for reciprocal g, odd n;
    values holds g of each component, each evaluated once."""
    if n % 2 == 0 or n < 1:
        raise UnsupportedParity("odd degree needed")
    if not is_reciprocal(g, n):
        raise NotReciprocal(str(g))
    t = RatFun.var("t")
    gt = _apply(g, t)
    x3 = 1 / gt
    gx3 = _apply(g, x3)
    return ParamTriple((t, gt, x3), gt ** ((n + 1) // 2) * gx3, (gt, _apply(g, gt), gx3))


def certify_reciprocal_triple(g: MPoly, n: int) -> bool:
    triple = reciprocal_triple_curve(g, n)
    return _square_is_product(triple.u, triple.values)


def quartic_triple_curve() -> ParamTriple:
    """Three-component curve on u^2 = prod (x_i^4 + 1).

    The product of the three quartic values is a ratio of two exact squares,
    with denominator den^12 for the common denominator den of the x_i; u is
    the numerator's root by poly_exact_sqrt (NotAPerfectSquare if it fails,
    which certification treats as a hard error) over den^6.
    """
    tp = MPoly.var("t")
    den = 3 * tp**2 + 3 * tp + 1
    nums = (2 * tp + 1, 3 * tp**2 + 2 * tp, 3 * tp**2 + 4 * tp + 1)
    num_prod = MPoly.const(1)
    for np_ in nums:
        num_prod = num_prod * (np_**4 + den**4)
    root_num = poly_exact_sqrt(num_prod)
    if root_num is None:
        raise NotAPerfectSquare("quartic product is not a square ratio")
    xs = tuple(RatFun(np_, den) for np_ in nums)
    return ParamTriple(xs, RatFun(root_num, den**6))


def certify_quartic() -> bool:
    triple = quartic_triple_curve()
    return _square_is_product(triple.u, [x**4 + 1 for x in triple.xs])


# ---------------------------------------------------------------------------
# the identity suite


def identity_rows(n_min: int, n_max: int, erratum_check: bool) -> list:
    """The rows of `hypoint identities`, in its output order, as (name,
    certify function, args, expected): fn(*args) must be truthy exactly when
    expected is True. With erratum_check, the published family-1 value term
    runs on family 2 for each n and is expected to fail."""
    ns = range(n_min, n_max + 1)
    rows = [(f"surface-curve {fam} m={m} n={n}", certify_auxiliary, (fam, m, n), True)
            for fam in FAMILIES for m in (1, 2, 3) for n in range(1, 6)]
    rows += [(f"two-point {fam} n={n}", certify_two_point, (fam, n), True) for fam in FAMILIES for n in ns]
    rows += [(f"three-point {fam} n={n}", certify_three_point, (fam, n, n == 3), True)
             for fam in FAMILIES for n in ns if n % 2]
    rows += [(f"even-degree point value {fam} n={n}", certify_even_n_value, (fam, n), True)
             for fam in FAMILIES for n in ns if n % 2 == 0]
    t = MPoly.var("t")
    for g, n in ((t**3 + 1, 3), (t**4 + 1, 4), (t**4 + 3 * t**3 + 5 * t**2 + 3 * t + 1, 4)):
        rows.append((f"reciprocal two-point deg {n}: {g}", certify_reciprocal_pair, (g, n), True))
    for g, n in ((t**3 + 1, 3), (t**5 + 1, 5), (t**5 + 2 * t**4 + 7 * t**3 + 7 * t**2 + 2 * t + 1, 5)):
        rows.append((f"reciprocal three-point deg {n}: {g}", certify_reciprocal_triple, (g, n), True))
    rows.append(("quartic three-point x^4 + 1", certify_quartic, (), True))
    if erratum_check:
        rows += [(f"two-point g2 n={n} with first-family value term", certify_two_point,
                  ("g2", n, "family1_literal"), False) for n in ns]
    return rows


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
