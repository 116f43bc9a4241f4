"""Exhaustive desk-scale experiments on y^2 = g(x) over F_q.

* enumerate_curve: every affine point, by x-scan with legendre/sqrt in the
  generic field layer.
* enumerate_T / domain_summary: the encoder domain T = {(t, u) : g(u) != 0,
  t != 0, denominator core != 0} in canonical row-major order, with the
  lower-bound check size_T >= (q - n)(q - 2(n - 1) + 1).
* coverage: the encoder's image over all of T against the affine point set,
  with exact counts. No surjectivity claim is made; the report is data.
* sweep_soundness: the same walk over F_p from int inputs, counting broken
  promises where coverage raises AssertionError, as encode's assertions do.
* degree_stats: degrees of the coprime numerator/denominator of the product
  X1*X2*X3 for the n = 3 first-family map at concrete (a, b, u).

One engine, _DomainWalk, serves enumerate_T, domain_summary, coverage and
sweep_soundness. It works on canonical element indices 0..q-1 (the order of
Field.elements()) and first builds O(q) tables, none of them q x q: discrete
logs over the first primitive element, inverses, g, the quadratic character
and the canonical root (or None) of every element, and X2, X3 for every
s = t^2 g(u), the only way they depend on (t, u), from the closed-form
geometric sums (s^k - 1)/(s - 1), k at s = 1. The tables come from the
generic field layer and curves.g_eval, so g and each character are evaluated
once per element, not once per pair. Per pair the walk only multiplies, which
on logs is addition, so prime and extension fields share one loop. Every pair
still gets three checks: U^2 = g(u) g(X2) g(X3) for U = t^n g(u)^((n+1)/2)
g(X2); a product of the three characters, each looked up on its own, that is
never -1; and y^2 = g(x) for the point picked as encode picks it.

Everything is deterministic; reports serialize with all counts as decimal
strings so consumers never face 64-bit overflow. Coverage is measured against
affine points only (the encoder never outputs the point at infinity).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .curves import (
    AffinePoint,
    CurveParams,
    _exponent,
    _field_of,
    _require_odd,
    g_eval,
    point_json,
    three_point_map,
)
from .ff import Field, field_new
from .poly import MPoly, RatFun

DEFAULT_CAP = 10_000
MISSED_CAP = 100


class FieldTooLarge(ValueError):
    pass


def _check_cap(q: int, cap):
    limit = DEFAULT_CAP if cap is None else cap
    if cap is not None and cap > DEFAULT_CAP:
        warnings.warn(
            f"enumeration cap raised to {cap}; runtimes grow with q^2",
            stacklevel=3,
        )
    if q > limit:
        raise FieldTooLarge(f"q = {q} exceeds the enumeration cap {limit}")


def domain_bound(q: int, n: int) -> int:
    """(q - n)(q - 2(n - 1) + 1), the proven lower bound for size_T."""
    return (q - n) * (q - 2 * (n - 1) + 1)


def bound_applicable(p: int, n: int) -> bool:
    # the inequality is only claimed for p > 2(n - 1) - 1
    return p > 2 * (n - 1) - 1


def enumerate_curve(params: CurveParams, cap=None) -> list:
    """All affine (x, y) with y^2 = g(x), x ascending, canonical y first."""
    ctx = _field_of(params)
    _check_cap(ctx.q, cap)
    pts = []
    for x in ctx.elements():
        gx = g_eval(params, x)
        ch = ctx.legendre(gx)
        if ch == 0:
            pts.append(AffinePoint(x, ctx.zero()))
        elif ch == 1:
            r = ctx.sqrt(gx)
            pts.append(AffinePoint(x, r))
            pts.append(AffinePoint(x, -r))
    return pts


# ---------------------------------------------------------------------------
# the domain walk


def _antilog(ctx: Field, elems: list, index: dict) -> list:
    """Indices of gen^0, ..., gen^(q-2) for the first generator of F_q^* in
    canonical order; a candidate of lower order closes its cycle early."""
    one = ctx.one()
    for gen in elems[1:]:
        alog, x = [index[one.val]], gen
        while x != one:
            alog.append(index[x.val])
            x = x * gen
        if len(alog) == ctx.q - 1:
            return alog
    raise ArithmeticError(f"no primitive element in {ctx}")


class _DomainWalk:
    """The encoder over all of T, on canonical element indices and O(q) tables.

    Construction builds the tables; rows() walks T in row-major order (t
    outer, both in canonical order), yielding (t, [u, ...]) per nonzero t and
    adding to the counters size_T, raw_excluded, identity_failures,
    char_violations and membership_failures as it goes. hit[x] is set when
    some pair encodes to the point with x-coordinate x; the encoder's y is
    always the canonical root of g(x), so x alone names the point.
    """

    def __init__(self, params: CurveParams):
        _require_odd(params.n)
        ctx = _field_of(params)
        q = ctx.q
        qm1 = q - 1
        elems = list(ctx.elements())
        index = {x.val: i for i, x in enumerate(elems)}

        alog = _antilog(ctx, elems, index)
        log = [None] * q
        for k, i in enumerate(alog):
            log[i] = k

        # squares have even logs; the two roots of alog[2j] are alog[j] and
        # alog[j + (q-1)/2], and the canonical one has the smaller index
        half = qm1 // 2
        chi = [0] * q
        root = [0] + [None] * qm1
        inv = [None] * q
        for k, i in enumerate(alog):
            chi[i] = -1 if k % 2 else 1
            if k % 2 == 0:
                root[i] = min(alog[k // 2], alog[k // 2 + half])
            inv[i] = alog[-k % qm1]

        def recip(x):
            return elems[inv[index[x.val]]]

        gx = [index[g_eval(params, x).val] for x in elems]

        # X2(s) and X3(s) by log of s, None where the denominator core vanishes
        e = _exponent(params.family, params.n)
        a, b = params.a, params.b
        x2_of = [None] * qm1
        x3_of = [None] * qm1
        for k, i in enumerate(alog):
            s = elems[i]
            if k == 0:
                num, den_core = ctx.elem(e), ctx.elem(e - 1)
            else:
                se1 = s ** (e - 1)
                w = recip(s - 1)
                num, den_core = (se1 * s - 1) * w, (se1 - 1) * w
            if den_core:
                x2 = -(b * num) * recip(a * s * den_core)
                x2_of[k] = index[x2.val]
                x3_of[k] = index[(s * x2).val]

        self.params = params
        self.ctx = ctx
        self.elems = elems
        self.gx = gx
        self.root = root
        self.chi = chi
        self._log = log
        # doubled, so that a sum of two logs indexes them without a reduction
        self._alog2 = alog + alog
        self._x2_of = x2_of + x2_of
        self._x3_of = x3_of + x3_of
        self.hit = bytearray(q)
        self.size_T = 0
        self.raw_excluded = 0
        self.identity_failures = 0
        self.char_violations = 0
        self.membership_failures = 0

    def rows(self):
        n, q = self.params.n, self.ctx.q
        qm1 = q - 1
        log, alog2, gx, chi, root = self._log, self._alog2, self.gx, self.chi, self.root
        x2_of, x3_of, hit = self._x2_of, self._x3_of, self.hit
        up = (n + 1) // 2
        # (u, log g(u), log g(u)^((n+1)/2), chi(g(u))) for every u off the roots of g
        us = [(u, log[g], up * log[g] % qm1, chi[g]) for u, g in enumerate(gx) if g]
        for t in range(1, q):
            lt = log[t]
            lt2 = 2 * lt % qm1
            ltn = n * lt % qm1
            row = []
            raw = bad_id = bad_chi = bad_pt = 0
            for u, lgu, lgup, chi_u in us:
                ls = lt2 + lgu
                x2 = x2_of[ls]
                if x2 is None:
                    continue
                row.append(u)
                if ls == 0 or ls == qm1:
                    raw += 1
                x3 = x3_of[ls]
                g2, g3 = gx[x2], gx[x3]
                lg2 = log[g2]
                if lg2 is None:
                    # U = 0 = U^2, and X2 is the first component on y = 0
                    x = x2
                else:
                    # on logs: 2 log U = 2 (log t^n + log g(u)^((n+1)/2) + log g(X2))
                    # must equal log g(u) + log g(X2) + log g(X3), mod q - 1
                    lg3 = log[g3]
                    if lg3 is None or (2 * (ltn + lgup + lg2) - lgu - lg2 - lg3) % qm1:
                        bad_id += 1
                        continue
                    chi2, chi3 = chi[g2], chi[g3]
                    if chi_u * chi2 * chi3 == -1:
                        bad_chi += 1
                        continue
                    x = u if chi_u == 1 else x2 if chi2 == 1 else x3
                y = root[gx[x]]
                # y^2 is the antilog of 2 log y
                if (alog2[2 * log[y]] if y else 0) != gx[x]:
                    bad_pt += 1
                hit[x] = 1
            self.size_T += len(row)
            self.raw_excluded += raw
            self.identity_failures += bad_id
            self.char_violations += bad_chi
            self.membership_failures += bad_pt
            yield t, row

    def run(self) -> _DomainWalk:
        for _ in self.rows():
            pass
        return self


def enumerate_T(params: CurveParams, cap=None):
    """Admissible (t, u) in deterministic row-major order (t outer)."""
    _check_cap(_field_of(params).q, cap)
    walk = _DomainWalk(params)
    elems = walk.elems
    return ((elems[t], elems[u]) for t, row in walk.rows() for u in row)


def _domain_fields(walk: _DomainWalk) -> dict:
    ctx, n = walk.ctx, walk.params.n
    bnd = domain_bound(ctx.q, n)
    return {
        "size_T": walk.size_T,
        "raw_excluded": walk.raw_excluded,
        "bound": bnd,
        "bound_applicable": bound_applicable(ctx.p, n),
        "bound_holds": walk.size_T >= bnd,
    }


def domain_summary(params: CurveParams, cap=None) -> dict:
    _check_cap(_field_of(params).q, cap)
    return _domain_fields(_DomainWalk(params).run())


@dataclass(frozen=True)
class CoverageReport:
    q: int
    field: str
    params: str
    size_T: int
    raw_excluded: int
    bound: int
    bound_applicable: bool
    bound_holds: bool
    curve_size: int
    image_size: int
    missed: tuple
    missed_truncated: bool

    @property
    def coverage_ratio(self) -> Fraction:
        if self.image_size == 0:
            return Fraction(0)
        return Fraction(self.image_size, self.curve_size)

    def to_json(self) -> dict:
        ratio = self.coverage_ratio
        return {
            "q": str(self.q),
            "field": self.field,
            "params": self.params,
            "size_T": str(self.size_T),
            "raw_excluded": str(self.raw_excluded),
            "bound": str(self.bound),
            "bound_applicable": self.bound_applicable,
            "bound_holds": self.bound_holds,
            "curve_size": str(self.curve_size),
            "image_size": str(self.image_size),
            "coverage_ratio": "0" if ratio == 0 else f"{ratio.numerator}/{ratio.denominator}",
            "missed": [point_json(pt) for pt in self.missed],
            "missed_truncated": self.missed_truncated,
            "curve_size_convention": "affine points only; the encoder never outputs the point at infinity",
        }


def _field_text(ctx: Field) -> str:
    if ctx.m == 1:
        return str(ctx.p)
    return f"{ctx.p}^{ctx.m}:" + ",".join(str(c) for c in ctx.modulus)


def coverage(params: CurveParams, cap=None) -> CoverageReport:
    """Encode every admissible pair, compare the image with the affine points.

    The walk visits every pair of T, so cost grows as q^2; intended for the
    exhaustive desk scale, not for cryptographic sizes. The affine points are
    read off the same tables, in enumerate_curve's order.
    """
    _check_cap(_field_of(params).q, cap)
    walk = _DomainWalk(params).run()
    if walk.identity_failures or walk.char_violations or walk.membership_failures:
        raise AssertionError(
            f"encoder unsound on {params}: {walk.identity_failures} identity, "
            f"{walk.char_violations} character, {walk.membership_failures} membership failures"
        )
    ctx, elems, gx, root = walk.ctx, walk.elems, walk.gx, walk.root
    curve_size = 0
    missed = []
    for x in range(ctx.q):
        r = root[gx[x]]
        if r is None:
            continue
        curve_size += 1 if r == 0 else 2
        if len(missed) > MISSED_CAP:
            continue
        if not walk.hit[x]:
            missed.append(AffinePoint(elems[x], elems[r]))
        if r:
            missed.append(AffinePoint(elems[x], -elems[r]))
    return CoverageReport(
        q=ctx.q,
        field=_field_text(ctx),
        params=str(params),
        **_domain_fields(walk),
        curve_size=curve_size,
        image_size=sum(walk.hit),
        missed=tuple(missed[:MISSED_CAP]),
        missed_truncated=len(missed) > MISSED_CAP,
    )


def sweep_soundness(p: int, n: int, a: int, b: int, family: str = "g1",
                    collect_image: bool = False) -> dict:
    """Walk all of T over F_p from int inputs, counting every broken promise.

    Returns counts; all three failure counters must be zero. collect_image
    additionally returns the sorted encoded (x, y) list as ints, which drift
    tests compare against the generic field-layer encoder.
    """
    _require_odd(n)  # before CurveParams, which accepts any n >= 2
    a %= p
    b %= p
    if a == 0 or b == 0:
        raise ValueError("need a*b != 0 mod p")
    ctx = field_new(p)
    walk = _DomainWalk(CurveParams(family, n, ctx.elem(a), ctx.elem(b))).run()
    out = {
        "p": p,
        "n": n,
        "a": a,
        "b": b,
        "family": family,
        **_domain_fields(walk),
        "char_violations": walk.char_violations,
        "identity_failures": walk.identity_failures,
        "membership_failures": walk.membership_failures,
    }
    if collect_image:
        # on F_p the canonical index of an element is its value
        out["image"] = [(x, walk.root[walk.gx[x]]) for x in range(p) if walk.hit[x]]
    return out


# ---------------------------------------------------------------------------
# Degree statistics for the n = 3 first-family coordinate product


@dataclass(frozen=True)
class DegreeStats:
    a: Fraction
    b: Fraction
    u: Fraction
    deg_num: int
    deg_den: int

    def to_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "u": str(self.u),
            "deg_num": str(self.deg_num),
            "deg_den": str(self.deg_den),
        }


def _uni_coeffs(f: MPoly) -> list:
    """Dense Fraction coefficient list of a polynomial in t alone."""
    if f.is_zero():
        return []
    if f.vars not in ((), ("t",)):
        raise ValueError(f"not univariate in t: vars {f.vars}")
    out = [Fraction(0)] * (f.degree() + 1)
    for k, c in f.terms.items():
        e = f.exponents(k)[0] if f.vars else 0
        out[e] = Fraction(c)
    return out


def _uni_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _uni_mod(f, g):
    # remainder of dense Fraction lists; g nonzero
    f = f[:]
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        k = len(f) - 1 - dg
        q = f[-1] / lg
        for i, gc in enumerate(g):
            f[k + i] -= q * gc
        f.pop()
        _uni_trim(f)
    return f


def _uni_gcd_degree(f, g) -> int:
    """Degree of gcd of two dense coefficient lists, at least one nonzero."""
    f, g = _uni_trim(f[:]), _uni_trim(g[:])
    while g:
        f, g = g, _uni_mod(f, g)
    return len(f) - 1


def degree_stats(a, b, u) -> DegreeStats:
    """Degrees of the coprime N/D with X1*X2*X3 = N/D, first family, n = 3.

    u must avoid the roots of g. The product is formed from the deployed
    (cancelled) map over rational t and reduced to lowest terms by univariate
    gcd; that single-variable gcd is this module's private exception to the
    no-gcd rule of the symbolic layer.
    """
    a, b, u = Fraction(a), Fraction(b), Fraction(u)
    params = CurveParams("g1", 3, a, b)
    if not g_eval(params, u):
        raise ValueError(f"g({u}) = 0; pick u off the roots of g")
    t = RatFun.var("t")
    triple = three_point_map(params, t, u)
    prod = triple.xs[0] * triple.xs[1] * triple.xs[2]
    num, den = _uni_coeffs(prod.num), _uni_coeffs(prod.den)
    if not num:
        return DegreeStats(a, b, u, -1, 0)
    shared = _uni_gcd_degree(num, den)
    return DegreeStats(a, b, u, len(num) - 1 - shared, len(den) - 1 - shared)

