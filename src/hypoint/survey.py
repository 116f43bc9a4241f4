"""Exhaustive desk-scale experiments on y^2 = g(x) over F_q.

* enumerate_curve: every affine point, by x-scan with one sqrt per x in the
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
sweep_soundness. It works on the canonical indices 0..q-1 of Field's element
order (Field.element and Field.index convert), makes an element only for
output, and reads O(q) tables, none of them q x q. Those that depend on the
field alone come from the Field, which builds them on its first walk and
keeps them for its lifetime (Field.log_tables): discrete logs over the
first primitive element, the Zech table, and the quadratic character and
canonical root (or None) of every element. Every walk over the same Field
object shares them, so a survey of many curves on one field pays for them
once. Each walk builds the curve's own tables: g of every element, and X2,
X3 and U for every s = t^2 g(u), the only way the map depends on (t, u).
The tables are in log/Zech form: an element is its discrete log (zero is
None), so a product is an int sum and a sum one table read, on prime and
extension fields alike. The formulas run on whole-table log vectors, each
operation one pass over a table: the g-table is one call of
curves.g_shape on every element, and the s-table is curves._three_point
itself, the formula encode runs and the certifier proves, called on every s
at once, with g(X2) read off the g-table. Where an s's denominator core
vanishes, its division records the position in the vector's mask instead of
raising, and the walk reads masked positions as excluded s. s = 1 is a call
of its own, because the raw form has its own branch there. g and each
character are evaluated once per element. Every check is then a check on
one s: the pair's identity U^2 = g(u) g(X2) g(X3) is g(X3) = s^n g(X2), its
character product is chi(s) chi(g(X2)) chi(g(X3)), and its output is X2 or
X3 by s alone, or u itself when chi(s) = 1. Each u with chi(g(u)) = chi(s)
meets s at exactly the two values +-t, so the walk checks each s (and each
output u) once and weights it by the pairs it stands for: a survey costs
O(q), and its counts are still pair counts. Only enumerate_T, whose output
has q^2 entries, visits pairs.

Everything is deterministic; reports serialize with all counts as decimal
strings so consumers never face 64-bit overflow. Coverage is measured against
affine points only (the encoder never outputs the point at infinity).
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from ._record import Record
from .curves import (
    AffinePoint,
    CurveParams,
    DenominatorVanishes,
    _field_of,
    _require_odd,
    _three_point,
    _x2,
    g_eval,
    g_shape,
    point_json,
)
from .ff import Field, _poly_gcd, field_new
from .poly import RatFun

DEFAULT_CAP = 10_000
MISSED_CAP = 100


class FieldTooLarge(ValueError):
    pass


def _check_cap(q: int, cap, cost: str):
    """Raise FieldTooLarge above the cap; warn, naming the caller's cost,
    when the cap is raised above the default."""
    limit = DEFAULT_CAP if cap is None else cap
    if cap is not None and cap > DEFAULT_CAP:
        warnings.warn(f"enumeration cap raised to {cap}; {cost}", stacklevel=3)
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
    _check_cap(ctx.q, cap, "enumerating the curve evaluates g at all q elements")
    pts = []
    for x in ctx.elements():
        r = ctx.sqrt(g_eval(params, x))
        if r is not None:
            pts.append(AffinePoint(x, r))
            if r:
                pts.append(AffinePoint(x, -r))
    return pts


# ---------------------------------------------------------------------------
# the domain walk


class _Logs:
    """F_q in log form for one walk: the field's log and Zech tables, and the
    ints coerced through the logs of their field values. It is the walk's, not
    the field's, so the field's tables never refer back to the field."""

    def __init__(self, ctx: Field, log: tuple, zech: tuple):
        self.ctx, self.log, self.zech = ctx, log, zech
        self.qm1 = ctx.q - 1
        # -1 is the one element of order 2, gen^((q-1)/2)
        self.half = self.qm1 // 2
        # logs, not vectors, so that nothing here refers back to a vector
        # and the walk's tables are freed without the cycle collector
        self.int_logs = {}

    def log_of(self, x):
        """The log of an int, through its field value, or of a field element."""
        if type(x) is int:
            if x not in self.int_logs:
                self.int_logs[x] = self.log_of(self.ctx.elem(x))
            return self.int_logs[x]
        return self.log[self.ctx.index(x.val)]


class _LogVec:
    """A whole table of F_q elements, each as its discrete log mod q - 1 and
    zero as None; every operation is one pass over the table.

    Products, quotients, powers and negation are int arithmetic on the logs,
    and a sum reads the Zech table: gen^i + gen^j = gen^(i + zech[j - i]).
    Ints and field elements broadcast through the logs of their field
    values, so the ring-generic formulas of curves run on this type
    unchanged, on every entry at once. As a whole the vector equals x when
    every entry does and is true when some entry is nonzero, so a formula's
    zero test reads "zero everywhere". Division by a zero entry does not
    raise: it records the position in mask, which every later result
    carries.
    """

    __slots__ = ("f", "ks", "mask")

    def __init__(self, f: _Logs, ks: list, mask: frozenset = frozenset()):
        self.f = f
        self.ks = ks
        self.mask = mask

    def _other(self, other):
        """other's logs, one per entry, and the mask of the result."""
        if type(other) is _LogVec:
            return other.ks, self.mask | other.mask
        return [self.f.log_of(other)] * len(self.ks), self.mask

    def __add__(self, other):
        zech, qm1 = self.f.zech, self.f.qm1
        js, mask = self._other(other)
        # j - i lies in (-(q-1), q-1), and a negative list index counts from
        # the end, so zech[j - i] is zech[(j - i) mod (q - 1)]
        return _LogVec(self.f, [
            j if i is None else i if j is None
            else None if (z := zech[j - i]) is None else (i + z) % qm1
            for i, j in zip(self.ks, js)], mask)

    def __neg__(self):
        # -gen^i = gen^(i + (q-1)/2)
        half, qm1 = self.f.half, self.f.qm1
        return _LogVec(self.f, [None if i is None else (i + half) % qm1 for i in self.ks], self.mask)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not _LogVec and self.f.log_of(other) == 0:
            return self  # the formulas' t = 1: a whole-table pass saved
        qm1 = self.f.qm1
        js, mask = self._other(other)
        return _LogVec(self.f, [None if i is None or j is None else (i + j) % qm1
                                for i, j in zip(self.ks, js)], mask)

    __rmul__ = __mul__

    def __truediv__(self, other):
        qm1 = self.f.qm1
        js, mask = self._other(other)
        if None in js:
            mask = mask.union(p for p, j in enumerate(js) if j is None)
        return _LogVec(self.f, [None if i is None or j is None else (i - j) % qm1
                                for i, j in zip(self.ks, js)], mask)

    def __pow__(self, e: int):
        if not e:
            return _LogVec(self.f, [0] * len(self.ks), self.mask)
        qm1 = self.f.qm1
        return _LogVec(self.f, [None if i is None else i * e % qm1 for i in self.ks], self.mask)

    def __bool__(self):
        return self.ks.count(None) < len(self.ks)

    def __eq__(self, other):
        return self.ks == self._other(other)[0]

    def column(self, alog: list | None = None) -> list:
        """The entries as canonical indices through alog (zero is index 0 on
        every field), or as logs without it; None at masked positions."""
        out = list(self.ks) if alog is None else [0 if k is None else alog[k] for k in self.ks]
        for p in self.mask:
            out[p] = None
        return out


class _DomainWalk:
    """The encoder over all of T, on canonical element indices and O(q) tables.

    The tables are in log form. The field's own tables (antilog, log,
    character, canonical root and Zech) come from Field.log_tables, built on
    the first walk over a Field object and shared, unwritten, by every later
    one. The walk builds only the curve's tables: g and curves._three_point
    run once each on whole-table vectors (_LogVec), so every product is an
    int sum and every sum one table read, on prime and extension fields
    alike; _three_point gathers g(X2) from the g-table instead of evaluating
    g again. A corrupted table rebound on one walk therefore leaves the
    field's tables, and later walks, as they were. The s-table takes two
    calls, s = 1 alone and every other s; the mask of the second call, and
    a call whose core vanishes at every s, mark the excluded s. run() makes
    each check once per s, weighted by the 2 * #{u : g(u) != 0,
    chi(g(u)) = chi(s)} pairs that meet s, so the counters size_T,
    raw_excluded, identity_failures, char_violations and
    membership_failures are pair counts. hit[x] is set when some pair
    encodes to the point with x-coordinate x; the encoder's y is always the
    canonical root of g(x), so x alone names the point. rows() yields the
    admissible (t, [u, ...]) in row-major order (t outer, both in canonical
    order) and checks nothing.
    """

    def __init__(self, params: CurveParams):
        _require_odd(params.n)
        ctx = _field_of(params)
        qm1 = ctx.q - 1
        alog, log, chi, root, zech = ctx.log_tables()
        logs = _Logs(ctx, log, zech)
        fam, n, a, b = params.family, params.n, params.a, params.b
        # a list copy: _LogVec compares its entries to a list, and the field's
        # tuple stays the field's
        gx = g_shape(fam, n, a, b, _LogVec(logs, list(log))).column(alog)
        lg0 = log[gx[0]]

        def g_of(x2: _LogVec) -> _LogVec:
            # g(X2) gathered from the g-table, not evaluated again
            return _LogVec(logs, [lg0 if k is None else log[gx[alog[k]]] for k in x2.ks], x2.mask)

        # X2, X3 and log U by log of s, None where the denominator core
        # vanishes: the map at t = 1, gamma = s has the X2 and X3 of every
        # pair with t^2 g(u) = s, and its U^2 = s g(X2) g(X3) holds exactly
        # when g(X3) = s^n g(X2), which is each such pair's identity. s = 1
        # is a call of its own, because the raw form has its own branch there
        x2_of, x3_of, lu_of = [], [], []
        for ks in ([0], list(range(1, qm1))):
            try:
                x2, x3, uu, _ = _three_point(fam, n, a, b, 1, _LogVec(logs, ks), "raw", g_of)
            except DenominatorVanishes:
                # the core vanishes at every s of the call
                x2 = x3 = uu = _LogVec(logs, ks, frozenset(range(len(ks))))
            x2_of += x2.column(alog)
            x3_of += x3.column(alog)
            lu_of += uu.column()

        self.params = params
        self.ctx = ctx
        self.gx = gx
        self.root = root
        self.chi = chi
        self._log = log
        self._alog = alog
        self._x2_of = x2_of
        self._x3_of = x3_of
        self._lu_of = lu_of
        self.hit = bytearray(ctx.q)
        self.size_T = 0
        self.raw_excluded = 0
        self.identity_failures = 0
        self.char_violations = 0
        self.membership_failures = 0

    def rows(self):
        q = self.ctx.q
        qm1 = q - 1
        log = self._log
        # doubled, so that a sum of two logs indexes it without a reduction
        admissible = [x2 is not None for x2 in self._x2_of] * 2
        lgus = [(u, log[g]) for u, g in enumerate(self.gx) if g]
        for t in range(1, q):
            lt2 = 2 * log[t] % qm1
            yield t, [u for u, lgu in lgus if admissible[lt2 + lgu]]

    def _on_curve(self, x) -> bool:
        """y^2 = g(x) for the encoder's y, the canonical root of g(x)."""
        g, y = self.gx[x], self.root[self.gx[x]]
        # y^2 is the antilog of 2 log y
        return (self._alog[2 * self._log[y] % (self.ctx.q - 1)] if y else 0) == g

    def run(self) -> _DomainWalk:
        qm1 = self.ctx.q - 1
        log, alog, gx, chi, hit = self._log, self._alog, self.gx, self.chi, self.hit
        # the u off the roots of g, by the character of g(u)
        by_chi = {1: [], -1: []}
        for u, g in enumerate(gx):
            if g:
                by_chi[chi[g]].append(u)
        squares_passed = 0
        for ls, (x2, x3, lu) in enumerate(zip(self._x2_of, self._x3_of, self._lu_of)):
            chi_s = chi[alog[ls]]
            weight = 2 * len(by_chi[chi_s])
            if x2 is None or not weight:
                continue
            self.size_T += weight
            if ls == 0:
                self.raw_excluded += weight
            g2, g3 = gx[x2], gx[x3]
            lg2 = log[g2]
            if lg2 is None:
                # U = 0 = U^2, and X2 is the first component on y = 0
                x = x2
            else:
                # on logs: 2 log U = log s + log g(X2) + log g(X3), mod q - 1
                lg3 = log[g3]
                if lg3 is None or (2 * lu - ls - lg2 - lg3) % qm1:
                    self.identity_failures += weight
                    continue
                chi2, chi3 = chi[g2], chi[g3]
                if chi_s * chi2 * chi3 == -1:
                    self.char_violations += weight
                    continue
                if chi_s == 1:
                    # every pair at this s outputs its own u, checked below
                    squares_passed += 1
                    continue
                x = x2 if chi2 == 1 else x3
            if not self._on_curve(x):
                self.membership_failures += weight
            hit[x] = 1
        if squares_passed:
            for u in by_chi[1]:
                if not self._on_curve(u):
                    self.membership_failures += 2 * squares_passed
                hit[u] = 1
        return self


def enumerate_T(params: CurveParams, cap=None):
    """Admissible (t, u) in deterministic row-major order (t outer)."""
    _check_cap(_field_of(params).q, cap, "enumerating all of T lists up to q^2 pairs")
    walk = _DomainWalk(params)
    element = walk.ctx.element
    return ((element(t), element(u)) for t, row in walk.rows() for u in row)


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


_WALK_COST = "the domain walk builds tables of q entries"


def domain_summary(params: CurveParams, cap=None) -> dict:
    _check_cap(_field_of(params).q, cap, _WALK_COST)
    return _domain_fields(_DomainWalk(params).run())


class CoverageReport(Record):
    __slots__ = ("q", "field", "params", "size_T", "raw_excluded", "bound", "bound_applicable",
                 "bound_holds", "curve_size", "image_size", "missed", "missed_truncated")

    def __init__(self, q: int, field: str, params: str, size_T: int, raw_excluded: int, bound: int,
                 bound_applicable: bool, bound_holds: bool, curve_size: int, image_size: int,
                 missed: tuple, missed_truncated: bool):
        self._init(q, field, params, size_T, raw_excluded, bound, bound_applicable, bound_holds,
                   curve_size, image_size, missed, missed_truncated)

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


def coverage(params: CurveParams, cap=None) -> CoverageReport:
    """Encode every admissible pair, compare the image with the affine points.

    The walk checks each s = t^2 g(u) once and weights it by its pairs, so
    cost grows as q, and the counts are exact over all of T; intended for
    the exhaustive desk scale under the enumeration cap. The affine points
    are read off the same tables, in enumerate_curve's order.
    """
    _check_cap(_field_of(params).q, cap, _WALK_COST)
    walk = _DomainWalk(params).run()
    if walk.identity_failures or walk.char_violations or walk.membership_failures:
        raise AssertionError(
            f"encoder unsound on {params}: {walk.identity_failures} identity, "
            f"{walk.char_violations} character, {walk.membership_failures} membership failures"
        )
    ctx, gx, root, element = walk.ctx, walk.gx, walk.root, walk.ctx.element
    curve_size = 0
    missed = []
    for x in range(ctx.q):
        r = root[gx[x]]
        if r is None:
            continue
        curve_size += 1 if r == 0 else 2
        hit = walk.hit[x]
        if len(missed) > MISSED_CAP or hit and not r:
            continue
        px, py = element(x), element(r)
        if not hit:
            missed.append(AffinePoint(px, py))
        if r:
            missed.append(AffinePoint(px, -py))
    return CoverageReport(
        q=ctx.q,
        field=ctx.spec_text(),
        params=str(params),
        **_domain_fields(walk),
        curve_size=curve_size,
        image_size=sum(walk.hit),
        missed=tuple(missed[:MISSED_CAP]),
        missed_truncated=len(missed) > MISSED_CAP,
    )


def sweep_soundness(p: int | Field, n: int, a: int, b: int, family: str = "g1",
                    collect_image: bool = False, cap=None) -> dict:
    """Walk all of T over F_p from int inputs, counting every broken promise.

    p is a prime or a prime Field; sweeps over one Field object share its
    tables. Returns counts; all three failure counters must be zero.
    collect_image additionally returns the sorted encoded (x, y) list as
    ints, which drift tests compare against the generic field-layer encoder.
    p above the enumeration cap raises FieldTooLarge before any table is
    built.
    """
    ctx = field_new(p)
    if ctx.m != 1:
        raise ValueError(f"the soundness sweep runs over prime fields only, not {ctx}")
    _check_cap(ctx.q, cap, _WALK_COST)
    _require_odd(n)  # before CurveParams, which accepts any n >= 2
    p = ctx.p
    a %= p
    b %= p
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


class DegreeStats(Record):
    __slots__ = ("a", "b", "u", "deg_num", "deg_den")

    def __init__(self, a: Fraction, b: Fraction, u: Fraction, deg_num: int, deg_den: int):
        self._init(a, b, u, deg_num, deg_den)

    def to_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "u": str(self.u),
            "deg_num": str(self.deg_num),
            "deg_den": str(self.deg_den),
        }


def degree_stats(a, b, u) -> DegreeStats:
    """Degrees of the coprime N/D with X1*X2*X3 = N/D, first family, n = 3.

    u must avoid the roots of g. The product is formed from the cancelled
    map over rational t and reduced to lowest terms by univariate gcd (the
    one ff's modulus check runs over F_p); that single-variable gcd is this
    module's private exception to the no-gcd rule of the symbolic layer.
    """
    a, b, u = Fraction(a), Fraction(b), Fraction(u)
    gu = g_eval(CurveParams("g1", 3, a, b), u)
    if not gu:
        raise ValueError(f"g({u}) = 0; pick u off the roots of g")
    # _three_point's X2 (e = n for g1) and X3 = s*X2, without its g(X2) and U
    s = RatFun.var("t") ** 2 * gu
    x2 = _x2(a, b, s, 3, "cancelled")
    prod = u * x2 * (s * x2)
    num, den = prod.num.coeffs("t"), prod.den.coeffs("t")
    if not num:
        return DegreeStats(a, b, u, -1, 0)
    shared = len(_poly_gcd(num, den)) - 1
    return DegreeStats(a, b, u, len(num) - 1 - shared, len(den) - 1 - shared)

