"""Exact sparse multivariate polynomials and rational functions over Q.

This is the certification layer: every identity the curve constructions rely
on is checked here by exact arithmetic, never numerically. Two deliberate
restrictions shape the design:

* ``RatFun`` numerator/denominator pairs are kept *unreduced*. Equality
  (``rf_eq``) compares the numerators when the two denominators are the same
  polynomial and cross-multiplies every other pair, so no multivariate GCD or
  factorization exists anywhere in this module.
* The variable universe is fixed to ``a b c d t u``. Exponent vectors are
  packed into a single int (16 bits per variable), which makes monomial
  products a single integer addition.

Coefficients are ``fractions.Fraction`` values, stored as plain ``int`` when
integral so that the common all-integer paths stay fast.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

VARS = ("a", "b", "c", "d", "t", "u")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
# every subset of the universe, in universe order
_CANONICAL = frozenset(
    tuple(v for i, v in enumerate(VARS) if m >> i & 1) for m in range(1 << len(VARS))
)

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_DEG_LIMIT = 1 << 15  # headroom so one multiplication cannot carry across limbs


class DivisionByZeroFunction(ZeroDivisionError):
    """Division by the identically-zero polynomial or rational function."""


class PoleAtPoint(ArithmeticError):
    """Rational-number evaluation hit a vanishing denominator."""


def _check_vars(vs):
    for v in vs:
        if v not in _VAR_INDEX:
            raise ValueError(f"unknown variable {v!r}; universe is {VARS}")


class MPoly:
    """Sparse polynomial in a subset of the fixed variable universe.

    ``vars`` is the tuple of variables actually used, in canonical order;
    ``terms`` maps packed exponent keys to nonzero coefficients. Instances
    are treated as immutable; all operations return new objects.
    """

    __slots__ = ("vars", "terms", "_maxdeg")

    def __init__(self, vars=(), terms=None):
        _check_vars(vars)
        self.vars = tuple(vars)
        self.terms = {} if terms is None else terms
        self._normalize()

    def _normalize(self):
        # One pass: drop zeros, collapse integral Fractions (an exact class
        # test, cheaper than isinstance through the numbers ABCs) and OR the
        # packed keys, whose limbs are nonzero exactly for the used variables.
        terms = {}
        used = 0
        for k, c in self.terms.items():
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            if c:
                terms[k] = c
                used |= k
        vs = self.vars
        keep = [i for i in range(len(vs)) if (used >> (_SHIFT * i)) & _MASK]
        # equality compares vars tuples, so they must come in universe order
        ordered = vs in _CANONICAL
        if not ordered:
            if len(set(vs)) < len(vs):
                raise ValueError(f"repeated variable in {vs}")
            keep.sort(key=lambda i: _VAR_INDEX[vs[i]])
        maxdeg = 0
        for i in keep:
            shift = _SHIFT * i
            d = max((k >> shift) & _MASK for k in terms)
            if d > maxdeg:
                maxdeg = d
        if len(keep) < len(vs) or not ordered:
            remapped = {}
            for k, c in terms.items():
                nk = 0
                for j, i in enumerate(keep):
                    nk |= ((k >> (_SHIFT * i)) & _MASK) << (_SHIFT * j)
                remapped[nk] = c
            terms = remapped
            self.vars = tuple(vs[i] for i in keep)
        self.terms = terms
        self._maxdeg = maxdeg
        if maxdeg >= _DEG_LIMIT:
            raise OverflowError("per-variable degree exceeds packing limit")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "MPoly":
        return cls((), {0: c if isinstance(c, (int, Fraction)) else Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        _check_vars((name,))
        return cls((name,), {1: 1})

    @classmethod
    def from_terms(cls, mapping, vars) -> "MPoly":
        """Build from {exponent tuple: coefficient} over the given variables."""
        vs = tuple(sorted(vars, key=_VAR_INDEX.__getitem__))
        order = [vars.index(v) for v in vs]
        terms = {}
        for exps, c in mapping.items():
            k = 0
            for j, i in enumerate(order):
                k |= int(exps[i]) << (_SHIFT * j)
            terms[k] = terms.get(k, 0) + Fraction(c)
        return cls(vs, terms)

    # -- helpers -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _unify(self, other):
        """Remap both polynomials onto the union variable tuple."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(sorted(set(self.vars) | set(other.vars), key=_VAR_INDEX.__getitem__))
        return union, self._remap(union), other._remap(union)

    def _remap(self, union):
        if self.vars == union:
            return self.terms
        pos = [union.index(v) for v in self.vars]
        out = {}
        for k, c in self.terms.items():
            nk = 0
            for j, p in enumerate(pos):
                nk |= ((k >> (_SHIFT * j)) & _MASK) << (_SHIFT * p)
            out[nk] = c
        return out

    def exponents(self, k):
        return tuple((k >> (_SHIFT * i)) & _MASK for i in range(len(self.vars)))

    def degree(self, var=None) -> int:
        """Total degree, or degree in one variable; zero polynomial gives -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(self.exponents(k)) for k in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((k >> (_SHIFT * i)) & _MASK for k in self.terms)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vs, t1, t2 = self._unify(other)
        out = dict(t1)
        for k, c in t2.items():
            out[k] = out.get(k, 0) + c
        return MPoly(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return MPoly()
        if self._maxdeg + other._maxdeg >= _DEG_LIMIT:
            raise OverflowError("product degree exceeds packing limit")
        vs, t1, t2 = self._unify(other)
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        out = {}
        get = out.get
        for k2, c2 in t2.items():
            for k1, c1 in t1.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return MPoly(vs, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("MPoly exponent must be a non-negative int")
        result = MPoly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point binding every variable used."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"unbound variables in evaluation: {missing}")
        vals = [Fraction(point[v]) for v in self.vars]
        caches = [{0: Fraction(1)} for _ in self.vars]
        total = Fraction(0)
        for k, c in self.terms.items():
            prod = Fraction(c)
            for i, val in enumerate(vals):
                e = (k >> (_SHIFT * i)) & _MASK
                cache = caches[i]
                if e not in cache:
                    cache[e] = val ** e
                prod *= cache[e]
            total += prod
        return total

    def substitute(self, bindings) -> "RatFun":
        """Substitute rational functions for variables; unbound ones persist.

        Uses the common-denominator expansion, so the result's denominator is
        the product of binding denominators raised to per-variable degrees
        (no cancellation happens here, by design).
        """
        rfb = {}
        for v, f in bindings.items():
            _check_vars((v,))
            rfb[v] = as_ratfun(f)
        nums, dens, degs = [], [], []
        for v in self.vars:
            f = rfb.get(v)
            if f is None:
                nums.append(MPoly.var(v))
                dens.append(MPoly.const(1))
            else:
                nums.append(f.num)
                dens.append(f.den)
            degs.append(self.degree(v))
        npow = [{0: MPoly.const(1)} for _ in self.vars]
        dpow = [{0: MPoly.const(1)} for _ in self.vars]

        def power(cache, base, e):
            if e not in cache:
                cache[e] = base ** e
            return cache[e]

        total = MPoly()
        for k, c in self.terms.items():
            term = MPoly.const(c)
            for i in range(len(self.vars)):
                e = (k >> (_SHIFT * i)) & _MASK
                term = term * power(npow[i], nums[i], e)
                term = term * power(dpow[i], dens[i], degs[i] - e)
            total = total + term
        den = MPoly.const(1)
        for i in range(len(self.vars)):
            den = den * power(dpow[i], dens[i], degs[i])
        return RatFun(total, den)

    # -- text form -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        def order_key(k):
            exps = self.exponents(k)
            return (sum(exps), exps)
        parts = []
        for k in sorted(self.terms, key=order_key, reverse=True):
            c = self.terms[k]
            body = str(abs(Fraction(c))) if not isinstance(c, int) else str(abs(c))
            for i, v in enumerate(self.vars):
                e = (k >> (_SHIFT * i)) & _MASK
                if e:
                    body += f"*{v}^{e}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MPoly({self})"


def as_ratfun(f) -> "RatFun":
    if isinstance(f, RatFun):
        return f
    if isinstance(f, MPoly):
        return RatFun(f, MPoly.const(1))
    if isinstance(f, (int, Fraction)):
        return RatFun(MPoly.const(f), MPoly.const(1))
    raise TypeError(f"cannot interpret {type(f).__name__} as a rational function")


class RatFun:
    """Quotient of two MPoly values, *never* reduced.

    Equality (``rf_eq`` / ``==``) compares numerators when the denominators
    are equal polynomials and cross-multiplies otherwise; both are exact and
    need no GCD machinery. Arithmetic accumulates numerators/denominators
    verbatim, so two equal functions may have different representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, MPoly) else MPoly.const(num)
        den = MPoly.const(1) if den is None else (den if isinstance(den, MPoly) else MPoly.const(den))
        if den.is_zero():
            raise DivisionByZeroFunction("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def var(cls, name: str) -> "RatFun":
        return cls(MPoly.var(name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.terms)

    def __add__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZeroFunction("division by the zero function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return as_ratfun(other) / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ValueError("RatFun exponent must be int")
        if e < 0:
            if self.num.is_zero():
                raise DivisionByZeroFunction("negative power of the zero function")
            return RatFun(self.den ** (-e), self.num ** (-e))
        return RatFun(self.num ** e, self.den ** e)

    def __eq__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if self.den == other.den:
            # exact: the polynomial ring is an integral domain and no
            # denominator is zero, so n1/d = n2/d iff n1 = n2
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def substitute(self, bindings) -> "RatFun":
        n = self.num.substitute(bindings)
        d = self.den.substitute(bindings)
        if d.num.is_zero():
            raise DivisionByZeroFunction("substitution produced an identically zero denominator")
        # (n.num/n.den) / (d.num/d.den), flattened
        return RatFun(n.num * d.den, n.den * d.num)

    def evaluate(self, point) -> Fraction:
        dval = self.den.evaluate(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        return self.num.evaluate(point) / dval

    def __str__(self):
        if self.den == MPoly.const(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def rf_eq(f, g) -> bool:
    """Exact equality of rational functions: numerators over a shared
    denominator, cross-multiplication otherwise."""
    return as_ratfun(f) == as_ratfun(g)


def _fraction_sqrt(c: Fraction):
    if c < 0:
        return None
    c = Fraction(c)
    rn, rd = isqrt(c.numerator), isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


def poly_exact_sqrt(f: MPoly):
    """Exact square root of a univariate polynomial, or None.

    Coefficient matching from the top: if f = h^2 with deg h = m, the
    coefficients of h are determined by h_m = sqrt(f_2m) and a linear solve
    per lower coefficient. The candidate is verified by squaring, so a False
    negative is impossible and no tolerance is involved. The returned root has
    positive leading coefficient.
    """
    if len(f.vars) > 1:
        raise ValueError("poly_exact_sqrt is univariate only")
    if f.is_zero():
        return MPoly()
    d = f.degree()
    if d % 2:
        return None
    coeffs = [Fraction(0)] * (d + 1)
    for k, c in f.terms.items():
        coeffs[k & _MASK] = Fraction(c)
    m = d // 2
    lead = _fraction_sqrt(coeffs[d])
    if lead is None or lead == 0:
        return None
    h = [Fraction(0)] * (m + 1)
    h[m] = lead
    for k in range(m - 1, -1, -1):
        acc = Fraction(0)
        for i in range(k + 1, m):
            j = m + k - i
            if k < j <= m:
                acc += h[i] * h[j]
        h[k] = (coeffs[m + k] - acc) / (2 * lead)
    var = f.vars[0] if f.vars else "t"
    root = MPoly((var,), {i: c for i, c in enumerate(h) if c != 0})
    if root * root == f:
        return root
    return None
