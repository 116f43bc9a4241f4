"""Exact sparse multivariate polynomials and rational functions over Q.

This is the certification layer: every identity the curve constructions rely
on is checked here by exact arithmetic, never numerically. Two deliberate
restrictions shape the design:

* ``RatFun`` values are kept *unreduced*, with the denominator held as a
  formal product of polynomial atoms. Sums and equality (``rf_eq``) bring
  both sides to the formal lcm, multiplying each numerator by only the atoms
  it lacks, and compare numerators alone when the denominators agree. Atoms
  are matched by polynomial equality and never split, so no multivariate GCD
  or factorization exists anywhere in this module.
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
    ``terms`` maps packed exponent keys to nonzero coefficients; ``degs``
    holds the degree in each of ``vars``. Instances are treated as
    immutable; no operation modifies its operands.
    """

    __slots__ = ("vars", "terms", "degs", "_frac")

    def __init__(self, vars=(), terms=None):
        _check_vars(vars)
        self.vars = tuple(vars)
        self.terms = {} if terms is None else terms
        self._normalize()

    @classmethod
    def _raw(cls, vars, terms, degs, frac):
        """Wrap already normal data: vars canonical and each one used, every
        coefficient nonzero and integral ones plain ints, degs[i] the degree
        in vars[i], frac whether any coefficient is a Fraction."""
        f = object.__new__(cls)
        f.vars, f.terms, f.degs, f._frac = vars, terms, degs, frac
        return f

    def _normalize(self):
        # One pass: drop zeros, collapse integral Fractions (an exact class
        # test, cheaper than isinstance through the numbers ABCs) and OR the
        # packed keys, whose limbs are nonzero exactly for the used variables.
        terms = {}
        used = 0
        frac = False
        for k, c in self.terms.items():
            if c.__class__ is Fraction:
                if c.denominator == 1:
                    c = c.numerator
                else:
                    frac = True
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
        degs = tuple(max((k >> (_SHIFT * i)) & _MASK for k in terms) for i in keep)
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
        self.degs = degs
        self._frac = frac
        if degs and max(degs) >= _DEG_LIMIT:
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
        return self.degs[self.vars.index(var)]

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
        return MPoly._raw(self.vars, {k: -c for k, c in self.terms.items()}, self.degs, self._frac)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vs, t1, t2 = self._unify(other)
        out = dict(t1)
        get = out.get
        for k, c in t2.items():
            out[k] = get(k, 0) - c
        return MPoly(vs, out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        """Product without renormalising: over Q the product of nonzero
        polynomials uses every variable of either factor, with the degrees
        added, so only cancelled coefficients need dropping."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return MPoly()
        deg = dict(zip(self.vars, self.degs))
        for v, d in zip(other.vars, other.degs):
            deg[v] = deg.get(v, 0) + d
        if max(deg.values(), default=0) >= _DEG_LIMIT:
            raise OverflowError("product degree exceeds packing limit")
        vs, t1, t2 = self._unify(other)
        out = {}
        get = out.get
        if t1 is t2:
            # squaring: each cross term once, doubled
            items = list(t1.items())
            for i, (k1, c1) in enumerate(items):
                k = k1 + k1
                out[k] = get(k, 0) + c1 * c1
                c1 += c1
                for k2, c2 in items[i + 1:]:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        else:
            if len(t1) < len(t2):
                t1, t2 = t2, t1
            for k2, c2 in t2.items():
                for k1, c1 in t1.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        if self._frac or other._frac:
            return MPoly(vs, out)
        for k in [k for k, c in out.items() if not c]:
            del out[k]
        return MPoly._raw(vs, out, tuple(map(deg.__getitem__, vs)), False)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("MPoly exponent must be a non-negative int")
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return MPoly.const(1) if result is None else result
            base = base * base

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

        The terms are summed as RatFuns, so the result's denominator is the
        formal product of the binding denominators, each raised to the degree
        of its variable (no cancellation happens here, by design).
        """
        _check_vars(bindings)
        bound = {v: as_ratfun(f) for v, f in bindings.items()}
        vals = [bound[v] if v in bound else RatFun.var(v) for v in self.vars]
        powers = [{} for _ in vals]
        total = RatFun(0)
        for k, c in self.terms.items():
            term = RatFun(c)
            for i, x in enumerate(vals):
                e = (k >> (_SHIFT * i)) & _MASK
                if e:
                    if e not in powers[i]:
                        powers[i][e] = x**e
                    term = term * powers[i][e]
            total = total + term
        return total

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


_ONE = MPoly.const(1)


def as_ratfun(f) -> "RatFun":
    if isinstance(f, RatFun):
        return f
    if isinstance(f, (MPoly, int, Fraction)):
        return RatFun(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a rational function")


def _align(f1, f2):
    """(atom, e1, e2) for every atom of either factor list; an atom missing
    from a list has exponent 0 there."""
    out = [(atom, e, 0) for atom, e in f1]
    for atom, e in f2:
        for i, (a, e1, _) in enumerate(out):
            if a is atom or a == atom:
                out[i] = (a, e1, e)
                break
        else:
            out.append((atom, 0, e))
    return out


def _merge(f1, f2):
    """Formal product of two factor lists: the exponents of equal atoms add."""
    if not f1 or not f2:
        return f1 or f2
    return tuple((a, e1 + e2) for a, e1, e2 in _align(f1, f2))


def _expand(factors) -> MPoly:
    """The polynomial a_1^e_1 * ... * a_k^e_k of a factor list."""
    out = None
    for atom, e in factors:
        p = atom**e
        out = p if out is None else out * p
    return _ONE if out is None else out


def _times(num: MPoly, factors) -> MPoly:
    return num * _expand(factors) if factors else num


class RatFun:
    """Quotient of an MPoly numerator by a formal product of MPoly atoms,
    *never* reduced.

    ``factors`` is a tuple of (atom, exponent) pairs with nonzero atoms; the
    denominator is their product, and ``den`` expands it on first use.
    Products merge exponents, powers scale them, and division adds the
    divisor's numerator as an atom. Sums and ``rf_eq`` bring both sides to
    the formal lcm, the larger exponent of each atom, multiplying each
    numerator by only the factors it lacks. Atoms are matched by polynomial
    equality and never split, so no GCD is needed: the ring is an integral
    domain and no atom is zero, so the formal lcm is a common multiple and
    the comparison exact. Two equal functions may still have different
    representations.
    """

    __slots__ = ("num", "factors", "_den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, MPoly) else MPoly.const(num)
        den = _ONE if den is None else (den if isinstance(den, MPoly) else MPoly.const(den))
        if den.is_zero():
            raise DivisionByZeroFunction("zero denominator")
        self.num = num
        self.factors = () if den == _ONE else ((den, 1),)
        self._den = den

    @classmethod
    def _make(cls, num, factors) -> "RatFun":
        f = object.__new__(cls)
        f.num, f.factors, f._den = num, factors, None
        return f

    @classmethod
    def var(cls, name: str) -> "RatFun":
        return cls(MPoly.var(name))

    @property
    def den(self) -> MPoly:
        """The expanded denominator, computed once on demand."""
        if self._den is None:
            self._den = _expand(self.factors)
        return self._den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.terms)

    def _cofactors(self, other):
        """The formal lcm of both denominators, and the factors of it that
        this side and the other side lack."""
        aligned = _align(self.factors, other.factors)
        return (tuple((a, max(e1, e2)) for a, e1, e2 in aligned),
                [(a, e2 - e1) for a, e1, e2 in aligned if e2 > e1],
                [(a, e1 - e2) for a, e1, e2 in aligned if e1 > e2])

    def _at_lcm(self, other, op):
        """op(numerator, other numerator) over the formal lcm; op is
        MPoly.__add__ or MPoly.__sub__."""
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        lcm, c1, c2 = self._cofactors(other)
        return RatFun._make(op(_times(self.num, c1), _times(other.num, c2)), lcm)

    def __add__(self, other):
        return self._at_lcm(other, MPoly.__add__)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._make(-self.num, self.factors)

    def __sub__(self, other):
        return self._at_lcm(other, MPoly.__sub__)

    def __rsub__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return RatFun._make(self.num * other.num, _merge(self.factors, other.factors))

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        d = other.num
        if d.is_zero():
            raise DivisionByZeroFunction("division by the zero function")
        factors = self.factors if d == _ONE else _merge(self.factors, ((d, 1),))
        return RatFun._make(_times(self.num, other.factors), factors)

    def __rtruediv__(self, other):
        return as_ratfun(other) / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ValueError("RatFun exponent must be int")
        if e < 0:
            if self.num.is_zero():
                raise DivisionByZeroFunction("negative power of the zero function")
            return (1 / self) ** -e
        return RatFun._make(self.num**e, tuple((a, e * k) for a, k in self.factors if e))

    def __eq__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        _, c1, c2 = self._cofactors(other)
        if not (c1 or c2) or self._same_den(other):
            # exact: the polynomial ring is an integral domain and no
            # denominator is zero, so n1/d = n2/d iff n1 = n2
            return self.num == other.num
        return _times(self.num, c1) == _times(other.num, c2)

    def _same_den(self, other) -> bool:
        """Equal expanded denominators under different factor lists, as for
        RatFun(num, den) against a factored function. Unequal degrees decide
        most cases without expanding; an expansion made here is not kept."""
        if sum(e * sum(a.degs) for a, e in self.factors) != sum(e * sum(a.degs) for a, e in other.factors):
            return False
        d1 = _expand(self.factors) if self._den is None else self._den
        d2 = _expand(other.factors) if other._den is None else other._den
        return d1 == d2

    def substitute(self, bindings) -> "RatFun":
        n = self.num.substitute(bindings)
        d = self.den.substitute(bindings)
        if d.num.is_zero():
            raise DivisionByZeroFunction("substitution produced an identically zero denominator")
        return n / d

    def evaluate(self, point) -> Fraction:
        dval = self.den.evaluate(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        return self.num.evaluate(point) / dval

    def __str__(self):
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def rf_eq(f, g) -> bool:
    """Exact equality of rational functions: numerators alone when the
    denominators agree (same factor list or same expanded polynomial),
    otherwise each numerator times the factors of the formal lcm its own
    denominator lacks. No GCD is taken."""
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
