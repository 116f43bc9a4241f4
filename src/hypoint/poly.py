"""Exact sparse multivariate polynomials and rational functions over Q.

This is the certification layer: every identity the curve constructions rely
on is checked here by exact arithmetic, never numerically. Two deliberate
restrictions shape the design:

* ``RatFun`` values are kept *unreduced*, as c * x^m * prod atom^e: a
  rational c, a signed exponent per variable, and polynomial atoms of two
  or more terms, with positive (numerator) or negative exponents. Products,
  quotients and powers multiply c and add, subtract or scale exponents, so
  equal atoms cancel formally. Sums and ``rf_eq`` expand only the atoms the
  two sides do not share. Atoms match by a key computed once and are never
  split, so no multivariate GCD or factorization exists anywhere in this
  module. An atom memoises its powers; the memo lives and dies with it.
* The variable universe is fixed to ``a b c d t u``. Every exponent vector is
  packed into one int with a fixed 16-bit limb per universe variable, limb i
  holding the exponent of ``VARS[i]`` whatever variables a polynomial uses,
  so a monomial product between any two polynomials is one integer addition.

Coefficients are ``fractions.Fraction`` values, stored as plain ``int`` when
integral so that the common all-integer paths stay fast.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, lshift, sub

VARS = ("a", "b", "c", "d", "t", "u")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_DEG_LIMIT = 1 << 15  # headroom so one multiplication cannot carry across limbs
_NO_DEGS = (0,) * len(VARS)
_SHIFTS = tuple(range(0, _SHIFT * len(VARS), _SHIFT))


class DivisionByZeroFunction(ZeroDivisionError):
    """Division by the identically-zero polynomial or rational function."""


class PoleAtPoint(ArithmeticError):
    """Rational-number evaluation hit a vanishing denominator."""


def _check_vars(vs):
    for v in vs:
        if v not in _VAR_INDEX:
            raise ValueError(f"unknown variable {v!r}; universe is {VARS}")


class MPoly:
    """Sparse polynomial over the fixed variable universe.

    ``terms`` maps packed exponent keys to nonzero coefficients, limb i of a
    key holding the exponent of ``VARS[i]``; ``degs`` holds the degree in
    each universe variable, and ``vars`` is the tuple of those actually used,
    in universe order. The constructor takes such a ``terms`` dict and
    normalizes it in place; ``from_terms`` packs exponent tuples. Instances
    are treated as immutable; no operation modifies its operands.
    """

    __slots__ = ("terms", "degs", "_frac")

    def __init__(self, terms=None):
        if terms is not None and not isinstance(terms, dict):
            raise TypeError("MPoly takes a dict of packed keys; use MPoly.from_terms for exponent tuples")
        self.terms = {} if terms is None else terms
        self.degs = None
        self._normalize()

    @classmethod
    def _raw(cls, terms, degs, frac):
        """Wrap already normal data: every coefficient nonzero and integral
        ones plain ints, degs[i] the degree in VARS[i], frac whether any
        coefficient is a Fraction."""
        f = object.__new__(cls)
        f.terms, f.degs, f._frac = terms, degs, frac
        return f

    def _normalize(self, frac=True):
        """Normalize in place, on a dict this polynomial owns, and return it:
        collapse integral Fractions only when frac says one may be present
        (an exact class test, cheaper than isinstance through the numbers
        ABCs), drop zeros, and read degs off the keys only when degs is
        unset or a term dropped."""
        terms = self.terms
        if frac:
            frac = False
            for k, c in terms.items():
                if c.__class__ is Fraction:
                    if c.denominator == 1:
                        terms[k] = c.numerator
                    else:
                        frac = True
        self._frac = frac
        zeros = [k for k, c in terms.items() if not c]
        for k in zeros:
            del terms[k]
        if zeros or self.degs is None:
            used = 0
            for k in terms:
                used |= k
            self.degs = tuple(max((k >> s) & _MASK for k in terms) if (used >> s) & _MASK else 0
                              for s in _SHIFTS)
            if max(self.degs) >= _DEG_LIMIT or used >> (_SHIFT * len(VARS)):
                raise OverflowError("per-variable degree exceeds packing limit")
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "MPoly":
        if c.__class__ is not int:
            c = Fraction(c)
            c = c.numerator if c.denominator == 1 else c
        return cls._raw({0: c} if c else {}, _NO_DEGS, c.__class__ is Fraction)

    @classmethod
    def var(cls, name: str) -> "MPoly":
        _check_vars((name,))
        i = _VAR_INDEX[name]
        return cls._raw({1 << (_SHIFT * i): 1}, _NO_DEGS[:i] + (1,) + _NO_DEGS[i + 1:], False)

    @classmethod
    def from_terms(cls, mapping, vars) -> "MPoly":
        """Build from {exponent tuple: coefficient} over the given variables."""
        _check_vars(vars)
        if len(set(vars)) < len(vars):
            raise ValueError(f"repeated variable in {vars}")
        shifts = [_SHIFT * _VAR_INDEX[v] for v in vars]
        terms = {}
        for exps, c in mapping.items():
            if len(exps) != len(shifts) or not all(0 <= e <= _MASK for e in exps):
                raise ValueError(f"exponents {exps} do not fit the variables {vars}")
            k = sum(int(e) << s for e, s in zip(exps, shifts))
            terms[k] = terms.get(k, 0) + Fraction(c)
        return cls(terms)

    # -- helpers -----------------------------------------------------------

    @property
    def vars(self):
        return tuple(v for v, d in zip(VARS, self.degs) if d)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def exponents(self, k):
        """The exponent of each of vars in the packed key k."""
        return tuple((k >> (_SHIFT * _VAR_INDEX[v])) & _MASK for v in self.vars)

    def degree(self, var=None) -> int:
        """Total degree, or degree in one variable; zero polynomial gives -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(self.exponents(k)) for k in self.terms)
        _check_vars((var,))
        return self.degs[_VAR_INDEX[var]]

    def coeffs(self, var) -> list:
        """Dense coefficients [c_0, ..., c_d] of a polynomial in var alone, as
        Fractions; the zero polynomial gives []."""
        _check_vars((var,))
        if self.vars not in ((), (var,)):
            raise ValueError(f"not univariate in {var}: vars {self.vars}")
        s = _SHIFT * _VAR_INDEX[var]
        out = [Fraction(0)] * (self.degs[_VAR_INDEX[var]] + 1) if self.terms else []
        for k, c in self.terms.items():
            out[k >> s] = Fraction(c)
        return out

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other)
        return None

    def __add__(self, other):
        """Sum in one dict: a copy of the longer operand, the shorter added
        in, zeros dropped in place; each degree is the larger of the
        operands' unless a term cancelled."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t1, t2 = self.terms, other.terms
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        out = dict(t1)
        get = out.get
        for k, c in t2.items():
            out[k] = get(k, 0) + c
        f = MPoly._raw(out, tuple(map(max, self.degs, other.degs)), False)
        return f._normalize(self._frac or other._frac)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw({k: -c for k, c in self.terms.items()}, self.degs, self._frac)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        """Product without renormalising: over Q the product of nonzero
        polynomials has the degrees of its factors added, so only cancelled
        coefficients need dropping."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t1, t2 = self.terms, other.terms
        if not t1 or not t2:
            return MPoly()
        degs = tuple(map(int.__add__, self.degs, other.degs))
        if max(degs) >= _DEG_LIMIT:
            raise OverflowError("product degree exceeds packing limit")
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        out = {}
        get = out.get
        if t1 is t2:
            # squaring: each cross term once, doubled, so about half the
            # coefficient products
            items = list(t1.items())
            for i, (k1, c1) in enumerate(items):
                k = k1 + k1
                out[k] = get(k, 0) + c1 * c1
                c1 += c1
                for k2, c2 in items[i + 1:]:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        else:
            for k2, c2 in t2.items():
                for k1, c1 in t1.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        f = MPoly._raw(out, degs, False)
        frac = self._frac or other._frac
        # a one-term operand only shifts keys, and nothing cancels over Q
        return f._normalize(frac) if frac or len(t2) > 1 else f

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """self^e: a monomial scales its key, a two-term polynomial takes the
        binomial theorem, e + 1 terms in one pass with no product of
        polynomials and nothing to cancel (the keys j*k1 + (e-j)*k2 are
        distinct), and a longer one the product chain of an atom's power
        memo, which spends no more products than square-and-multiply."""
        if not isinstance(e, int) or e < 0:
            raise ValueError("MPoly exponent must be a non-negative int")
        if not e:
            return MPoly.const(1)
        if 0 < len(self.terms) <= 2:
            degs = tuple(d * e for d in self.degs)
            if max(degs) >= _DEG_LIMIT:
                raise OverflowError("power degree exceeds packing limit")
            if len(self.terms) == 1:
                ((k, c),) = self.terms.items()
                return MPoly._raw({k * e: c**e}, degs, self._frac)
            (k1, c1), (k2, c2) = self.terms.items()
            pows2 = [1]  # c2^0 .. c2^e
            for _ in range(e):
                pows2.append(pows2[-1] * c2)
            out, binom, pw1 = {}, 1, 1  # binom = C(e, j), pw1 = c1^j
            for j in range(e + 1):
                out[j * k1 + (e - j) * k2] = binom * pw1 * pows2[e - j]
                binom = binom * (e - j) // (j + 1)
                pw1 *= c1
            f = MPoly._raw(out, degs, False)
            return f._normalize() if self._frac else f
        return _Atom(self) ** e

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.terms == other.terms

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point binding every variable used."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"unbound variables in evaluation: {missing}")
        vals = [(Fraction(point[v]), _SHIFT * _VAR_INDEX[v]) for v in self.vars]
        total = Fraction(0)
        for k, c in self.terms.items():
            for val, s in vals:
                c *= val ** ((k >> s) & _MASK)
            total += c
        return total

    def substitute(self, bindings) -> "RatFun":
        """Substitute rational functions for variables; unbound ones persist.

        The terms are summed as RatFuns, so the result's denominator is the
        formal product of the binding denominators' atoms, each raised to the
        degree of its variable; only equal atoms cancel, and no gcd is taken.
        """
        _check_vars(bindings)
        bound = {v: as_ratfun(f) for v, f in bindings.items()}
        vals = [(bound[v] if v in bound else RatFun.var(v), _SHIFT * _VAR_INDEX[v]) for v in self.vars]
        total = RatFun(0)
        for k, c in self.terms.items():
            term = RatFun(c)
            for x, s in vals:
                term = term * x ** ((k >> s) & _MASK)
            total = total + term
        return total

    # -- text form -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []  # (sign, body) per term, highest total degree first
        for k in sorted(self.terms, key=lambda k: (sum(self.exponents(k)), self.exponents(k)), reverse=True):
            c = self.terms[k]
            body = str(abs(c)) + "".join(f"*{v}^{e}" for v, e in zip(self.vars, self.exponents(k)) if e)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in parts[1:])

    def __repr__(self):
        return f"MPoly({self})"


def _int(c):
    """c with an integral Fraction made an int."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def as_ratfun(f) -> "RatFun":
    if isinstance(f, RatFun):
        return f
    if isinstance(f, (int, Fraction)):
        return RatFun._const(f)
    if isinstance(f, MPoly):
        return _poly_fun(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a rational function")


class _Atom:
    """A factor-list polynomial of two or more terms, its key, computed once,
    and a memo of its powers that dies with the atom; no MPoly is written.

    A two-term atom takes each missing power e by the binomial theorem. A
    longer one builds it from its memo: one product p^k * p^(e-k) of two
    memoised powers, k the largest such exponent, when there is one; else
    one binary step, p^(e-1) * p for odd e and (p^(e/2))^2 for even e, its
    operand built the same way and memoised. Each step costs one product,
    and square-and-multiply takes one per binary step down to p^1, so no
    power costs more products than square-and-multiply from scratch, and
    runs such as 2, 4, 5, 6, 7, 8 cost one product each. MPoly.__pow__
    runs the same chain on a throwaway atom for three or more terms."""

    __slots__ = ("poly", "key", "_pows")

    def __init__(self, poly: MPoly):
        self.poly, self.key, self._pows = poly, frozenset(poly.terms.items()), {1: poly}

    def __pow__(self, e: int) -> MPoly:
        """The atom's polynomial to a power e >= 1, memoised."""
        pows = self._pows
        p = pows.get(e)
        if p is not None:
            return p
        if len(self.poly.terms) == 2:
            p = self.poly**e
        else:
            k = max((k for k in pows if k < e and e - k in pows), default=0)
            if k:
                p = pows[k] * pows[e - k]
            elif e & 1:
                p = self ** (e - 1) * self.poly
            else:
                p = self ** (e >> 1)
                p = p * p
        pows[e] = p
        return p

    def __str__(self):
        return str(self.poly)


def _align(f1, f2):
    """(atom, e1, e2) for every atom of either factor list; an atom missing
    from a list has exponent 0 there. Atoms match by key, a dict lookup."""
    rest = {a.key: (a, e) for a, e in f2}
    out = [(a, e, rest.pop(a.key, (a, 0))[1]) for a, e in f1]
    return out + [(a, 0, e) for a, e in rest.values()]


def _merge(f1, f2):
    """Formal product of two factor lists: the exponents of equal atoms add,
    and atoms left at 0 drop out."""
    if not f1 or not f2:
        # most products have an atom-free side: share the other list as it is
        return f1 or f2
    return tuple((a, e1 + e2) for a, e1, e2 in _align(f1, f2) if e1 + e2)


def _cross(f, g):
    """What a sum and an equality share: the atoms f and g share at their
    smaller exponents (a denominator atom's formal lcm), the smaller exponent
    m of each variable, the c that f.c and g.c are int multiples of, and
    each side's rest, expanded."""
    common, rest1, rest2 = [], [], []
    for a, e1, e2 in _align(f.factors, g.factors):
        e = min(e1, e2)
        if e:
            common.append((a, e))
        if e1 > e:
            rest1.append((a, e1 - e))
        if e2 > e:
            rest2.append((a, e2 - e))
    (n1, d1), (n2, d2) = f.c.as_integer_ratio(), g.c.as_integer_ratio()
    n, d = gcd(n1, n2), lcm(d1, d2)
    m1, m2 = f.mexp, g.mexp
    m = m1 if m1 == m2 else tuple(map(min, m1, m2))
    p1 = _expand(rest1, n1 // n * (d // d1), tuple(map(sub, m1, m)))
    p2 = _expand(rest2, n2 // n * (d // d2), tuple(map(sub, m2, m)))
    return tuple(common), m, n if d == 1 else Fraction(n, d), p1, p2


def _expand(factors, c, m) -> MPoly:
    """c * x^m * a_1^e_1 * ... * a_k^e_k for an int c, (atom, e > 0) pairs
    and m >= 0: memoised atom powers, short ones first, then c * x^m."""
    out = None
    for atom, e in sorted(factors, key=lambda f: len(f[0].poly.terms)):
        out = atom**e if out is None else out * atom**e
    degs = m if out is None else tuple(map(add, out.degs, m))
    if max(degs) >= _DEG_LIMIT:
        raise OverflowError("per-variable degree exceeds packing limit")
    k = sum(map(lshift, m, _SHIFTS))
    if out is None:
        return MPoly._raw({k: c}, degs, False)
    if c == 1 and not k:
        # nothing to scale or shift: the memoised power itself, not a copy
        return out
    f = MPoly._raw({key + k: v * c for key, v in out.terms.items()}, degs, False)
    return f._normalize() if out._frac else f


def _poly_fun(p: MPoly, m=_NO_DEGS, factors=(), c=1) -> "RatFun":
    """c * x^m * p * (the factor list) as a RatFun: a single-term p goes into
    c and mexp, a longer one becomes an atom, merged in case it is a factor."""
    if not p.terms:
        return RatFun._const(0)
    if len(p.terms) > 1:
        return RatFun._make(c, m, _merge(factors, ((_Atom(p), 1),)))
    ((k, v),) = p.terms.items()
    return RatFun._make(_int(c * v), tuple(((k >> s) & _MASK) + e for e, s in zip(m, _SHIFTS)), factors)


class RatFun:
    """A rational function c * x^mexp * prod atom^e, *never* reduced.

    c is a nonzero int or Fraction, an int whenever it is integral; mexp
    holds a signed exponent for each of ``a b c d t u``; ``factors`` holds
    (atom, exponent) pairs, each atom of two or more terms and memoising its
    powers for its own lifetime. The zero function has c = 0 and ``factors``
    None. ``num`` and ``den`` take c's numerator and denominator. A sum
    keeps the shared atoms at their smaller exponents (for a denominator
    atom the formal lcm) and the smaller exponent of each variable; the sum
    of the rests becomes one atom, or goes back into c and mexp when it is a
    single term. Equal functions may differ in representation.
    """

    __slots__ = ("c", "mexp", "factors", "_num", "_den")

    def __init__(self, num, den=None):
        f = _poly_fun(num) if isinstance(num, MPoly) else RatFun._const(num)
        if den is not None:
            den = RatFun(den)
            if den.factors is None:
                raise DivisionByZeroFunction("zero denominator")
            f = f / den
        self.c, self.mexp, self.factors, self._num, self._den = f.c, f.mexp, f.factors, None, None

    @classmethod
    def _make(cls, c, mexp, factors) -> "RatFun":
        f = object.__new__(cls)
        f.c, f.mexp, f.factors, f._num, f._den = c, mexp, factors, None, None
        return f

    @classmethod
    def _const(cls, c) -> "RatFun":
        c = c if c.__class__ is int else _int(Fraction(c))
        return cls._make(c, _NO_DEGS, () if c else None)

    @classmethod
    def var(cls, name: str) -> "RatFun":
        return _poly_fun(MPoly.var(name))

    def _half(self, sign: int, c) -> MPoly:
        """c times the expanded atoms and variables of the given sign."""
        return _expand([(a, sign * e) for a, e in self.factors or () if sign * e > 0], c,
                       tuple(max(sign * e, 0) for e in self.mexp))

    @property
    def num(self) -> MPoly:
        """The expanded numerator, computed once on demand."""
        if self._num is None:
            self._num = MPoly() if self.factors is None else self._half(1, self.c.numerator)
        return self._num

    @property
    def den(self) -> MPoly:
        """The expanded denominator, computed once on demand."""
        if self._den is None:
            self._den = self._half(-1, self.c.denominator)
        return self._den

    def is_zero(self) -> bool:
        return self.factors is None

    def __bool__(self):
        return self.factors is not None

    def __add__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if self.factors is None or other.factors is None:
            return other if self.factors is None else self
        common, m, c, p1, p2 = _cross(self, other)
        return _poly_fun(p1 + p2, m, common, c)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._make(-self.c, self.mexp, self.factors)

    def __sub__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not RatFun:
            try:
                other = as_ratfun(other)
            except TypeError:
                return NotImplemented
        f1, f2 = self.factors, other.factors
        if f1 is None or f2 is None:
            return self if f1 is None else other
        m1, m2 = self.mexp, other.mexp
        return RatFun._make(_int(self.c * other.c), m1 if m2 is _NO_DEGS else tuple(map(add, m1, m2)),
                            _merge(f1, f2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return self * other**-1

    def __rtruediv__(self, other):
        return as_ratfun(other) * self**-1

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise ValueError("RatFun exponent must be int")
        if self.factors is None:
            if e < 0:
                raise DivisionByZeroFunction("negative power of the zero function")
            return self if e else RatFun._const(1)
        # an int to a negative power would be a float
        c = self.c**e if e > 0 else Fraction(self.c) ** e
        return RatFun._make(_int(c), tuple(k * e for k in self.mexp),
                            tuple((a, e * k) for a, k in self.factors if e))

    def __eq__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        f1, f2 = self.factors, other.factors
        if f1 is None or f2 is None:
            return f1 is f2
        # exact: the polynomial ring is an integral domain and no atom is
        # zero, so equal atoms cancel from both sides, and each variable's
        # exponent difference moves to the side where it is positive
        _, _, _, p1, p2 = _cross(self, other)
        return p1 == p2

    def substitute(self, bindings) -> "RatFun":
        n = self.num.substitute(bindings)
        d = self.den.substitute(bindings)
        if d.is_zero():
            raise DivisionByZeroFunction("substitution produced an identically zero denominator")
        return n / d

    def evaluate(self, point) -> Fraction:
        dval = self.den.evaluate(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        return self.num.evaluate(point) / dval

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def rf_eq(f, g) -> bool:
    """Exact equality of rational functions: atoms equal on both sides cancel
    formally, and what is left, one side's numerator atoms times the other
    side's denominator atoms, is expanded and compared. No GCD is taken."""
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
    positive leading coefficient. Coefficients stay ints while every division
    is exact; a Fraction is made only where one is not.
    """
    vs = f.vars
    if len(vs) > 1:
        raise ValueError("poly_exact_sqrt is univariate only")
    var = vs[0] if vs else "t"
    coeffs = [_int(c) for c in f.coeffs(var)]
    if not coeffs:
        return MPoly()
    d = len(coeffs) - 1
    if d % 2:
        return None
    m = d // 2
    lead = _fraction_sqrt(coeffs[d])
    if lead is None or lead == 0:
        return None
    h = [0] * (m + 1)
    h[m] = lead = _int(lead)
    for k in range(m - 1, -1, -1):
        acc = 0
        for i in range(k + 1, m):
            j = m + k - i
            if k < j <= m:
                acc += h[i] * h[j]
        num, den = coeffs[m + k] - acc, 2 * lead
        if num.__class__ is int and den.__class__ is int and not num % den:
            h[k] = num // den
        else:
            h[k] = _int(Fraction(num) / den)
    s = _SHIFT * _VAR_INDEX[var]
    root = MPoly({i << s: c for i, c in enumerate(h) if c})
    if root * root == f:
        return root
    return None
