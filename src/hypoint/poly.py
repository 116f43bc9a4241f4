"""Exact sparse multivariate polynomials and rational functions over Q.

This is the certification layer: every identity the curve constructions rely
on is checked here by exact arithmetic, never numerically. Two deliberate
restrictions shape the design:

* ``RatFun`` values are kept *unreduced*, as a signed formal product of
  polynomial atoms: numerator atoms carry positive exponents, denominator
  atoms negative ones. Products, quotients and powers only add, subtract or
  scale exponents, so equal atoms cancel formally. Sums keep the atoms both
  sides share and expand only the rest; equality (``rf_eq``) cancels the
  atoms the sides share and expands only those whose exponents differ.
  Atoms are matched by polynomial equality and never split, so no
  multivariate GCD or factorization exists anywhere in this module.
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


def _moved(terms, moves):
    """terms with limb i of each key moved to limb j for each (i, j) in moves;
    limbs that no move names are dropped."""
    out = {}
    for k, c in terms.items():
        nk = 0
        for i, j in moves:
            nk |= ((k >> (_SHIFT * i)) & _MASK) << (_SHIFT * j)
        out[nk] = c
    return out


class MPoly:
    """Sparse polynomial in a subset of the fixed variable universe.

    ``vars`` is the tuple of variables actually used, in canonical order;
    ``terms`` maps packed exponent keys to nonzero coefficients; ``degs``
    holds the degree in each of ``vars``. The constructor normalizes the
    ``terms`` dict it is given in place. Instances are treated as immutable;
    no operation modifies its operands.
    """

    __slots__ = ("vars", "terms", "degs", "_frac")

    def __init__(self, vars=(), terms=None):
        _check_vars(vars)
        self.vars = tuple(vars)
        self.terms = {} if terms is None else terms
        self.degs = None
        self._normalize()

    @classmethod
    def _raw(cls, vars, terms, degs, frac):
        """Wrap already normal data: vars canonical and each one used, every
        coefficient nonzero and integral ones plain ints, degs[i] the degree
        in vars[i], frac whether any coefficient is a Fraction."""
        f = object.__new__(cls)
        f.vars, f.terms, f.degs, f._frac = vars, terms, degs, frac
        return f

    def _normalize(self, frac=True):
        """Normalize in place, on a dict this polynomial owns, and return it:
        collapse integral Fractions only when frac says one may be present
        (an exact class test, cheaper than isinstance through the numbers
        ABCs), drop zeros, and read vars and degs off the keys, whose limbs
        are nonzero exactly for the used variables, only when degs is unset
        or a term dropped."""
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
            vs = self.vars
            if len(set(vs)) < len(vs):
                raise ValueError(f"repeated variable in {vs}")
            # equality compares vars tuples, so they must come in universe order
            keep = sorted((i for i in range(len(vs)) if (used >> (_SHIFT * i)) & _MASK),
                          key=lambda i: _VAR_INDEX[vs[i]])
            self.degs = tuple(max((k >> (_SHIFT * i)) & _MASK for k in terms) for i in keep)
            if keep != list(range(len(vs))):
                self.terms = _moved(terms, [(i, j) for j, i in enumerate(keep)])
                self.vars = tuple(vs[i] for i in keep)
            if max(self.degs, default=0) >= _DEG_LIMIT:
                raise OverflowError("per-variable degree exceeds packing limit")
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "MPoly":
        if c.__class__ is not int:
            c = Fraction(c)
            c = c.numerator if c.denominator == 1 else c
        return cls._raw((), {0: c} if c else {}, (), c.__class__ is Fraction)

    @classmethod
    def var(cls, name: str) -> "MPoly":
        _check_vars((name,))
        return cls._raw((name,), {1: 1}, (1,), False)

    @classmethod
    def from_terms(cls, mapping, vars) -> "MPoly":
        """Build from {exponent tuple: coefficient} over the given variables."""
        terms = {}
        for exps, c in mapping.items():
            k = sum(int(e) << (_SHIFT * i) for i, e in enumerate(exps))
            terms[k] = terms.get(k, 0) + Fraction(c)
        return cls(vars, terms)

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
        return _moved(self.terms, [(j, union.index(v)) for j, v in enumerate(self.vars)])

    def _degs(self, other, op):
        """op(own degree, other's degree) for each variable of either."""
        deg = dict(zip(self.vars, self.degs))
        for v, d in zip(other.vars, other.degs):
            deg[v] = op(deg.get(v, 0), d)
        return deg

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
        """Sum in one dict: a copy of the longer operand, the shorter added
        in, zeros dropped in place; each degree is the larger of the
        operands' unless a term cancelled."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vs, t1, t2 = self._unify(other)
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        out = dict(t1)
        get = out.get
        for k, c in t2.items():
            out[k] = get(k, 0) + c
        deg = self._degs(other, max)
        f = MPoly._raw(vs, out, tuple(map(deg.__getitem__, vs)), False)
        return f._normalize(self._frac or other._frac)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw(self.vars, {k: -c for k, c in self.terms.items()}, self.degs, self._frac)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        """Product without renormalising: over Q the product of nonzero
        polynomials uses every variable of either factor, with the degrees
        added, so only cancelled coefficients need dropping."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return MPoly()
        deg = self._degs(other, int.__add__)
        if max(deg.values(), default=0) >= _DEG_LIMIT:
            raise OverflowError("product degree exceeds packing limit")
        vs, t1, t2 = self._unify(other)
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        out = {}
        get = out.get
        if len(t2) == 1:
            # a monomial only shifts keys, and nothing cancels over Q
            ((k2, c2),) = t2.items()
            out = {k1 + k2: c1 * c2 for k1, c1 in t1.items()}
        elif t1 is t2:
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
            for k2, c2 in t2.items():
                for k1, c1 in t1.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        f = MPoly._raw(vs, out, tuple(map(deg.__getitem__, vs)), False)
        frac = self._frac or other._frac
        return f._normalize(frac) if frac or len(t2) > 1 else f

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("MPoly exponent must be a non-negative int")
        if not e:
            return MPoly.const(1)
        if len(self.terms) == 1:
            ((k, c),) = self.terms.items()
            degs = tuple(d * e for d in self.degs)
            if max(degs, default=0) >= _DEG_LIMIT:
                raise OverflowError("power degree exceeds packing limit")
            return MPoly._raw(self.vars, {k * e: c**e}, degs, self._frac)
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.vars == other.vars and self.terms == other.terms

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point binding every variable used."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"unbound variables in evaluation: {missing}")
        vals = [Fraction(point[v]) for v in self.vars]
        total = Fraction(0)
        for k, c in self.terms.items():
            for i, val in enumerate(vals):
                c *= val ** ((k >> (_SHIFT * i)) & _MASK)
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
        vals = [bound[v] if v in bound else RatFun.var(v) for v in self.vars]
        total = RatFun(0)
        for k, c in self.terms.items():
            term = RatFun(c)
            for i, x in enumerate(vals):
                term = term * x ** ((k >> (_SHIFT * i)) & _MASK)
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


_ONE = MPoly.const(1)


def as_ratfun(f) -> "RatFun":
    if isinstance(f, RatFun):
        return f
    if isinstance(f, (MPoly, int, Fraction)):
        return RatFun(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a rational function")


def _align(f1, f2):
    """(atom, e1, e2) for every atom of either factor list; an atom missing
    from a list has exponent 0 there. Atoms match by polynomial equality."""
    out = [(atom, e, 0) for atom, e in f1]
    for atom, e in f2:
        for i, (a, e1, _) in enumerate(out):
            if a is atom or a.vars == atom.vars and a.terms == atom.terms:
                out[i] = (a, e1, e)
                break
        else:
            out.append((atom, 0, e))
    return out


def _merge(f1, f2):
    """Formal product of two factor lists: the exponents of equal atoms add,
    and atoms left at 0 drop out."""
    return tuple((a, e1 + e2) for a, e1, e2 in _align(f1, f2) if e1 + e2)


def _split(f1, f2):
    """The atoms two factor lists share, each at the smaller of its two
    exponents (for a denominator atom, the formal lcm), and what is left of
    each list: (atom, e > 0) pairs, polynomials once expanded."""
    common, rest1, rest2 = [], [], []
    for a, e1, e2 in _align(f1, f2):
        e = min(e1, e2)
        if e:
            common.append((a, e))
        if e1 > e:
            rest1.append((a, e1 - e))
        if e2 > e:
            rest2.append((a, e2 - e))
    return common, rest1, rest2


def _expand(factors) -> MPoly:
    """The polynomial a_1^e_1 * ... * a_k^e_k of (atom, e > 0) pairs, the
    short atoms first, so monomials meet the long ones only as key shifts."""
    out = None
    for atom, e in sorted(factors, key=lambda f: len(f[0].terms)):
        if e > 1:
            atom = atom**e
        out = atom if out is None else out * atom
    return _ONE if out is None else out


def _atom(p: MPoly, e=1):
    """The factor list of p^e; the polynomial 1 has none."""
    return () if p.terms == _ONE.terms else ((p, e),)


class RatFun:
    """A rational function as a signed formal product of MPoly atoms,
    *never* reduced.

    ``factors`` is a tuple of (atom, exponent) pairs, numerator atoms with
    positive and denominator atoms with negative exponents, every atom a
    nonzero polynomial; the zero function has ``factors`` None. ``num`` and
    ``den`` expand the positive and the negative atoms on first use.
    Products, quotients and powers add, subtract or scale exponents, so equal
    atoms cancel formally, and negation multiplies by the atom -1. A sum
    keeps the atoms both sides share (for a denominator atom the formal lcm),
    expands only what is left on each side, and adds the two into one new
    atom. Atoms are matched by polynomial equality and never split, so no
    GCD is needed; two equal functions may still have different
    representations.
    """

    __slots__ = ("factors", "_num", "_den")

    def __init__(self, num, den=None):
        num, den = (f if isinstance(f, MPoly) else MPoly.const(f)
                    for f in (num, _ONE if den is None else den))
        if not den:
            raise DivisionByZeroFunction("zero denominator")
        self.factors = _merge(_atom(num), _atom(den, -1)) if num else None
        self._num = self._den = None

    @classmethod
    def _make(cls, factors) -> "RatFun":
        f = object.__new__(cls)
        f.factors, f._num, f._den = factors, None, None
        return f

    @classmethod
    def var(cls, name: str) -> "RatFun":
        return cls._make(((MPoly.var(name), 1),))

    @property
    def num(self) -> MPoly:
        """The expanded numerator, computed once on demand."""
        if self._num is None:
            fs = self.factors
            self._num = MPoly() if fs is None else _expand([(a, e) for a, e in fs if e > 0])
        return self._num

    @property
    def den(self) -> MPoly:
        """The expanded denominator, computed once on demand."""
        if self._den is None:
            self._den = _expand([(a, -e) for a, e in self.factors or () if e < 0])
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
        common, rest1, rest2 = _split(self.factors, other.factors)
        s = _expand(rest1) + _expand(rest2)
        # the sum may equal an atom kept in common, so it merges by equality
        return RatFun._make(_merge(common, _atom(s)) if s else None)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if self.factors is None or other.factors is None:
            return self if self.factors is None else other
        return RatFun._make(_merge(self.factors, other.factors))

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
            return self if e else RatFun(1)
        return RatFun._make(tuple((a, e * k) for a, k in self.factors if e))

    def __eq__(self, other):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if self.factors is None or other.factors is None:
            return self.factors is other.factors
        # exact: the polynomial ring is an integral domain and no atom is
        # zero, so equal atoms cancel from both sides
        _, rest1, rest2 = _split(self.factors, other.factors)
        return _expand(rest1) == _expand(rest2)

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
        if self.den == _ONE:
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
