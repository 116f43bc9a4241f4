"""Exact sparse multivariate polynomials over Z and rational functions over Q.

This is the certification layer: every identity the curve constructions rely
on is checked here by exact arithmetic, never numerically. Two deliberate
restrictions shape the design:

* ``RatFun`` values are kept *unreduced*, as c * x^m * prod atom^e: a
  rational c, a signed exponent per variable, and polynomial atoms of two
  or more terms, with positive (numerator) or negative exponents. Products,
  quotients and powers multiply c and add, subtract or scale exponents, so
  equal atoms cancel formally. A sum and ``rf_eq`` keep what the two sides
  share and expand only the rests, each rest's product scaled and shifted
  straight into one dict, the other added in; the smaller exponents and
  both shift keys come from one pass over the exponent vectors. ``rf_eq``
  first compares the two rests' degrees in each variable, read off the
  atoms' keys, and answers False where one differs, before anything is
  expanded: the exit is exact, since a variable's degree adds under
  products over the integral domain Z[a, b, c, d, t, u]. Rests of equal
  degrees are summed, and the difference tested for zero. Factors are a
  dict from atom to exponent, an atom its own key, hashed once; atoms are
  never split, so no multivariate GCD or factorization exists anywhere in
  this module. Every polynomial power is taken in _Atom.__pow__, an atom's
  memoised there; the memo lives and dies with the atom.
* The variable universe is fixed to ``a b c d t u``. Every exponent vector is
  packed into one int with a fixed 16-bit limb per universe variable, limb i
  holding the exponent of ``VARS[i]``, so a monomial product between any two
  polynomials is one integer addition. Degrees are read off the keys, never
  stored: every limb stays below 2^15, so keys add without a carry, and one
  bit test on the OR of the keys an operation makes finds a limb at the limit.
  A shift is checked as it is packed, since a shift of 2^16 would carry into
  the next limb, past that test.

Every ``MPoly`` coefficient is a plain ``int``. The certified identities have
integer coefficients, so rational numbers meet them only as constants, and a
``RatFun`` keeps those in c; no ``MPoly`` operation divides. There is no
symbolic substitution: g(x) is Horner's rule on g's coefficients in x's ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import add, lshift, or_

VARS = ("a", "b", "c", "d", "t", "u")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
_DEG_LIMIT = 1 << 15  # headroom so one multiplication cannot carry across limbs
_NO_EXPS = (0,) * len(VARS)
_SHIFTS = tuple(range(0, _SHIFT * len(VARS), _SHIFT))
_LIMBS = tuple(_MASK << s for s in _SHIFTS)
_HIGH_BITS = ~sum((_DEG_LIMIT - 1) << s for s in _SHIFTS)  # the bits no valid key has


class DivisionByZeroFunction(ZeroDivisionError):
    """Division by the identically-zero polynomial or rational function."""


class PoleAtPoint(ArithmeticError):
    """Rational-number evaluation hit a vanishing denominator."""


def _check_vars(vs):
    for v in vs:
        if v not in _VAR_INDEX:
            raise ValueError(f"unknown variable {v!r}; universe is {VARS}")


def _check_ints(cs):
    for c in cs:
        if c.__class__ is not int:
            raise TypeError(f"MPoly coefficients are ints, not {type(c).__name__}; "
                            "a rational constant belongs in a RatFun")


def _pack(m) -> int:
    """The key of the exponent vector m (entries >= 0); an entry of 2^15 or
    more raises OverflowError, as its carry into the next limb passes _guard."""
    if max(m) >= _DEG_LIMIT:
        raise OverflowError("per-variable degree exceeds packing limit")
    return sum(map(lshift, m, _SHIFTS))


def _unpack(k) -> tuple:
    """The exponent of each universe variable in the packed key k."""
    return tuple([(k >> s) & _MASK for s in _SHIFTS])


def _guard(keys):
    """keys, once their OR has every limb below 2^15 and no bit past the last
    limb (so no key is negative); else OverflowError. Keys that pass add without a carry."""
    if reduce(or_, keys, 0) & _HIGH_BITS:
        raise OverflowError("per-variable degree exceeds packing limit")
    return keys


class MPoly:
    """Sparse polynomial with int coefficients over the fixed variable universe.

    ``terms`` maps packed exponent keys to nonzero coefficients, limb i of a
    key holding the exponent of ``VARS[i]``, each limb below 2^15; ``vars``
    (those used, in universe order) and the degrees are read off the keys.
    The constructor takes such a dict, drops its zeros in place and guards
    the keys left; ``from_terms`` packs exponent tuples. Both, and ``const``,
    raise TypeError on a coefficient that is not an int, before any
    OverflowError. Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is not None and not isinstance(terms, dict):
            raise TypeError("MPoly takes a dict of packed keys; use MPoly.from_terms for exponent tuples")
        self.terms = terms = {} if terms is None else terms
        _check_ints(terms.values())
        _guard(self._normalize().terms)

    @classmethod
    def _raw(cls, terms):
        """Wrap int terms unchecked, their keys guarded; _normalize drops zeros."""
        f = object.__new__(cls)
        f.terms = terms
        return f

    def _normalize(self):
        """Drop zeros in place, from a dict this polynomial owns; return it."""
        terms = self.terms
        if 0 in terms.values():
            for k in [k for k, c in terms.items() if not c]:
                del terms[k]
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "MPoly":
        _check_ints((c,))
        return cls._raw({0: c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls.from_terms({(1,): 1}, (name,))

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
            terms[k] = terms.get(k, 0) + c
        return cls(terms)

    # -- helpers -----------------------------------------------------------

    @property
    def vars(self):
        return tuple(v for v, d in zip(VARS, _unpack(reduce(or_, self.terms, 0))) if d)

    def __bool__(self):
        return bool(self.terms)

    def degree(self, var=None) -> int:
        """Total degree, or degree in one variable; zero polynomial gives -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(map(sum, map(_unpack, self.terms)))
        _check_vars((var,))
        return max((k >> (_SHIFT * _VAR_INDEX[var])) & _MASK for k in self.terms)

    def coeffs(self, var) -> list:
        """Dense int coefficients [c_0, ..., c_d] of a polynomial in var
        alone; the zero polynomial gives []."""
        _check_vars((var,))
        if self.vars not in ((), (var,)):
            raise ValueError(f"not univariate in {var}: vars {self.vars}")
        out = [0] * (self.degree(var) + 1)
        for k, c in self.terms.items():
            out[k >> (_SHIFT * _VAR_INDEX[var])] = c
        return out

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if other.__class__ is int:
            return MPoly.const(other)
        # otherwise None: a RatFun answers through its reflected operator;
        # for a Fraction or a float the operator raises TypeError

    def __add__(self, other, sign=1):
        """self + sign * other, in one _sum pass."""
        other = self._coerce(other)
        return NotImplemented if other is None else _sum(self, 1, 0, other, sign, 0)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """Product: every key it makes is guarded, and only cancelled
        coefficients are dropped."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t1, t2 = self.terms, other.terms
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
        return MPoly._raw(_guard(out))._normalize()

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """self^e, raised by _Atom.__pow__ on a throwaway atom."""
        if not isinstance(e, int) or e < 0:
            raise ValueError("MPoly exponent must be a non-negative int")
        return _Atom(self) ** e if e else MPoly.const(1)

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            # a Fraction, float or other operand: compared as a rational
            # function, so MPoly answers as RatFun does
            return _poly_fun(self) == other
        return self.terms == coerced.terms

    # -- evaluation --------------------------------------------------------

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

    # -- text form -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        # highest total degree first; no two exponent vectors are equal, so no c is compared
        rows = sorted(((sum(e), e, c) for e, c in zip(map(_unpack, self.terms), self.terms.values())), reverse=True)
        text = " ".join(("- " if c < 0 else "+ ") + str(abs(c)) + "".join(f"*{v}^{x}" for v, x in zip(VARS, e) if x)
                        for _, e, c in rows)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"MPoly({self})"


def _int(c):
    """c with an integral Fraction made an int."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


_ONE = MPoly.const(1)


def as_ratfun(f) -> "RatFun":
    if isinstance(f, RatFun):
        return f
    if isinstance(f, (int, Fraction)):
        return RatFun._const(f)
    if isinstance(f, MPoly):
        return _poly_fun(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a rational function")


class _Atom(frozenset):
    """A factor polynomial of two or more terms, as the frozenset of its terms
    (its own dict key, hashed once, compared in C), the polynomial itself,
    and a memo of its powers that dies with the atom; no MPoly is written.

    Polynomial powers live in __pow__ alone; MPoly.__pow__ raises a
    throwaway atom. A two-term atom takes each missing power e by the
    binomial theorem. Any other builds it from its memo: one product
    p^k * p^(e-k) of two memoised powers, k the largest such exponent, when
    there is one; else one binary step, p^(e-1) * p for odd e and
    (p^(e/2))^2 for even e, its operand built the same way and memoised.
    Each step costs one product, and square-and-multiply takes one per
    binary step down to p^1, so no power costs more products than
    square-and-multiply from scratch, and runs such as 2, 4, 5, 6, 7, 8 cost
    one product each. A pickled atom is rebuilt from its polynomial alone."""

    __slots__ = ("poly", "_pows")

    def __new__(cls, poly: MPoly):
        self = super().__new__(cls, poly.terms.items())
        self.poly, self._pows = poly, {1: poly}
        return self

    def __reduce__(self):
        return _Atom, (self.poly,)

    def __pow__(self, e: int) -> MPoly:
        """The atom's polynomial to a power e >= 1, memoised. A binomial's is
        e + 1 terms in one pass with no product of polynomials and nothing to
        cancel (the keys j*k1 + (e-j)*k2 are distinct), after a check of e
        times the largest limb, since _guard cannot see a scaled key's carry;
        any other's takes the product chain, which guards every product."""
        pows = self._pows
        p = pows.get(e)
        if p is not None:
            return p
        terms = self.poly.terms
        if len(terms) == 2:
            if max(map(max, map(_unpack, terms))) * e >= _DEG_LIMIT:
                raise OverflowError("power degree exceeds packing limit")
            (k1, c1), (k2, c2) = terms.items()
            pows2 = [1]  # c2^0 .. c2^e
            for _ in range(e):
                pows2.append(pows2[-1] * c2)
            out, binom, pw1 = {}, 1, 1  # binom = C(e, j), pw1 = c1^j
            for j in range(e + 1):
                out[j * k1 + (e - j) * k2] = binom * pw1 * pows2[e - j]
                binom = binom * (e - j) // (j + 1)
                pw1 *= c1
            p = MPoly._raw(out)
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


def _merge(f1, f2):
    """Formal product of two factor dicts: the exponents of equal atoms add,
    and atoms left at 0 drop out; f1's atoms come first, then those only f2
    has. No factor dict is ever written, so one may be shared."""
    if not f1 or not f2:
        # most products have an atom-free side: share the other dict as it is
        return f1 or f2
    return {a: e for a in {**f1, **f2} if (e := f1.get(a, 0) + f2.get(a, 0))}


def _split(f, g):
    """f and g as c * x^m * common * side, nothing expanded: a side for each,
    (rest, k, scale), its rest the (atom, e > 0) pairs left once the shared
    atoms are taken out, k the packed key of its shift (its exponents less
    m) and scale an int; m the smaller exponent of each variable; common a
    fresh dict of the atoms f and g share, at their smaller exponents (a
    denominator atom's formal lcm), f's atoms first; and the c that f.c and
    g.c are int multiples of. One pass over the limbs builds m and both keys
    and raises OverflowError where a shift of 2^15 or more would reach the
    limit or carry into the next limb, as _pack does. Two int c's take their
    gcd as c."""
    f1, f2 = f.factors, g.factors
    common, rest1, rest2 = {}, [], []
    for a in {**f1, **f2}:
        e1, e2 = f1.get(a, 0), f2.get(a, 0)
        e = min(e1, e2)
        if e:
            common[a] = e
        if e1 > e:
            rest1.append((a, e1 - e))
        if e2 > e:
            rest2.append((a, e2 - e))
    c1, c2 = f.c, g.c
    if c1.__class__ is int and c2.__class__ is int:
        # all 566 calls a certify pass: one gcd, no ratios
        c = gcd(c1, c2)
        s1, s2 = c1 // c, c2 // c
    else:
        (n1, d1), (n2, d2) = c1.as_integer_ratio(), c2.as_integer_ratio()
        n, d = gcd(n1, n2), lcm(d1, d2)
        s1, s2, c = n1 // n * (d // d1), n2 // n * (d // d2), Fraction(n, d)
    m, k1, k2, top = [], 0, 0, 0
    for s, e1, e2 in zip(_SHIFTS, f.mexp, g.mexp):
        if e1 == e2:
            m.append(e1)
        elif e1 < e2:
            m.append(e1)
            e2 -= e1
            k2 += e2 << s
            top |= e2
        else:
            m.append(e2)
            e1 -= e2
            k1 += e1 << s
            top |= e1
    # top is the OR of the differences: 2^15 or more in one limb would reach
    # the limit, 2^16 or more would carry into the next limb
    if top >= _DEG_LIMIT:
        raise OverflowError("per-variable degree exceeds packing limit")
    return (rest1, k1, s1), (rest2, k2, s2), tuple(m), common, c


def _cross(side1, side2, sign) -> MPoly:
    """side1 + sign * side2 for two sides of _split: each rest a product of
    memoised atom powers, scaled, shifted and added in one _sum pass."""
    (rest1, k1, c1), (rest2, k2, c2) = side1, side2
    return _sum(_expand(rest1), c1, k1, _expand(rest2), sign * c2, k2)


def _degrees(side) -> list:
    """The degree of a side of _split, x^k * prod atom^e, in each variable,
    each kept in its limb: k's limb plus e times the atom's largest limb,
    one pass in C over the atom's keys per variable. Degrees add under
    products, as Z[a, b, c, d, t, u] is an integral domain, and the nonzero
    scale changes none, so sides whose degrees differ are unequal. The
    leading and trailing keys (max and min) would not do: they order by the
    last variable first, u, then t, and the sides of the erratum rows of
    curves.identity_rows differ in a alone."""
    rest, k, _ = side
    degs = list(map(k.__and__, _LIMBS))
    for a, e in rest:
        degs = list(map(add, degs, [e * max(map(limb.__and__, a.poly.terms)) for limb in _LIMBS]))
    return degs


def _expand(factors) -> MPoly:
    """a_1^e_1 * ... * a_k^e_k for (atom, e > 0) pairs in factor-dict order,
    the constant 1 for none: the memoised atom powers multiplied in that
    order, and a lone power itself, not a copy; _sum scales and shifts it."""
    out = _ONE
    for atom, e in factors:
        out = atom**e if out is _ONE else out * atom**e
    return out


def _sum(p1, c1, k1, p2, c2, k2) -> MPoly:
    """c1 * x^k1 * p1 + c2 * x^k2 * p2 for int c1, c2 and shifts packed as
    keys k1, k2, in one pass: the longer operand scaled and shifted into a
    fresh dict (a plain copy when there is nothing to scale or shift), the
    shorter added in, the keys guarded and zeros dropped once."""
    if len(p1.terms) < len(p2.terms):
        p1, c1, k1, p2, c2, k2 = p2, c2, k2, p1, c1, k1
    if k1 == k2 and c1 == -c2 and p1.terms == p2.terms:
        # operands that cancel outright, as a true equality's do: one dict comparison in C
        return MPoly()
    out = dict(p1.terms) if c1 == 1 and not k1 else {k + k1: v * c1 for k, v in p1.terms.items()}
    get = out.get
    for k, v in p2.terms.items():
        k += k2
        out[k] = get(k, 0) + v * c2
    return MPoly._raw(_guard(out))._normalize()


def _poly_fun(p: MPoly, m=_NO_EXPS, factors={}, c=1) -> "RatFun":
    """c * x^m * p * (the factor dict, shared as every one may be) as a RatFun:
    a single-term p goes into c and mexp, a longer one becomes an atom,
    merged in case it is a factor."""
    if not p.terms:
        return RatFun._const(0)
    if len(p.terms) > 1:
        return RatFun._make(c, m, _merge(factors, {_Atom(p): 1}))
    ((k, v),) = p.terms.items()
    return RatFun._make(_int(c * v), tuple(map(add, _unpack(k), m)), factors)


class RatFun:
    """A rational function c * x^mexp * prod atom^e, *never* reduced.

    c is a nonzero int or Fraction, an int whenever it is integral, and
    holds the function's whole rational part; mexp holds a signed exponent
    for each of ``a b c d t u``; ``factors`` maps atoms, int polynomials of
    two or more terms memoising their powers, to nonzero exponents, and is
    shared, so never written. The zero function has c = 0 and ``factors``
    None. ``num`` and ``den`` take c's numerator and denominator. A sum
    keeps the shared atoms at their smaller exponents (for a denominator
    atom the formal lcm) and the smaller exponent of each variable; the sum
    of the rests becomes one atom, or goes back into c and mexp when it is a
    single term. Equal functions may differ in representation.
    """

    __slots__ = ("c", "mexp", "factors")

    def __init__(self, num, den=None):
        # a zero den raises DivisionByZeroFunction through its power -1
        f = as_ratfun(num) if den is None else as_ratfun(num) / as_ratfun(den)
        self.c, self.mexp, self.factors = f.c, f.mexp, f.factors

    @classmethod
    def _make(cls, c, mexp, factors) -> "RatFun":
        f = object.__new__(cls)
        f.c, f.mexp, f.factors = c, mexp, factors
        return f

    @classmethod
    def _const(cls, c) -> "RatFun":
        c = c if c.__class__ is int else _int(Fraction(c))
        return cls._make(c, _NO_EXPS, {} if c else None)

    @classmethod
    def var(cls, name: str) -> "RatFun":
        _check_vars((name,))
        return _VAR_FUNS[name]

    def _half(self, sign: int, c) -> MPoly:
        """c times the expanded atoms and variables of the given sign."""
        return _sum(_expand([(a, sign * e) for a, e in (self.factors or {}).items() if sign * e > 0]), c,
                    _pack([max(sign * e, 0) for e in self.mexp]), MPoly(), 0, 0)

    @property
    def num(self) -> MPoly:
        """The expanded numerator, computed on every read."""
        return MPoly() if self.factors is None else self._half(1, self.c.numerator)

    @property
    def den(self) -> MPoly:
        """The expanded denominator, computed on every read."""
        return self._half(-1, self.c.denominator)

    def __bool__(self):
        return self.factors is not None

    def __add__(self, other, sign=1):
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        if self.factors is None or other.factors is None:
            return other * sign if self.factors is None else self
        side1, side2, m, common, c = _split(self, other)
        return _poly_fun(_cross(side1, side2, sign), m, common, c)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._make(-self.c, self.mexp, self.factors)

    def __sub__(self, other):
        return self.__add__(other, -1)

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
        return RatFun._make(_int(self.c * other.c), tuple(map(add, self.mexp, other.mexp)), _merge(f1, f2))

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
        """self^e for an int e: c to the power, and every exponent of mexp
        and the atoms scaled by e. e = 1 gives self, and a unit c is its own
        reciprocal; any other c to a negative power goes through Fraction, so
        c stays exact and an int whenever it is integral. A negative power of
        the zero function raises DivisionByZeroFunction."""
        if not isinstance(e, int):
            raise ValueError("RatFun exponent must be int")
        if self.factors is None:
            if e < 0:
                raise DivisionByZeroFunction("negative power of the zero function")
            return self if e else RatFun._const(1)
        if e == 1:
            # 57 of 565 powers a certify pass
            return self
        c = self.c
        if e > 0:
            c **= e
        elif c == 1 or c == -1:
            # a unit is its own reciprocal: 86 of the 93 negative powers a
            # certify pass, and 15 of its 22 zeroth ones
            c **= -e
        else:
            # an int to a negative power would be a float
            c = _int(Fraction(c) ** e)
        return RatFun._make(c, tuple([k * e for k in self.mexp]), {a: e * k for a, k in self.factors.items() if e})

    def __eq__(self, other):
        # exact: the polynomial ring is an integral domain and no atom is
        # zero, so equal atoms cancel from both sides and each variable's
        # exponent difference moves to the side where it is positive; sides
        # left with different degrees are unequal, and otherwise their
        # difference is tested for zero
        try:
            other = as_ratfun(other)
        except TypeError:
            return NotImplemented
        f1, f2 = self.factors, other.factors
        if f1 is None or f2 is None:
            return f1 is f2
        side1, side2 = _split(self, other)[:2]
        return _degrees(side1) == _degrees(side2) and not _cross(side1, side2, -1)

    def evaluate(self, point) -> Fraction:
        dval = self.den.evaluate(point)
        if dval == 0:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        return self.num.evaluate(point) / dval

    def __str__(self):
        den = self.den
        if den == 1:
            return str(self.num)
        return f"({self.num})/({den})"

    def __repr__(self):
        return f"RatFun({self})"


# immutable, so built once, at import, and shared by every RatFun.var call
_VAR_FUNS = {v: _poly_fun(MPoly.var(v)) for v in VARS}


def rf_eq(f, g) -> bool:
    """Exact equality of rational functions: atoms equal on both sides cancel
    formally, and what is left, one side's numerator atoms times the other
    side's denominator atoms, is compared first by its degree in each
    variable, which differs only between unequal functions, and then
    expanded and subtracted in the one pass a sum takes; the functions are
    equal when nothing remains. No GCD is taken."""
    return as_ratfun(f) == as_ratfun(g)


def poly_exact_sqrt(f: MPoly):
    """Exact square root of a univariate polynomial, or None.

    Coefficient matching from the top: if f = h^2 with deg h = m, the
    coefficients of h are determined by h_m = sqrt(f_2m) and one division per
    lower coefficient. By Gauss's lemma a square in Z[t] has its root in
    Z[t], so a leading coefficient that is not a square, or a division that
    is not exact, means f is no square. The candidate is verified by
    squaring, so a false negative is impossible and no tolerance is
    involved. The returned root has positive leading coefficient.
    """
    vs = f.vars
    if len(vs) > 1:
        raise ValueError("poly_exact_sqrt is univariate only")
    var = vs[0] if vs else "t"
    coeffs = f.coeffs(var)
    if not coeffs:
        return MPoly()
    d = len(coeffs) - 1
    if d % 2:
        return None
    m = d // 2
    lead = isqrt(max(coeffs[d], 0))
    if lead * lead != coeffs[d]:
        return None
    h = [0] * (m + 1)
    h[m] = lead
    for k in range(m - 1, -1, -1):
        h[k], r = divmod(coeffs[m + k] - sum(h[i] * h[m + k - i] for i in range(k + 1, m)), 2 * lead)
        if r:
            return None
    root = MPoly.from_terms({(i,): c for i, c in enumerate(h) if c}, (var,))
    return root if root * root == f else None
