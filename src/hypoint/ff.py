"""Arithmetic in F_q, q = p^m with p an odd prime.

Everything downstream (curve maps, the point encoder, the surveys) runs on the
two classes here. Determinism is a contract, not an accident:

* primality of p is decided by one test for every p, Baillie-PSW (a strong
  test to base 2, then a strong Lucas test), which is *proven* exact below
  2^64 and so below 3*10^18; larger characteristics require an explicit
  trust flag and still pass the same test, which no known composite passes,
* the canonical index of an element is its int value for m=1, else its
  coefficient tuple as base-p digits, constant term most significant;
  Field.element and Field.index convert, and Field.elements() walks it lazily,
* the quadratic non-residue used by Tonelli-Shanks is the first non-residue
  in canonical element order,
* square roots are canonical: of the two roots r and -r the one with the
  smaller representative (resp. lexicographically smaller tuple) is returned.

The quadratic character of a prime field is the Jacobi symbol, computed by
reciprocity on plain ints, with no exponentiation, in one loop that strips
twos only from an even a, reads a mod 8 once per step (the next step's
n mod 8) and keeps the sign as one bit; extension fields use Euler's
criterion. sqrt needs no character first: one exponentiation gives a
candidate root (q = 3 mod 4) or the Tonelli-Shanks start values, and the
same computation reports a non-square, so a test-and-root costs one power.

An operand meets one coercion rule, cheapest case first, in the operators
+ - * / == and in Field.elem (so in inv, legendre and sqrt): an element of
the same Field object, tested inline; then, in Field._val, the rule's one
home, an element of another Field object with the same signature (p, m,
modulus), as two field_new calls of one spec give, and an int, by its value,
which a prime field reduces inside the operation itself. Elements of
different fields raise TypeError("elements of different fields") there, and
compare unequal.

A Field caches what depends on the field alone, per instance and on first
use: the non-residue and Tonelli-Shanks constants that sqrt needs, and the
discrete-log tables of the survey walk (Field.log_tables: antilog, log,
quadratic character, canonical root and Zech tables over the first
generator). The caches hold ints, tuples and None, never a FieldElement,
which refers back to its Field, so they live exactly as long as their Field
object and are freed with it without the cycle collector. No module-level
memo keeps them alive, and a Field that is built but never walked holds no
table.

Extension fields take an explicit monic modulus f, constant term first, whose
irreducibility is verified by Ben-Or's test, gcd(z^(p^k) - z, f) = 1 for
k <= m/2. The powers z^(p^k) are taken in F_p[z]/(f) with the field's own
element arithmetic, and the gcd over F_p is the module's one polynomial gcd.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record


class FieldError(ValueError):
    pass


class NotPrime(FieldError):
    pass


class PrimalityUnverified(FieldError):
    """p is at or above DETERMINISTIC_PRIMALITY_BOUND and no trust flag was given."""


class EvenCharacteristic(FieldError):
    pass


class NotIrreducible(FieldError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


DETERMINISTIC_PRIMALITY_BOUND = 3 * 10**18
# trial divisors run before the strong tests, so _strong_lucas sees only n > 37
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_base2(n: int) -> bool:
    """Strong probable-prime test to base 2 of an odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0, any int a, by quadratic
    reciprocity (Cohen, GTM 138, Algorithm 1.4.10). The sign is bit 1 of t.
    Each step reads a mod 8 once, after stripping the twos of an even a, and
    that residue is the next step's r = n mod 8: an odd count of twos flips
    the sign when n = 3, 5 mod 8 (bit 1 of r ^ r >> 1), and reciprocity flips
    it when a = n = 3 mod 4 (bit 1 of (a mod 8) & r)."""
    a %= n
    t = 0
    r = n & 7
    while a:
        s = a & 7
        if not s & 1:
            z = (a & -a).bit_length() - 1
            a >>= z
            t ^= z << 1 & (r ^ r >> 1)
            s = a & 7
        t ^= s & r
        a, n, r = n % a, a, s
    return 1 - (t & 2) if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 37 free of the primes up
    to 37, with Selfridge's parameters: D is the first of 5, -7, 9, -11, ...
    with Jacobi symbol (D/n) = -1, P = 1 and Q = (1 - D)/4
    (Baillie-Wagstaff, "Lucas pseudoprimes", Math. Comp. 35, 1980). No such
    D exists for a perfect square, so squares are rejected first."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k from k = 1 along the bits of d: k -> 2k, then 2k + 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_(k+1) = (U_k + V_k)/2 and V_(k+1) = (D*U_k + V_k)/2, halved mod n
            U, V = U + V, D * U + V
            U, V = ((U + n * (U & 1)) >> 1) % n, ((V + n * (V & 1)) >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int, trusted: bool = False) -> bool:
    """Baillie-PSW for every n: trial division by the primes up to 37, a
    strong test to base 2, then a strong Lucas test. No composite below 2^64
    passes it (Feitsma's list of the base-2 strong pseudoprimes there, checked
    by Galway), which covers DETERMINISTIC_PRIMALITY_BOUND; at or above the
    bound n is tested only with trusted=True."""
    if n >= DETERMINISTIC_PRIMALITY_BOUND and not trusted:
        raise PrimalityUnverified(
            f"{n} exceeds the deterministic primality range; pass trust_prime=True"
        )
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    return _strong_base2(n) and _strong_lucas(n)


def _prime_factors(m: int) -> list:
    """The distinct primes dividing m >= 1, by trial division."""
    out, r = [], 2
    while r * r <= m:
        if m % r == 0:
            out.append(r)
            while m % r == 0:
                m //= r
        r += 1
    return out + [m] if m > 1 else out


def _poly_gcd(f, g):
    """A gcd (not made monic) of two dense coefficient lists, constant term
    first, f with a nonzero leading coefficient. Coefficients may come from
    any field whose elements support + - * / and truth testing."""
    f, g = list(f), list(g)
    while g:
        if not g[-1]:
            g.pop()
            continue
        # f <- f mod g, one leading coefficient at a time
        while len(f) >= len(g):
            c = f.pop()
            if c:
                c = c / g[-1]
                shift = len(f) + 1 - len(g)
                for j in range(len(g) - 1):
                    f[shift + j] -= c * g[j]
        f, g = g, f
    return f


# ---------------------------------------------------------------------------


class FieldSpec(Record):
    """Defining data of F_(p^m); modulus is required exactly when m > 1."""

    __slots__ = ("p", "m", "modulus", "trust_prime")

    def __init__(self, p: int, m: int = 1, modulus: tuple[int, ...] | None = None,
                 trust_prime: bool = False):
        self._init(p, m, modulus, trust_prime)


def parse_field_spec(text: str, trust_prime: bool = False) -> FieldSpec:
    """Grammar: "p" for prime fields, "p^m:c0,c1,...,cm" for extensions."""
    text = text.strip()
    if ":" in text:
        head, _, tail = text.partition(":")
        if "^" not in head:
            raise ValueError(f"bad field spec {text!r}: modulus given without p^m")
        ps, _, ms = head.partition("^")
        coeffs = tuple(int(c) for c in tail.split(","))
        return FieldSpec(int(ps), int(ms), coeffs, trust_prime)
    if "^" in text:
        raise ValueError(f"bad field spec {text!r}: extension fields need an explicit modulus")
    return FieldSpec(int(text), 1, None, trust_prime)


class FieldElement:
    """One element; ``val`` is an int for m=1, a length-m coefficient tuple otherwise."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    def __add__(self, other):
        ctx = self.ctx
        v = other.val if other.__class__ is FieldElement and other.ctx is ctx else ctx._val(other)
        if v is None:
            return NotImplemented
        if ctx.m == 1:
            return FieldElement(ctx, (self.val + v) % ctx.p)
        p = ctx.p
        return FieldElement(ctx, tuple((x + y) % p for x, y in zip(self.val, v)))

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        if ctx.m == 1:
            return FieldElement(ctx, -self.val % ctx.p)
        p = ctx.p
        return FieldElement(ctx, tuple(-x % p for x in self.val))

    def __sub__(self, other):
        ctx = self.ctx
        v = other.val if other.__class__ is FieldElement and other.ctx is ctx else ctx._val(other)
        if v is None:
            return NotImplemented
        if ctx.m == 1:
            return FieldElement(ctx, (self.val - v) % ctx.p)
        p = ctx.p
        return FieldElement(ctx, tuple((x - y) % p for x, y in zip(self.val, v)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        ctx = self.ctx
        v = other.val if other.__class__ is FieldElement and other.ctx is ctx else ctx._val(other)
        if v is None:
            return NotImplemented
        if ctx.m == 1:
            return FieldElement(ctx, self.val * v % ctx.p)
        return FieldElement(ctx, ctx._ext_mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self * self.ctx.inv(other)
        return NotImplemented

    def __rtruediv__(self, other):
        # reached only when other is not a FieldElement
        return self.ctx.inv(self) * other if isinstance(other, int) else NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative int")
        ctx = self.ctx
        if ctx.m == 1:
            return FieldElement(ctx, pow(self.val, e, ctx.p))
        return FieldElement(ctx, ctx._ext_pow(self.val, e))

    def __bool__(self):
        return bool(self.val) if self.ctx.m == 1 else any(self.val)

    def __eq__(self, other):
        if other.__class__ is FieldElement and other.ctx is self.ctx:
            return self.val == other.val
        # an int equals the element only as its representative 0 <= v < p,
        # so that equal objects hash alike
        if isinstance(other, int) and not 0 <= other < self.ctx.p:
            return False
        try:
            v = self.ctx._val(other)
        except TypeError:
            return False
        return NotImplemented if v is None else self.val == v

    def __hash__(self):
        v = self.val
        if self.ctx.m == 1:
            return hash(v)
        return hash(v[0]) if not any(v[1:]) else hash(v)

    def __str__(self):
        if self.ctx.m == 1:
            return str(self.val)
        return ",".join(str(c) for c in self.val)

    def __repr__(self):
        return f"FieldElement({self} in {self.ctx})"


class Field:
    """Context object for F_(p^m); constructed through field_new."""

    def __init__(self, spec: FieldSpec):
        p, m = spec.p, spec.m
        if not isinstance(p, int) or not isinstance(m, int) or m < 1:
            raise ValueError("p and m must be ints, m >= 1")
        if m == 1:
            if p % 2 == 0:
                raise EvenCharacteristic(f"characteristic {p} is even; odd fields only")
            if not is_prime(p, trusted=spec.trust_prime):
                raise NotPrime(f"{p} is not prime")
            if spec.modulus is not None:
                raise ValueError("prime fields take no modulus")
            modulus = None
        else:
            # the prime subfield checks p (even, then prime) before the modulus
            fp = Field(FieldSpec(p, trust_prime=spec.trust_prime))
            if spec.modulus is None:
                raise ValueError("extension fields need a modulus (constant term first)")
            modulus = tuple(c % p for c in spec.modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self.signature = (p, m, modulus)
        self._nonresidue = None
        self._tonelli = None
        self._logs = None
        if m > 1:
            self._check_irreducible(fp)

    def _check_irreducible(self, fp: Field):
        """Ben-Or's test, gcd(z^(p^k) - z, modulus) = 1 for k <= m/2, in the
        ring F_p[z]/(modulus), whose arithmetic needs no irreducibility. The
        gcd runs over fp, this field's prime subfield."""
        mod = [fp.elem(c) for c in self.modulus]
        z = self.elem([0, 1])
        zq = z
        for _ in range(self.m // 2):
            zq = zq**self.p
            if len(_poly_gcd(mod, [fp.elem(c) for c in (zq - z).val])) != 1:
                raise NotIrreducible(f"modulus {list(self.modulus)} is reducible over F_{self.p}")

    def __repr__(self):
        return f"F_{self.p}" if self.m == 1 else f"F_{self.p}^{self.m}"

    def spec_text(self) -> str:
        """The spec parse_field_spec reads back to this field: "p", or
        "p^m:c0,...,cm" with the modulus constant term first."""
        if self.m == 1:
            return str(self.p)
        return f"{self.p}^{self.m}:" + ",".join(str(c) for c in self.modulus)

    # -- element construction ------------------------------------------------

    def _val(self, v):
        """v's val, by the coercion rule's later steps (the operators and elem
        test the first, this Field object, inline): an element of another
        Field object with this signature, then an int by value, which a prime
        field reduces in the operation itself; None for any other type."""
        if isinstance(v, FieldElement):
            if v.ctx.signature != self.signature:
                raise TypeError("elements of different fields")
            return v.val
        if isinstance(v, int):
            return v if self.m == 1 else (v % self.p,) + (0,) * (self.m - 1)
        return None

    def elem(self, v) -> FieldElement:
        if v.__class__ is FieldElement and v.ctx is self:
            return v
        if isinstance(v, (tuple, list)):
            if self.m == 1:
                raise TypeError("coefficient tuples are for extension fields")
            if len(v) > self.m:
                raise ValueError(f"too many coefficients for m={self.m}")
            coeffs = tuple(int(c) % self.p for c in v) + (0,) * (self.m - len(v))
            return FieldElement(self, coeffs)
        val = self._val(v)
        if val is None:
            raise TypeError(f"cannot build a field element from {type(v).__name__}")
        # an element of another Field object of this field is returned as it is
        return v if isinstance(v, FieldElement) else FieldElement(self, val % self.p if self.m == 1 else val)

    def parse_elem(self, text: str) -> FieldElement:
        parts = [int(c) for c in text.split(",")]
        if self.m == 1:
            if len(parts) != 1:
                raise ValueError("prime field elements are single residues")
            return self.elem(parts[0])
        if len(parts) > self.m:
            raise ValueError(f"at most {self.m} coefficients for m={self.m}")
        # shorter lists are low-degree elements, padded with zeros
        return self.elem(parts)

    def zero(self) -> FieldElement:
        return self.elem(0)

    def one(self) -> FieldElement:
        return self.elem(1)

    def element(self, i: int) -> FieldElement:
        """The element at canonical index i: i itself for m=1, else the
        coefficients of i's base-p digits, constant term first."""
        if not 0 <= i < self.q:
            raise IndexError(f"index {i} outside 0..q-1 of {self}")
        if self.m == 1:
            return FieldElement(self, i)
        digits = [0] * self.m
        for j in range(self.m - 1, -1, -1):
            i, digits[j] = divmod(i, self.p)
        return FieldElement(self, tuple(digits))

    def index(self, val) -> int:
        """The canonical index of an element's val; Field.element inverts it."""
        if self.m == 1:
            return val
        i, p = 0, self.p
        for c in val:
            i = i * p + c
        return i

    def elements(self):
        """All elements in canonical ascending order, each made when it is read."""
        return map(self.element, range(self.q))

    def _ext_mul(self, x, y):
        p, m, mod = self.p, self.m, self.modulus
        conv = [0] * (2 * m - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    conv[i + j] = (conv[i + j] + xi * yj) % p
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i]
            if c:
                for j in range(m):
                    conv[i - m + j] = (conv[i - m + j] - c * mod[j]) % p
        return tuple(conv[:m])

    def _ext_pow(self, x, e: int):
        """x^e on coefficient tuples, by square-and-multiply."""
        result = (1,) + (0,) * (self.m - 1)
        while e:
            if e & 1:
                result = self._ext_mul(result, x)
            e >>= 1
            if e:
                x = self._ext_mul(x, x)
        return result

    # -- discrete logs -----------------------------------------------------------

    def log_tables(self) -> tuple:
        """(alog, log, chi, root, zech) on canonical indices (cached), over the
        first generator gen of F_q^* in canonical order:

        * alog[k] is the index of gen^k, k = 0..q-2, and log inverts it, with
          log[0] = None for zero;
        * chi[i] is the quadratic character of element i, 0 on zero;
        * root[i] is the index of i's canonical square root, None for a
          non-square: of the two roots alog[j] and alog[j + (q-1)/2] of
          alog[2j], the one with the smaller index;
        * zech[k] is log(1 + gen^k), None where 1 + gen^k = 0.

        The tables are tuples of ints and None, built on the first call and
        never written, and they refer to nothing else, so a field that drops
        them frees them without the cycle collector. They take O(q) time and
        memory: callers check q against the survey's enumeration cap first."""
        if self._logs is None:
            q = self.q
            alog = self._antilog()
            log = [None] * q
            for k, i in enumerate(alog):
                log[i] = k
            # the squares are gen^(2j), j < (q-1)/2, with roots gen^j and
            # gen^(j + (q-1)/2); every other nonzero element is a non-square
            half = (q - 1) // 2
            chi = [0] + [-1] * (q - 1)
            root = [0] + [None] * (q - 1)
            for i, r, s in zip(alog[::2], alog[:half], alog[half:]):
                chi[i] = 1
                root[i] = r if r < s else s
            zech = self._zech(alog, log)
            self._logs = tuple(map(tuple, (alog, log, chi, root, zech)))
        return self._logs

    def _antilog(self) -> list:
        """Indices of gen^0, ..., gen^(q-2) for the first generator of F_q^* in
        canonical order. A candidate is tested by its order, gen^((q-1)/r) != 1
        for every prime r | q - 1, so only the generator's cycle is walked: on
        F_p in ints (the index is the value), on F_p^m in tuples indexed at the end."""
        p, qm1 = self.p, self.q - 1
        cofactors = [qm1 // r for r in _prime_factors(qm1)]
        if self.m == 1:
            gen = next(v for v in range(1, p) if all(pow(v, c, p) != 1 for c in cofactors))
            alog, x = [], 1
            for _ in range(qm1):
                alog.append(x)
                x = x * gen % p
            return alog
        one = self.one().val
        gen = next(x.val for x in map(self.element, range(1, self.q))
                   if all(self._ext_pow(x.val, c) != one for c in cofactors))
        mul, cycle, x = self._ext_mul, [], one
        for _ in range(qm1):
            cycle.append(x)
            x = mul(x, gen)
        return list(map(self.index, cycle))

    def _zech(self, alog, log) -> list:
        """log(1 + gen^k) for k = 0..q-2, None where 1 + gen^k = 0. Adding one
        adds the index of one to a canonical index, mod q: a table shift, no
        field operation."""
        step = self.index(self.one().val)
        shifted = log[step:] + log[:step]
        return list(map(shifted.__getitem__, alog))

    # -- core operations -------------------------------------------------------

    def inv(self, x) -> FieldElement:
        x = self.elem(x)
        if not x:
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.m == 1:
            return FieldElement(self, pow(x.val, -1, self.p))
        return x ** (self.q - 2)

    def legendre(self, x) -> int:
        """Quadratic character: 0 on zero, +1 on nonzero squares, -1 otherwise.

        Prime fields use the Jacobi symbol (x / p); extension fields use
        Euler's criterion x^((q-1)/2).
        """
        x = self.elem(x)
        if not x:
            return 0
        if self.m == 1:
            return _jacobi(x.val, self.p)
        return 1 if x ** ((self.q - 1) // 2) == self.one() else -1

    def nonresidue(self) -> FieldElement:
        """First quadratic non-residue in canonical element order (cached).

        Indices 1..p-1 hold c*z^(m-1), c in F_p^*. For even m every such c
        is a square in F_q, as (q-1)/(p-1) = 1 + p + ... + p^(m-1) is even,
        so the block shares z^(m-1)'s character and is skipped in one test.
        The field caches the element's val, not the element, which would
        refer back to the field."""
        if self._nonresidue is None:
            skip = self.m % 2 == 0 and self.legendre(self.element(1)) == 1
            self._nonresidue = next(x for x in map(self.element, range(self.p if skip else 1, self.q))
                                    if self.legendre(x) == -1).val
        return FieldElement(self, self._nonresidue)

    def _tonelli_data(self):
        """(q1, s, z^q1) with q - 1 = q1 * 2^s, q1 odd, z = nonresidue() (cached
        as nonresidue() is, by val)."""
        if self._tonelli is None:
            q1, s = self.q - 1, 0
            while q1 % 2 == 0:
                q1 //= 2
                s += 1
            self._tonelli = (q1, s, (self.nonresidue() ** q1).val)
        q1, s, c = self._tonelli
        return q1, s, FieldElement(self, c)

    def sqrt(self, x):
        """Canonical square root, or None when x is not a square.

        Squareness is decided by the root computation itself, with one
        exponentiation: for q = 3 mod 4, r = x^((q+1)/4) is a root iff r^2 = x;
        otherwise Tonelli-Shanks starts from w = x^((q1-1)/2), r = x*w and
        t = r*w = x^q1, and x is a non-square iff t has order 2^s.
        Of the two roots the one with the smaller canonical representative
        (int value, or lexicographic coefficient tuple) is returned.
        """
        x = self.elem(x)
        if not x:
            return self.zero()
        if self.q % 4 == 3:
            # not folded into Tonelli-Shanks: at s = 1 it would raise x to
            # (q-3)/4, which can have many more one-bits than (q+1)/4 (252
            # against 128 on F_p^3, p = 2^127 - 1)
            r = x ** ((self.q + 1) // 4)
            if r * r != x:
                return None
        else:
            q1, mexp, c = self._tonelli_data()
            w = x ** ((q1 - 1) // 2)
            r = x * w
            t = r * w
            one = self.one()
            while t != one:
                i, t2 = 0, t
                while t2 != one:
                    t2 = t2 * t2
                    i += 1
                if i == mexp:
                    # only on the first pass: t has order 2^s, x^((q-1)/2) = -1
                    return None
                b = c ** (1 << (mexp - i - 1))
                mexp = i
                c = b * b
                t = t * c
                r = r * b
        rn = -r
        return r if r.val <= rn.val else rn


def field_new(spec) -> Field:
    """Build a field from a FieldSpec, a spec string, or a bare prime."""
    if isinstance(spec, Field):
        return spec
    if isinstance(spec, str):
        spec = parse_field_spec(spec)
    if isinstance(spec, int):
        spec = FieldSpec(spec)
    return Field(spec)
