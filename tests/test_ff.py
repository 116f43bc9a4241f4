"""Finite fields F_(p^m), odd q: arithmetic, legendre, canonical square roots.

Oracles here are brute force: square every element and invert the map. The
full p <= 1000 range runs in the acceptance gate; this file keeps a smaller
slice so the unit suite stays fast.
"""

import gc
import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoint import ff
from hypoint.ff import (
    DETERMINISTIC_PRIMALITY_BOUND,
    DivisionByZero,
    EvenCharacteristic,
    Field,
    FieldSpec,
    NotIrreducible,
    NotPrime,
    PrimalityUnverified,
    field_new,
    is_prime,
    parse_field_spec,
)

F9 = field_new("3^2:1,0,1")
F25 = field_new("5^2:1,1,1")
F27 = field_new("3^3:1,2,0,1")
SMALL_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 127, 199]


def brute_sqrt_map(ctx):
    """element -> canonical root, from squaring everything."""
    roots = {}
    for x in ctx.elements():
        sq = x * x
        if sq not in roots or _key(x) < _key(roots[sq]):
            roots[sq] = x
    return roots


def _key(x):
    return x.val if isinstance(x.val, tuple) else (x.val,)


def test_f11_arithmetic_table():
    K = field_new(11)
    a, b = K.elem(7), K.elem(9)
    assert str(a + b) == "5"
    assert str(a - b) == "9"
    assert str(a * b) == "8"
    assert str(a / b) == "2"
    assert str(a ** 5) == "10"
    assert str(-a) == "4"


def test_f11_legendre_and_sqrt():
    K = field_new(11)
    squares = {1, 3, 4, 5, 9}
    for v in range(1, 11):
        assert K.legendre(K.elem(v)) == (1 if v in squares else -1)
    assert K.legendre(K.zero()) == 0
    assert str(K.nonresidue()) == "2"
    assert str(K.sqrt(K.elem(5))) == "4"
    assert str(K.sqrt(K.elem(3))) == "5"
    assert K.sqrt(K.elem(2)) is None
    assert str(K.sqrt(K.zero())) == "0"


@pytest.mark.parametrize("p", SMALL_ODD_PRIMES)
def test_sqrt_legendre_against_brute_force(p):
    K = field_new(p)
    roots = brute_sqrt_map(K)
    squares = set(roots)
    for x in K.elements():
        chi = K.legendre(x)
        if not x:
            assert chi == 0 and K.sqrt(x) == K.zero()
        elif x in squares:
            assert chi == 1
            assert K.sqrt(x) == roots[x]
        else:
            assert chi == -1
            assert K.sqrt(x) is None


@pytest.mark.parametrize("ctx", [F9, F25, F27], ids=["F9", "F25", "F27"])
def test_extension_fields_against_brute_force(ctx):
    roots = brute_sqrt_map(ctx)
    squares = set(roots)
    count = 0
    for x in ctx.elements():
        count += 1
        chi = ctx.legendre(x)
        if not x:
            assert chi == 0 and ctx.sqrt(x) == ctx.zero()
        elif x in squares:
            assert chi == 1 and ctx.sqrt(x) == roots[x]
        else:
            assert chi == -1 and ctx.sqrt(x) is None
    assert count == ctx.q
    # exactly (q - 1) / 2 nonzero squares
    assert len(squares) - 1 == (ctx.q - 1) // 2


def test_f9_frozen_values():
    assert str(F9.nonresidue()) == "1,1"
    assert str(F9.sqrt(F9.elem(2))) == "0,1"


def test_canonical_root_is_the_smaller_representative():
    K = field_new(13)
    for x in K.elements():
        r = K.sqrt(x)
        if r is not None and r:
            assert _key(r) <= _key(-r)


def test_elements_order_is_canonical():
    K = field_new(5)
    assert [str(x) for x in K.elements()] == ["0", "1", "2", "3", "4"]
    first = [str(x) for x in list(F9.elements())[:4]]
    assert first == ["0,0", "0,1", "0,2", "1,0"]


@pytest.mark.parametrize("spec", ["3^2:1,0,1", "5^2:3,0,1", "3^3:1,2,0,1", "3^4:2,0,0,1,1", "7^3:1,1,0,1"])
def test_elements_are_the_coefficient_tuples_in_lexicographic_order(spec):
    """The order itertools.product gives: constant term first, most significant."""
    K = field_new(spec)
    assert [x.val for x in K.elements()] == list(itertools.product(range(K.p), repeat=K.m))


@pytest.mark.parametrize("spec", ["13", "3^2:1,0,1", "5^2:3,0,1", "3^3:1,2,0,1", "3^4:2,0,0,1,1",
                                  "7^3:1,1,0,1", "3^5:1,2,0,0,0,1"])
def test_index_inverts_element(spec):
    K = field_new(spec)
    assert [K.index(K.element(i).val) for i in range(K.q)] == list(range(K.q))
    for i in (-1, K.q):
        with pytest.raises(IndexError):
            K.element(i)


BIG_EXT = "170141183460469231731687303715884105727^2:1,0,1"  # p = 2^127 - 1, modulus z^2 + 1


def test_canonical_order_on_a_127_bit_extension_field():
    K = field_new(parse_field_spec(BIG_EXT, trust_prime=True))
    p = 2**127 - 1
    last = K.element(K.q - 1)
    assert last.val == (p - 1, p - 1) and K.index(last.val) == K.q - 1
    assert K.element(p).val == (1, 0)
    assert next(K.elements()) == K.zero()


# every extension field the unit suite builds (its reducible moduli excepted)
EXT_FIELDS = ["3^2:1,0,1", "3^3:1,2,0,1", "3^4:2,0,0,1,1", "3^5:1,2,0,0,0,1", "5^2:1,1,1",
              "5^2:3,0,1", "7^2:1,0,1", "7^3:1,1,0,1"]


@pytest.mark.parametrize("spec", EXT_FIELDS)
def test_nonresidue_is_the_first_in_canonical_order(spec):
    """Against a brute-force walk by Euler's criterion, no block skipped."""
    K = field_new(spec)
    minus_one = -K.one()
    expect = next(x for x in K.elements() if x ** ((K.q - 1) // 2) == minus_one)
    assert K.nonresidue() == expect


def test_nonresidue_search_skips_the_square_block():
    """On z^2 + 1 the first p - 1 nonzero elements c*z all have the square
    norm c^2; the search skips them and makes a few exponentiations."""
    K = field_new("10007^2:1,0,1")
    start = time.perf_counter()
    z = K.nonresidue()
    assert time.perf_counter() - start < 0.1
    assert str(z) == "1,2"


@pytest.mark.parametrize("spec", ["13", "5^2:3,0,1", "3^3:1,2,0,1"])
def test_a_dropped_field_leaves_no_cyclic_garbage(spec):
    """The non-residue, Tonelli-Shanks and log-table caches refer to nothing
    that refers back to the field."""
    K = field_new(spec)
    gc.collect()
    gc.disable()
    try:
        K.sqrt(K.element(3))
        K.log_tables()
        del K
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parse_elem_padding_and_limits():
    assert str(F9.parse_elem("2")) == "2,0"
    assert str(F9.parse_elem("2,1")) == "2,1"
    with pytest.raises(ValueError):
        F9.parse_elem("1,2,3")
    K = field_new(7)
    assert str(K.parse_elem("-1")) == "6"
    with pytest.raises(ValueError):
        K.parse_elem("1,2")


def test_error_paths():
    with pytest.raises(NotPrime):
        field_new(15)
    with pytest.raises(EvenCharacteristic):
        field_new(2)
    with pytest.raises(NotIrreducible):
        field_new("5^2:1,0,1")  # x^2 + 1 splits mod 5
    with pytest.raises(DivisionByZero):
        field_new(7).inv(field_new(7).zero())
    with pytest.raises(ValueError):
        parse_field_spec("11:1,2")
    with pytest.raises(ValueError):
        field_new(FieldSpec(11, 1, (1, 1)))


@pytest.mark.parametrize("p,m,count", [(3, 2, 3), (3, 3, 8), (3, 4, 18), (5, 2, 10),
                                       (5, 3, 40), (7, 2, 21), (11, 2, 55)])
def test_modulus_check_accepts_exactly_the_irreducible_monics(p, m, count):
    """Gauss's count (1/m) sum_{d | m} mu(d) p^(m/d) of monic irreducibles;
    at m = 4 a product of two irreducible quadratics such as (z^2 + 1)^2 over
    F_3 has no root, so only the k = 2 round rejects it."""
    accepted = 0
    for low in itertools.product(range(p), repeat=m):
        try:
            field_new(FieldSpec(p, m, low + (1,)))
        except NotIrreducible:
            continue
        accepted += 1
    assert accepted == count


@pytest.mark.parametrize("spec", ["3^2:1,0,1", "7^3:1,1,0,1", "3^5:1,2,0,0,0,1"])
def test_extension_field_tests_its_prime_once(spec, monkeypatch):
    """The modulus check runs over F_p built from the prime already checked."""
    calls = []
    real_is_prime = ff.is_prime

    def counted(n, trusted=False):
        calls.append(n)
        return real_is_prime(n, trusted)

    monkeypatch.setattr(ff, "is_prime", counted)
    K = field_new(spec)
    assert calls == [K.p]


def test_reducible_modulus_message():
    with pytest.raises(NotIrreducible, match=r"^modulus \[1, 0, 1\] is reducible over F_5$"):
        field_new("5^2:1,0,1")
    with pytest.raises(NotIrreducible, match=r"^modulus \[1, 0, 2, 0, 1\] is reducible over F_3$"):
        field_new("3^4:1,0,2,0,1")  # (z^2 + 1)^2


def test_int_equality_is_by_representative_and_hashes_alike():
    F11 = field_new(11)
    assert F11.elem(3) == 3 and F11.elem(3) != 14
    assert F11.elem(10) != -1 and F11.elem(10) == 10
    assert len({F11.elem(3), 3}) == 1
    assert len({F9.elem(2), 2}) == 1
    assert F9.elem([2, 1]) != 2 and F9.elem(2) != 5
    assert len({F9.elem([0, 1]), F9.elem([0, 1]), 1}) == 2


@pytest.mark.parametrize("spec", ["11", "3^2:1,0,1"])
def test_two_field_objects_of_one_field_mix_as_one(spec):
    # the operators' fast path takes the same Field object; another object
    # of the same field falls back to comparing signatures
    K, L = field_new(spec), field_new(spec)
    assert K is not L
    for i, j in itertools.product(range(1, K.q), repeat=2):
        x, y, yk = K.element(i), L.element(j), K.element(j)
        assert (x + y).val == (x + yk).val and (y + x).val == (yk + x).val
        assert (x - y).val == (x - yk).val and (y - x).val == (yk - x).val
        assert (x * y).val == (x * yk).val and (y * x).val == (yk * x).val
        assert (x / y).val == (x / yk).val and (y / x).val == (yk / x).val
        assert (x == y) == (i == j) and (x != y) == (i != j) and (y == yk) and hash(y) == hash(yk)
    for j in range(K.q):
        y, yk = L.element(j), K.element(j)
        assert K.legendre(y) == K.legendre(yk)
        assert K.sqrt(y) == K.sqrt(yk)
        if j:
            assert K.inv(y) == K.inv(yk)


@pytest.mark.parametrize("spec1,spec2", [("11", "13"), ("3^2:1,0,1", "3^2:2,1,1")],
                         ids=["F11-F13", "F9-two-moduli"])
def test_elements_of_different_fields_do_not_mix(spec1, spec2):
    K, L = field_new(spec1), field_new(spec2)
    x, y = K.elem(2), L.elem(2)
    assert x.val == y.val  # equal representatives, so only the field tells them apart
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((x, y), (y, x)):
            with pytest.raises(TypeError, match=r"^elements of different fields$"):
                op(left, right)
    assert x != y and y != x and not x == y
    for method in (K.inv, K.legendre, K.sqrt, K.elem):
        with pytest.raises(TypeError, match=r"^elements of different fields$"):
            method(y)


# the reference primality test: Miller-Rabin to the first nine prime bases,
# proven exhaustive below 3.3e18, which covers DETERMINISTIC_PRIMALITY_BOUND
NINE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _miller_rabin(n: int, bases) -> bool:
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_primality_policy():
    assert is_prime(2**61 - 1)
    big = 2**256 - 189
    with pytest.raises(PrimalityUnverified):
        is_prime(big)
    assert is_prime(big, trusted=True)
    assert DETERMINISTIC_PRIMALITY_BOUND == 3 * 10**18
    with pytest.raises(PrimalityUnverified):
        field_new(FieldSpec(big))
    # trusted but actually composite still gets caught by the witness screen
    composite = (2**128 - 159) * (2**128 - 173)
    with pytest.raises(NotPrime):
        field_new(FieldSpec(composite, trust_prime=True))


# strong pseudoprimes above the deterministic bound: the first passes all
# twelve bases 2..37 (Sorenson-Webster 2017), the second the eleven bases 2..31
TRUSTED_PSEUDOPRIMES = [318665857834031151167461, 3825123056546413051]


@pytest.mark.parametrize("n", TRUSTED_PSEUDOPRIMES)
def test_trusted_strong_pseudoprimes_are_rejected(n):
    assert n > DETERMINISTIC_PRIMALITY_BOUND
    assert _miller_rabin(n, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert not is_prime(n, trusted=True)
    with pytest.raises(NotPrime):
        field_new(FieldSpec(n, trust_prime=True))


@pytest.mark.parametrize("p", [
    115792089237316195423570985008687907853269984665640564039457584007913129639747,
    2**255 - 19, 2**256 - 189, 2**127 - 1,
], ids=["readme-256", "25519", "256-189", "m127"])
def test_trusted_primes_pass_baillie_psw(p):
    assert is_prime(p, trusted=True)


# the least strong pseudoprimes to the first k prime bases, k = 1..7; the
# last passes every base 2..19 (Jaeschke 1993)
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321]
CARMICHAEL_NUMBERS = [561, 1105, 1729, 2465, 2821, 6601, 8911]


def test_baillie_psw_agrees_with_the_deterministic_test():
    # every n from -3 to 10^5: 0, 1, the trial divisors 2..37, and every odd
    # k that the trial division leaves over, where the strong tests decide
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for k in range(-3, 100001):
        assert is_prime(k) == _miller_rabin(k, NINE_BASES), k
        if k >= 39 and all(k % q for q in small):
            assert (ff._strong_base2(k) and ff._strong_lucas(k)) == is_prime(k), k
    for k, n in enumerate(STRONG_PSEUDOPRIMES, 1):
        assert ff._strong_base2(n) and not is_prime(n) and not _miller_rabin(n, NINE_BASES), n
        if k > 1:  # 2047 = 23 * 89 falls to the reference's trial division
            assert _miller_rabin(n, NINE_BASES[:k]), n
    assert _miller_rabin(STRONG_PSEUDOPRIMES[-1], NINE_BASES[:8])
    for n in CARMICHAEL_NUMBERS:
        assert not is_prime(n) and not _miller_rabin(n, NINE_BASES), n
    rng = random.Random(20260814)
    near = [DETERMINISTIC_PRIMALITY_BOUND - 1 - 2 * rng.randrange(10**6) for _ in range(2000)]
    primes = [n for n in near if _miller_rabin(n, NINE_BASES)]
    assert [n for n in near if is_prime(n)] == primes and primes


def test_strong_lucas_test_alone():
    # Selfridge strong Lucas pseudoprimes pass it, base-2 strong
    # pseudoprimes do not, and squares are rejected before the search for D
    for k in (5459, 5777, 10877, 16109, 18971):
        assert ff._strong_lucas(k) and not is_prime(k)
    for k in (8321, 42799, 49141, 65281, 280601):
        assert ff._strong_base2(k) and not ff._strong_lucas(k)
    assert not ff._strong_lucas(1009**2) and not ff._strong_lucas(41 * 43 * 41 * 43)


@pytest.mark.parametrize("p", [2**256 - 189, 2**256 - 435], ids=["3mod4", "1mod4"])
def test_256_bit_sqrt_roundtrip(p):
    K = field_new(FieldSpec(p, trust_prime=True))
    x = K.elem(1234567891011121314151617181920)
    sq = x * x
    r = K.sqrt(sq)
    assert r is not None and r * r == sq
    assert r == x or r == -x


@pytest.mark.parametrize("p", [2**256 - 189, 2**255 - 19, 3 * 2**30 + 1, 59, 65537],
                         ids=["3mod4", "1mod4", "31bit", "59", "65537"])
def test_jacobi_legendre_matches_euler(p):
    K = field_new(FieldSpec(p, trust_prime=True))
    rng = random.Random(p)
    assert K.legendre(K.zero()) == 0
    for _ in range(2000):
        v = rng.randrange(1, p)
        assert K.legendre(K.elem(v)) == (1 if pow(v, (p - 1) // 2, p) == 1 else -1)


# the reference Jacobi loop: the library's earlier one, which strips twos
# (possibly none) from a on every step and keeps the sign as +-1
def _jacobi_reference(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 2:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def test_jacobi_matches_the_reference_on_every_small_pair():
    for n in range(1, 200, 2):
        for a in range(-200, 201):
            assert ff._jacobi(a, n) == _jacobi_reference(a, n), (a, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 499_999).map(lambda k: 2 * k + 1), st.integers(-10**6, 10**6))
def test_jacobi_matches_the_reference(n, a):
    # odd n up to 10^6, composites and squares included, and a of either sign
    assert ff._jacobi(a, n) == _jacobi_reference(a, n)


def _selfridge(count):
    """The first count of Selfridge's D: 5, -7, 9, -11, ..."""
    return [(-1) ** k * (5 + 2 * k) for k in range(count)]


# 2^256 - 189, 2^255 - 19, and the 254-bit composite of the Mersenne
# primes 2^7 - 1, 2^31 - 1, 2^89 - 1 and 2^127 - 1
SELFRIDGE_MODULI = {
    "3mod4": [2**256 - 189],
    "1mod4": [2**255 - 19],
    "composite": [2**7 - 1, 2**31 - 1, 2**89 - 1, 2**127 - 1],
}


@pytest.mark.parametrize("factors", SELFRIDGE_MODULI.values(), ids=SELFRIDGE_MODULI)
def test_jacobi_on_selfridge_d_at_256_bits(factors):
    # (D/n) is the product of Euler's criterion over the prime factors of n;
    # _strong_lucas takes the first D that reads -1
    n = 1
    for p in factors:
        n *= p
    for D in _selfridge(40):
        euler = 1
        for p in factors:
            euler *= 1 if pow(D, (p - 1) // 2, p) == 1 else -1
        assert ff._jacobi(D, n) == euler == _jacobi_reference(D, n), D
    first = next(D for D in _selfridge(40) if ff._jacobi(D, n) == -1)
    assert first == next(D for D in _selfridge(40) if _jacobi_reference(D, n) == -1)
    assert ff._strong_lucas(n) == (len(factors) == 1)


def test_fused_sqrt_on_a_deep_two_adic_prime():
    # p - 1 = 3 * 2^30: Tonelli-Shanks runs up to 30 rounds
    p = 3 * 2**30 + 1
    K = field_new(p)
    assert K._tonelli_data()[1] == 30
    rng = random.Random(1)
    for i in range(3000):
        v = rng.randrange(1, p)
        if i % 2:
            v = v * v % p
        r = K.sqrt(K.elem(v))
        if pow(v, (p - 1) // 2, p) != 1:
            assert r is None
        else:
            assert r is not None and r.val * r.val % p == v and r.val <= p - r.val


# --- property tests -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_ODD_PRIMES),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_legendre_is_multiplicative(p, i, j):
    K = field_new(p)
    x, y = K.elem(i), K.elem(j)
    assert K.legendre(x * y) == K.legendre(x) * K.legendre(y)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_ODD_PRIMES), st.integers(1, 10**6))
def test_sqrt_of_square_roundtrip(p, i):
    K = field_new(p)
    x = K.elem(i)
    r = K.sqrt(x * x)
    assert r == x or r == -x


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([F9, F25, F27]),
    st.integers(0, 3000),
    st.integers(0, 3000),
    st.integers(0, 3000),
)
def test_extension_field_axioms(K, i, j, k):
    xs = list(K.elements())
    x, y, z = xs[i % K.q], xs[j % K.q], xs[k % K.q]
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    if y:
        assert (x / y) * y == x


@pytest.mark.parametrize("K", [field_new(11), F9, F25, F27], ids=str)
def test_subtraction_is_adding_the_negative(K):
    xs = list(K.elements())
    for x in xs:
        for y in xs:
            assert (x - y).val == (x + (-y)).val
        for c in range(-K.p - 1, 2 * K.p + 1):
            assert (x - c).val == (x + K.elem(-c)).val
            assert (c - x).val == (K.elem(c) + (-x)).val
    x = K.one()
    with pytest.raises(TypeError, match="for -:"):
        1.5 - x
    with pytest.raises(TypeError, match="for -:"):
        x - 1.5
