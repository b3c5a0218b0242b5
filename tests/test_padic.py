"""Core arithmetic: construction, ring ops, valuations, digits and primality."""

import time

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn.errors import DomainError, ResourceError
from padicdyn.padic import (
    MR_EXACT_BOUND,
    PadicInt,
    Valuation,
    factorize,
    int_valuation,
    is_prime,
)

PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441


def egcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, s, t = egcd(b, a % b)
    return g, t, s - (a // b) * t


def inverse_by_euclid(a: int, m: int) -> int:
    g, s, _ = egcd(a % m, m)
    assert g == 1
    return s % m


# -- construction ---------------------------------------------------------------


def test_zero_has_sentinel_valuation():
    x = PadicInt.from_integer(0, 3, 4)
    assert x.residue == 0
    v = x.valuation()
    assert not v.is_finite
    assert v.capped() == 4
    assert str(v) == ">=4"


def test_integer_embedding_reads_prime_factorization():
    assert PadicInt.from_integer(18, 3, 4).valuation().value == 2
    assert PadicInt.from_integer(48, 2, 6).valuation().value == 4
    assert PadicInt.from_integer(7, 5, 3).residue == 7


def test_negative_integers_wrap():
    assert PadicInt.from_integer(-1, 3, 2).residue == 8
    assert PadicInt.from_integer(-9, 3, 3).valuation().value == 2


def test_composite_or_bad_precision_rejected():
    with pytest.raises(DomainError):
        PadicInt.from_integer(1, 6, 3)
    with pytest.raises(DomainError):
        PadicInt.from_integer(1, 1, 3)
    with pytest.raises(DomainError):
        PadicInt(5, 0, 1)


def test_rational_embedding_against_euclid_oracle():
    x = PadicInt.from_rational(1, 2, 3, 2)
    assert x.residue == inverse_by_euclid(2, 9) == 5
    y = PadicInt.from_rational(3, 7, 5, 4)
    assert y.residue == 3 * inverse_by_euclid(7, 625) % 625
    assert (y * PadicInt.from_integer(7, 5, 4)).residue == 3


def test_rational_embedding_rejects_p_in_denominator():
    with pytest.raises(DomainError):
        PadicInt.from_rational(1, 3, 3, 4)
    with pytest.raises(ValueError):
        PadicInt.from_rational(1, 0, 3, 4)


# -- ring operations --------------------------------------------------------------


def test_small_products_and_powers():
    x = PadicInt.from_integer(4, 3, 3)
    y = PadicInt.from_integer(7, 3, 3)
    assert (x * y).residue == 1
    assert x.pow_nat(3).residue == 10
    assert x.pow_nat(0).residue == 1
    assert (x - y).residue == (4 - 7) % 27
    assert (-y).residue == 20


def test_pow_nat_matches_builtin_pow():
    for p, K in ((3, 5), (7, 3)):
        m = p**K
        for base in range(0, m, 7):
            x = PadicInt(p, K, base)
            for e in (0, 1, 2, 5, 19, 143):
                assert x.pow_nat(e).residue == pow(base, e, m)


def test_mixed_operands_rejected():
    a = PadicInt.from_integer(1, 3, 3)
    with pytest.raises(DomainError):
        a + PadicInt.from_integer(1, 5, 3)
    with pytest.raises(DomainError):
        a * PadicInt.from_integer(1, 3, 4)
    with pytest.raises(DomainError):
        a.dist(PadicInt.from_integer(1, 3, 2))


def test_unit_inversion():
    x = PadicInt.from_integer(7, 3, 4)
    assert (x * x.invert()).residue == 1
    with pytest.raises(DomainError):
        PadicInt.from_integer(6, 3, 4).invert()


# -- metric -----------------------------------------------------------------------


def test_distance_examples():
    k3 = lambda z: PadicInt.from_integer(z, 3, 3)
    assert k3(4).dist(k3(7)).value == 1
    assert k3(1).dist(k3(4)).value == 1
    assert k3(1).dist(k3(10)).value == 2
    assert not k3(5).dist(k3(5)).is_finite


def test_ultrametric_inequality_exhaustive():
    # with equality whenever the two valuations differ
    for p, K in ((2, 5), (3, 3), (5, 2)):
        m = p**K
        for a in range(m):
            va = PadicInt(p, K, a).valuation().capped()
            for b in range(m):
                vb = PadicInt(p, K, b).valuation().capped()
                vs = PadicInt(p, K, a + b).valuation().capped()
                assert vs >= min(va, vb)
                if va != vb:
                    assert vs == min(va, vb)


def test_valuation_multiplicative_exhaustive():
    for p, K in ((2, 5), (3, 3), (5, 2)):
        m = p**K
        for a in range(m):
            va = PadicInt(p, K, a).valuation().capped()
            for b in range(m):
                vb = PadicInt(p, K, b).valuation().capped()
                vprod = (PadicInt(p, K, a) * PadicInt(p, K, b)).valuation().capped()
                assert vprod == min(va + vb, K)


def test_valuation_helpers():
    v = Valuation(2, 5)
    assert v.at_least(2) and not v.at_least(3)
    assert v.equals_exactly(2)
    assert v.norm_exponent == -2
    assert str(v) == "2"


# -- digits -----------------------------------------------------------------------


def test_digit_round_trip_exhaustive():
    for p, K in ((2, 6), (3, 6), (5, 5), (7, 4)):
        for r in range(p**K):
            x = PadicInt(p, K, r)
            ds = x.digits()
            assert len(ds) == K
            assert sum(d * p**i for i, d in enumerate(ds)) == r


def test_digit_text_form():
    x = PadicInt(3, 4, 48)  # 48 = 0 + 1*3 + 2*9 + 1*27
    assert x.digits() == (0, 1, 2, 1)
    assert x.digit_text() == "1 2 1 0 (base 3, 4 digits)"
    assert str(x).startswith("48 = ")


# -- primality --------------------------------------------------------------------


def test_is_prime_small_table():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_sympy_below_two_hundred_thousand():
    assert [n for n in range(200_000) if is_prime(n)] == list(sympy.primerange(200_000))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 25).flatmap(lambda e: st.integers(-10, min(10**e, MR_EXACT_BOUND - 1))))
@example(MR_EXACT_BOUND - 1)
def test_is_prime_matches_sympy_in_the_exact_range(n):
    assert is_prime(n) == sympy.isprime(n)
    q = sympy.nextprime(n)  # so that the Miller-Rabin rounds run, not just trial division
    assert q >= MR_EXACT_BOUND or is_prime(q)


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        PSI_12,  # strong pseudoprime to bases 2..37
        561,
        41041,  # Carmichael numbers
        43**2,
        65537**2,
        1000000007**2,
        (2**61 - 1) ** 2,  # prime squares
    ],
)
def test_is_prime_rejects_pseudoprimes_and_prime_squares(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)


def test_is_prime_above_the_exact_range():
    assert MR_EXACT_BOUND == 3317044064679887385961981
    assert not sympy.isprime(MR_EXACT_BOUND)
    assert not is_prime(2**89 + 1)  # a base is a witness: still a proof
    with pytest.raises(ResourceError, match="not decided"):
        is_prime(2**89 - 1)  # a Mersenne prime past the range


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 24).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e)))
def test_factorize_matches_sympy(n):
    got = factorize(n)
    assert got == sympy.factorint(n)
    assert list(got) == sorted(got)


@pytest.mark.parametrize(
    "primes",
    [
        (999999937, 1000000007),
        (1000000007, 1000000009),
        (99999999977, 100000000003),
        (2, 1000000007, 1000000009),
        (3, 3, 43, 43, 1000003, 1000003),
    ],
)
def test_factorize_splits_products_of_large_primes(primes):
    n = 1
    for q in primes:
        n *= q
    assert factorize(n) == sympy.factorint(n)


def test_factorize_two_ten_digit_primes_is_fast():
    start = time.perf_counter()
    assert factorize(1000000007 * 1000000009) == {1000000007: 1, 1000000009: 1}
    assert time.perf_counter() - start < 1.0


def test_factorize_rejects_non_positive():
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)
