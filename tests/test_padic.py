"""Core arithmetic: construction, ring ops, valuations, digits and primality."""

import pytest

from padicdyn.errors import DomainError
from padicdyn.padic import PadicInt, Valuation, int_valuation, is_prime


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
