"""Log/exp series against exact-rational oracles, power routes, roots of unity."""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import analysis
from padicdyn.analysis import (
    padic_exp,
    padic_log,
    padic_log_residues,
    pow_padic,
    roots_of_unity,
    teichmuller,
)
from padicdyn.errors import DomainError
from padicdyn.padic import PadicInt, int_valuation, is_prime


def rational_mod(fr: Fraction, p: int, K: int) -> int:
    """Reduce a p-integral rational mod p^K."""
    assert fr.denominator % p != 0, "not p-integral"
    m = p**K
    return fr.numerator * pow(fr.denominator, -1, m) % m


def series_log(residue: int, p: int, K: int) -> int:
    """Independent oracle: alternating log series summed in exact rationals."""
    lam = residue - 1
    total = Fraction(0)
    for k in range(1, 4 * K + 16):
        total += Fraction((-1) ** (k + 1) * lam**k, k)
    return rational_mod(total, p, K)


def series_exp(residue: int, p: int, K: int) -> int:
    """Independent oracle: exponential series summed in exact rationals."""
    total = Fraction(0)
    fact = 1
    for k in range(0, 4 * K * (p - 1) + 16):
        if k:
            fact *= k
        total += Fraction(residue**k, fact)
    return rational_mod(total, p, K)


# -- logarithm -------------------------------------------------------------------


def test_log_one_is_zero():
    assert padic_log(PadicInt.one(3, 4)).residue == 0


def test_log_of_four_matches_rational_series():
    got = padic_log(PadicInt.from_integer(4, 3, 4))
    assert got.residue == series_log(4, 3, 4) == 48


def test_log_matches_series_oracle_exhaustively():
    for p, K in ((3, 4), (5, 3), (7, 3)):
        for t in range(1, p ** (K - 1)):
            r = 1 + p * t
            assert padic_log(PadicInt(p, K, r)).residue == series_log(r, p, K)


def test_log_matches_series_oracle_at_two():
    for t in range(1, 8):
        r = 1 + 4 * t
        assert padic_log(PadicInt(2, 5, r)).residue == series_log(r, 2, 5)


def test_log_preserves_the_leading_valuation():
    # |log x| = |x - 1| on the domain
    for p in (3, 5, 7):
        for t in range(1, p**3):
            x = PadicInt(p, 4, 1 + p * t)
            assert padic_log(x).valuation().capped() == x.dist(PadicInt.one(p, 4)).capped()


def test_log_remainder_is_second_order():
    # valuation(log x - (x-1)) >= 2 * valuation(x-1)
    p, K = 3, 5
    one = PadicInt.one(p, K)
    for t in range(1, p ** (K - 1)):
        x = PadicInt(p, K, 1 + p * t)
        lam = x - one
        rem = padic_log(x) - lam
        assert rem.valuation().capped() >= min(2 * lam.valuation().capped(), K)


def test_log_domain_gates():
    with pytest.raises(DomainError):
        padic_log(PadicInt.from_integer(2, 3, 4))  # dist(2,1) = 0
    with pytest.raises(DomainError):
        padic_log(PadicInt.from_integer(3, 2, 5))  # p=2 needs dist >= 2
    padic_log(PadicInt.from_integer(5, 2, 5))  # dist(5,1) = 2: fine


def test_log_is_a_homomorphism_exhaustive():
    for p, K in ((3, 4), (7, 3)):
        pts = [1 + p * t for t in range(p ** (K - 1))]
        logs = {r: padic_log(PadicInt(p, K, r)) for r in pts}
        m = p**K
        for x in pts:
            for y in pts:
                assert logs[(x * y) % m] == logs[x] + logs[y]


def test_log_isometry_exhaustive_small():
    p, K = 3, 4
    pts = [1 + p * t for t in range(p ** (K - 1))]
    logs = {r: padic_log(PadicInt(p, K, r)) for r in pts}
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            lhs = logs[x].dist(logs[y]).capped()
            rhs = PadicInt(p, K, x).dist(PadicInt(p, K, y)).capped()
            assert lhs == rhs


_LOG_PRIMES = (2, 3, 5, 7, 13, 97, 999999999989)


@st.composite
def _log_points(draw):
    """(p, K, residues) with residues at every distance from 1 on the log
    domain, 1 mod p^K included, some of them not reduced mod p^K."""
    p = draw(st.sampled_from(_LOG_PRIMES))
    floor = 2 if p == 2 else 1
    K = draw(st.integers(floor, 12))
    residues = []
    for d in draw(st.lists(st.integers(floor, K), min_size=1, max_size=6)):
        unit = draw(st.integers(1, p ** (K - d)))
        if unit % p == 0:  # a unit, so the distance is exactly d when d < K
            unit += 1
        residues.append(1 + unit * p**d + draw(st.integers(0, 2)) * p**K)
    return p, K, residues


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_log_points())
@example((2, 2, [1, 5, 9]))
@example((999999999989, 12, [1 + 999999999989**11, 1 + 999999999989**12]))
def test_batched_log_matches_the_series_and_the_scalar(case):
    p, K, residues = case
    got = padic_log_residues(p, K, residues)
    # the reference sums 4K + 16 terms, which leaves a tail of valuation >= K
    assert got == [series_log(r % p**K, p, K) for r in residues]
    assert got == [padic_log(PadicInt(p, K, r)).residue for r in residues]


def test_batched_log_domain_gates():
    with pytest.raises(DomainError):
        padic_log_residues(5, 4, [1, 6, 7])  # 7 is not 1 mod 5
    with pytest.raises(DomainError):
        padic_log_residues(2, 5, [5, 3])  # p = 2 needs 1 mod 4
    with pytest.raises(DomainError):
        padic_log_residues(2, 1, [1])  # K = 1 cannot see 1 mod 4
    with pytest.raises(DomainError):
        padic_log_residues(9, 3, [1, 10])


def test_log_at_a_deep_distance_plans_for_that_distance():
    # a plan for the domain floor would sum about K terms at 3^1000 instead of 2
    analysis._log_plan.cache_clear()
    x = PadicInt(3, 1000, 1 + 3**500)
    assert padic_log(x).residue == 3**500  # the square of 3^500 is 0 mod 3^1000
    assert len(analysis._log_plan(3, 1000, 500)[0]) == 2
    assert analysis._log_plan.cache_info().hits == 1


# -- exponential ------------------------------------------------------------------


def test_exp_zero_is_one():
    assert padic_exp(PadicInt.zero(5, 4)).residue == 1


def test_exp_matches_series_oracle_exhaustively():
    for p, K in ((3, 4), (5, 3)):
        for t in range(p ** (K - 1)):
            r = p * t
            assert padic_exp(PadicInt(p, K, r)).residue == series_exp(r, p, K)


def test_exp_matches_series_oracle_at_two():
    for t in range(8):
        r = 4 * t
        assert padic_exp(PadicInt(2, 5, r)).residue == series_exp(r, 2, 5)


def test_exp_domain_gates():
    padic_exp(PadicInt.from_integer(3, 3, 4))  # valuation 1: fine
    with pytest.raises(DomainError):
        padic_exp(PadicInt.from_integer(1, 3, 4))
    with pytest.raises(DomainError):
        padic_exp(PadicInt.from_integer(2, 2, 5))  # p=2 needs valuation >= 2


def test_exp_log_round_trips_exhaustive():
    for p, K in ((3, 4), (5, 4), (7, 3)):
        one = PadicInt.one(p, K)
        for t in range(1, p ** (K - 1)):
            x = PadicInt(p, K, 1 + p * t)
            assert padic_exp(padic_log(x)) == x
        for t in range(p ** (K - 1)):
            y = PadicInt(p, K, p * t)
            assert padic_log(padic_exp(y)) == y


def test_exp_log_round_trip_spec_case():
    x = PadicInt.from_integer(6, 5, 6)
    assert padic_exp(padic_log(x)).residue == 6
    assert padic_exp(padic_log(x)).residue == series_exp(series_log(6, 5, 6), 5, 6)


# -- p-adic powers -----------------------------------------------------------------


def test_pow_identities():
    x = PadicInt.from_integer(4, 3, 4)
    assert pow_padic(x, PadicInt.zero(3, 4)).residue == 1
    assert pow_padic(x, PadicInt.one(3, 4)) == x


def test_pow_embeds_natural_exponents():
    x = PadicInt.from_integer(4, 3, 4)
    a = PadicInt.from_integer(6, 3, 4)
    assert pow_padic(x, a) == x.pow_nat(6)


def test_pow_routes_agree_on_grid():
    # the cross-check inside pow_padic raises on any disagreement
    for p, K in ((3, 4), (5, 3), (7, 3)):
        for t in range(1, p ** (K - 1), 2):
            x = PadicInt(p, K, 1 + p * t)
            for a_res in range(0, p**K, max(1, p ** (K - 2) - 1)):
                pow_padic(x, PadicInt(p, K, a_res))


def test_pow_domain_gate():
    with pytest.raises(DomainError):
        pow_padic(PadicInt.from_integer(2, 3, 4), PadicInt.one(3, 4))
    with pytest.raises(DomainError):
        pow_padic(PadicInt.from_integer(3, 2, 5), PadicInt.one(2, 5))
    pow_padic(PadicInt.from_integer(5, 2, 5), PadicInt.from_integer(3, 2, 5))


def test_power_distance_tracks_exponent_distance_exhaustive():
    # dist(x^m, x^a) = dist(m, a) + valuation(x - 1), capped at the precision
    p, K = 3, 4
    m = p**K
    for t in range(1, p ** (K - 1)):
        x = PadicInt(p, K, 1 + p * t)
        vx = x.dist(PadicInt.one(p, K)).capped()
        powers = [x.pow_nat(e).residue for e in range(m)]
        for e1 in range(m):
            for e2 in range(e1 + 1, m):
                d = (powers[e2] - powers[e1]) % m
                lhs = K if d == 0 else min(int_valuation(d, p), K)
                vdiff = min(int_valuation(e2 - e1, p), K)
                assert lhs == min(vdiff + vx, K)


# -- roots of unity ------------------------------------------------------------------


def brute_force_roots(d: int, p: int, K: int) -> list[int]:
    m = p**K
    return [r for r in range(m) if pow(r, d, m) == 1]


def test_square_roots_of_unity():
    roots = roots_of_unity(2, 7, 4)
    assert [r.residue for r in roots] == [1, 7**4 - 1]


def test_cube_roots_in_z7_against_brute_force():
    roots = [r.residue for r in roots_of_unity(3, 7, 3)]
    assert roots == brute_force_roots(3, 7, 3) == [1, 18, 324]
    for r in roots:
        assert pow(r, 3, 343) == 1


def test_cube_roots_in_z17_only_trivial():
    # gcd(3, 16) = 1: no primitive cube root of unity exists in Z_17
    assert [r.residue for r in roots_of_unity(3, 17, 3)] == [1]
    assert brute_force_roots(3, 17, 3) == [1]


def test_root_count_is_gcd():
    for p in (5, 7, 11, 13):
        for d in range(1, 13):
            roots = roots_of_unity(d, p, 3)
            assert len(roots) == gcd(d, p - 1)
            for r in roots:
                assert r.pow_nat(d).residue == 1


def _roots_by_scanning_every_unit(d: int, p: int, K: int) -> list[int]:
    """The construction roots_of_unity used before: lift each u with u^gcd(d, p-1) = 1."""
    d0 = gcd(d, p - 1)
    lifts = [teichmuller(PadicInt.from_integer(u, p, K)) for u in range(1, p) if pow(u, d0, p) == 1]
    return sorted(r.residue for r in lifts)


def test_roots_match_a_scan_of_every_unit():
    for p in filter(is_prime, range(3, 201, 2)):
        for d in range(1, 13):
            assert [r.residue for r in roots_of_unity(d, p, 3)] == _roots_by_scanning_every_unit(d, p, 3)


def test_roots_at_a_large_prime_take_bounded_time():
    p, d, K = 1000000000121, 8, 4  # 8 divides p - 1; a scan of every unit would take days
    start = time.perf_counter()
    roots = roots_of_unity(d, p, K)
    assert time.perf_counter() - start < 5
    assert len({r.residue for r in roots}) == 8
    assert all(pow(r.residue, d, p**K) == 1 for r in roots)


def test_roots_rejects_p_two():
    with pytest.raises(DomainError):
        roots_of_unity(3, 2, 4)
    for p in (1, 0, -5):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            roots_of_unity(2, p, 4)


# -- Teichmuller lifting ---------------------------------------------------------------


def test_teichmuller_fixed_and_congruent_exhaustive():
    p, K = 5, 3
    m = p**K
    for u in range(1, m):
        if u % p == 0:
            continue
        t = teichmuller(PadicInt(p, K, u))
        assert pow(t.residue, p, m) == t.residue
        assert t.residue % p == u % p


def test_teichmuller_of_one_plus_p_multiples():
    for t in range(9):
        assert teichmuller(PadicInt(3, 4, 1 + 3 * t)).residue == 1


def test_teichmuller_rejects_non_units_and_p_two():
    with pytest.raises(DomainError):
        teichmuller(PadicInt.from_integer(10, 5, 3))
    with pytest.raises(DomainError):
        teichmuller(PadicInt.from_integer(3, 2, 4))
