"""Orders, generators, generated sets, and 2-adic noncyclicity."""

import time
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory import n_order

from padicdyn import unitgroups
from padicdyn.dynamics import MonomialSystem
from padicdyn.errors import DomainError, ResourceError
from padicdyn.kernels import INT64_SAFE_MODULUS
from padicdyn.oracle import certify_generator_consistency
from padicdyn.padic import euler_phi_prime_power, is_prime
from padicdyn.unitgroups import (
    density_check,
    generated_set,
    is_generator_mod_p2,
    multiplicative_order,
    noncyclic_2adic_check,
    unit_group_report,
)


def walked_order(n: int, modulus: int) -> int:
    x = n % modulus
    order = 1
    while x != 1:
        x = (x * n) % modulus
        order += 1
    return order


def test_order_examples():
    assert multiplicative_order(2, 3, 2) == 6
    assert multiplicative_order(4, 3, 2) == 3
    assert multiplicative_order(1, 7, 3) == 1
    assert multiplicative_order(3, 17, 2) == 272


def test_order_matches_walked_cycle_exhaustive():
    for p, l in ((3, 3), (5, 2), (7, 2)):
        m = p**l
        for n in range(1, m):
            if n % p == 0:
                continue
            assert multiplicative_order(n, p, l) == walked_order(n, m)


def test_order_divides_group_order():
    for p in (3, 5, 7):
        for l in (1, 2, 3):
            group = euler_phi_prime_power(p, l)
            for n in range(1, p**l):
                if n % p == 0:
                    continue
                assert group % multiplicative_order(n, p, l) == 0


# p - 1 = 2 * 1000000007 * 1000000009, and 10**18 + 2 = 2 * 3 * 17 * 131 * 1427 * 52445056723
BIG_PRIMES = (2000000032000000127, 10**18 + 3)


@pytest.mark.parametrize("p", BIG_PRIMES)
@pytest.mark.parametrize("n", [2, 3, 10**9 + 7])
def test_order_matches_sympy_at_nineteen_digit_primes(n, p):
    for l in (1, 2, 3):
        assert multiplicative_order(n, p, l) == n_order(n, p**l)


def test_large_primes_answer_in_milliseconds():
    is_prime.cache_clear()
    start = time.perf_counter()
    for p in BIG_PRIMES:
        MonomialSystem(p, 2, 1)
        multiplicative_order(2, p, 3)
    assert time.perf_counter() - start < 1.0


def test_order_rejects_non_units_and_composites():
    with pytest.raises(DomainError):
        multiplicative_order(6, 3, 2)
    with pytest.raises(DomainError):
        multiplicative_order(5, 9, 2)


def test_generator_examples():
    assert is_generator_mod_p2(2, 3) is True
    assert is_generator_mod_p2(4, 3) is False
    assert is_generator_mod_p2(3, 17) is True
    with pytest.raises(DomainError):
        is_generator_mod_p2(3, 2)


def test_unit_group_report_fields():
    rep = unit_group_report(2, 3, 2)
    assert rep.group_order == 6 and rep.element_order == 6 and rep.is_generator
    rep = unit_group_report(4, 3, 2)
    assert rep.element_order == 3 and not rep.is_generator


def test_generated_sets():
    assert generated_set(4, 9).tolist() == [4, 7, 1]
    assert sorted(generated_set(2, 9).tolist()) == [1, 2, 4, 5, 7, 8]
    assert generated_set(1, 100).tolist() == [1]
    with pytest.raises(DomainError):
        generated_set(6, 9)
    with pytest.raises(ResourceError):
        generated_set(2, 10**8 + 7)


def test_generated_set_size_is_the_order():
    for p, l in ((3, 3), (5, 2)):
        m = p**l
        for n in range(2, m):
            if n % p == 0:
                continue
            assert len(generated_set(n, m)) == multiplicative_order(n, p, l)


def _walked_set(n: int, modulus: int) -> list[int]:
    out, x = [n % modulus], n % modulus
    while x != 1:
        x = (x * n) % modulus
        out.append(x)
    return out


@pytest.mark.parametrize(
    "n,modulus,order",
    [
        (1, 100, 1),
        (4, 9, 3),
        (7, 997**2, 993012),  # a generator mod p^2, the largest set analyze prints
        (10, 99, 2),  # composite moduli from here on
        (7, 1000, 20),
        (3, 2 * 5**6, 12500),
        (-2, 49, 42),
        (1 + 3**12, 3**21, 3**9),  # 3^21 > INT64_SAFE_MODULUS: the object-dtype path
    ],
)
def test_generated_set_matches_a_plain_loop(n, modulus, order, monkeypatch):
    monkeypatch.setattr(unitgroups, "DEFAULT_RESIDUE_CAP", modulus)
    got = generated_set(n, modulus)
    assert got.dtype == (np.int64 if modulus <= INT64_SAFE_MODULUS else object)
    assert len(got) == order
    assert got.tolist() == _walked_set(n, modulus)
    assert all(type(x) is int for x in got.tolist())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(2, 5000).flatmap(lambda m: st.tuples(st.integers(-m, 3 * m), st.just(m))))
def test_generated_set_matches_a_plain_loop_on_random_moduli(case):
    n, modulus = case
    if gcd(n, modulus) != 1:
        with pytest.raises(DomainError):
            generated_set(n, modulus)
    else:
        assert generated_set(n, modulus).tolist() == _walked_set(n, modulus)


def test_generator_consistency_examples():
    assert all(unit_group_report(2, 3, l).is_generator for l in range(2, 6))
    assert not any(unit_group_report(4, 3, l).is_generator for l in range(2, 6))


def test_generator_mod_p_but_not_mod_p2():
    # 8 generates the units mod 3 but 8^2 = 64 = 1 mod 9, and so at no level >= 2
    assert unit_group_report(8, 3, 1).is_generator
    assert not any(unit_group_report(8, 3, l).is_generator for l in range(2, 6))


def test_generator_consistency_exhaustive():
    # level 2 decides every level up to 5, for all units mod p^2
    for p in (3, 5, 7, 11):
        cert = certify_generator_consistency(p, 5)
        assert cert.passed
        assert cert.annotations["units_checked"] == p * p - p


def test_noncyclic_2adic():
    for l in range(3, 11):
        assert noncyclic_2adic_check(l) is True
    with pytest.raises(DomainError):
        noncyclic_2adic_check(2)


def test_noncyclic_2adic_against_direct_max_order():
    for l in (3, 4, 5):
        m = 2**l
        max_order = max(walked_order(u, m) for u in range(1, m, 2))
        assert max_order < m // 2


def test_density_examples():
    assert density_check(2, 3, 4) is True
    assert density_check(4, 3, 2) is False
    assert density_check(2, 3, 1) is True  # primitive root mod 3
    with pytest.raises(DomainError):
        density_check(3, 2, 2)


def test_density_by_enumeration_oracle():
    # <2> mod 81 really reaches every unit
    reached = set(generated_set(2, 81).tolist())
    units = {r for r in range(81) if r % 3 != 0}
    assert reached == units


def test_density_tracks_generator_for_deep_levels():
    for p in (3, 5):
        for n in range(1, p * p):
            if n % p == 0:
                continue
            gen = is_generator_mod_p2(n, p)
            for k in (2, 3):
                assert density_check(n, p, k) == gen
