"""Multiplicative structure of the units mod p^l: orders, generator tests,
generated sets and their density, the facts the dynamics verdicts rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import kernels
from .errors import DomainError, IntegrityError, ResourceError
from .padic import euler_phi_prime_power, factorize, is_prime

DEFAULT_RESIDUE_CAP = 10**7


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def multiplicative_order(n: int, p: int, l: int) -> int:
    """Least N >= 1 with n^N = 1 mod p^l.

    Factors the group order (p-1) * p^(l-1) with ``padic.factorize`` and
    descends through its divisors; p is limited only by ``padic.is_prime``.
    """
    _require_prime(p)
    if l < 1:
        raise DomainError("level must be at least 1")
    if gcd(n, p) != 1:
        raise DomainError(f"{n} is not a unit mod {p}^{l}")
    modulus = p**l
    order = euler_phi_prime_power(p, l)
    for q in (*factorize(p - 1), p):  # p divides the order only when l >= 2
        while order % q == 0 and pow(n, order // q, modulus) == 1:
            order //= q
    return order


@dataclass(frozen=True, slots=True)
class UnitGroupReport:
    """Order data for one element of the units mod p^l."""

    p: int
    l: int
    group_order: int
    element: int
    element_order: int
    is_generator: bool


def unit_group_report(n: int, p: int, l: int) -> UnitGroupReport:
    order = multiplicative_order(n, p, l)
    group_order = euler_phi_prime_power(p, l)
    return UnitGroupReport(p, l, group_order, n, order, order == group_order)


def is_generator_mod_p2(n: int, p: int) -> bool:
    """Whether n generates the full unit group mod p^2 (order p(p-1)).

    This is the master criterion every dynamics verdict reduces to. Undefined
    for p = 2: the units mod 2^l are noncyclic for l >= 3, so no single
    element can play this role.
    """
    if p == 2:
        raise DomainError("generator criterion undefined at p = 2 (noncyclic unit groups)")
    _require_prime(p)
    return multiplicative_order(n, p, 2) == p * (p - 1)


def generated_set(n: int, modulus: int) -> np.ndarray:
    """The multiplicative cycle {n, n^2, ..., 1} mod modulus, in generation
    order, as an int64 array (object dtype above INT64_SAFE_MODULUS)."""
    if modulus < 2:
        raise DomainError("modulus must be at least 2")
    if gcd(n, modulus) != 1:
        raise DomainError(f"{n} is not coprime to {modulus}")
    if modulus > DEFAULT_RESIDUE_CAP:
        raise ResourceError(f"modulus {modulus} exceeds residue cap {DEFAULT_RESIDUE_CAP}")
    # By doubling: the next block is the powers so far times n^len. int64
    # products are exact up to INT64_SAFE_MODULUS; Python ints above it.
    powers = np.array([n % modulus], dtype=np.int64 if modulus <= kernels.INT64_SAFE_MODULUS else object)
    ones = np.flatnonzero(powers == 1)
    while not ones.size:
        block = powers * pow(n, powers.size, modulus) % modulus
        ones = np.flatnonzero(block == 1) + powers.size
        powers = np.concatenate((powers, block))
    return powers[: ones[0] + 1]


def noncyclic_2adic_check(l: int) -> bool:
    """True when no odd residue mod 2^l reaches the full order 2^(l-1).

    Exhaustive over the 2^(l-1) odd residues; rejects l < 3 where the group
    is still cyclic.
    """
    if l < 3:
        raise DomainError("units mod 2 and mod 4 are cyclic; need l >= 3")
    modulus = 2**l
    full = modulus // 2
    for u in range(1, modulus, 2):
        x = u
        order = 1
        while x != 1:
            x = (x * u) % modulus
            order += 1
        if order == full:
            return False
    return True


def density_check(n: int, p: int, k: int) -> bool:
    """Whether the powers of n reach every unit mod p^k.

    For k >= 2 this must coincide with the mod-p^2 generator test; the two
    routes are computed independently here and a mismatch raises
    :class:`IntegrityError`.
    """
    if p == 2:
        raise DomainError("density criterion undefined at p = 2")
    _require_prime(p)
    if k < 1:
        raise DomainError("k must be at least 1")
    if gcd(n, p) != 1:
        raise DomainError(f"{n} is not a unit mod {p}")
    reached = len(generated_set(n, p**k))
    dense = reached == euler_phi_prime_power(p, k)
    if k >= 2 and dense != is_generator_mod_p2(n, p):
        raise IntegrityError(
            f"density of <{n}> mod {p}^{k} disagrees with the mod-{p}^2 generator test"
        )
    return dense
