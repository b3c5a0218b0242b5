"""p-adic logarithm, exponential, continuous powers x^a, and roots of unity.

The series are summed in exact integer arithmetic, bit-exact mod p^K; no
rounding ever occurs. The log series is one cached Horner polynomial per
(p, K, v): times p^e, e the largest v_p(k) among its terms, its coefficients
are integers and its terms have valuation >= e, so it is summed mod p^(K+e)
and divided by p^e exactly. :func:`padic_log_residues` logs a point set with
one plan. The exp series adds guard digits and divides term k by p^v_p(k!).

Domains (all distances as valuation exponents):
  log: defined on dist(x, 1) >= 1, and >= 2 when p = 2;
  exp: defined on valuation(x) >= 1, and >= 2 when p = 2;
  x^a: x in the log domain (p = 2 restricted to dist(x, 1) >= 2), a in Z_p.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DomainError, IntegrityError
from .padic import PadicInt, factorize, int_valuation, is_prime


def _ilog(p: int, k: int) -> int:
    """floor(log_p(k)) for k >= 1."""
    v = 0
    q = p
    while q <= k:
        v += 1
        q *= p
    return v


def _factorial_valuation(p: int, k: int) -> int:
    """v_p(k!) by Legendre's formula."""
    total = 0
    q = p
    while q <= k:
        total += k // q
        q *= p
    return total


@lru_cache(maxsize=64)
def _log_plan(p: int, K: int, v: int) -> tuple[tuple[int, ...], int, int, int]:
    """Horner coefficients of p^e log(1 + lam) mod p^(K+e), highest first, with
    p^(K+e), p^e and p^K; exact for every lam of valuation >= v. Terms past k_max
    have valuation >= K, as k*v - log_p(k) is non-decreasing in k; with e = max v_p(k),
    c_k = (-1)^(k+1) p^(e-v_p(k)) / unit(k) is an integer and c_k lam^k has valuation >= e."""
    k_max = 1
    while k_max * v - _ilog(p, k_max) < K:
        k_max += 1
    e = _ilog(p, k_max)
    mod_w = p ** (K + e)
    coeffs = []
    for k in range(k_max, 0, -1):
        vk = int_valuation(k, p) if k % p == 0 else 0
        coeffs.append((-1) ** (k + 1) * p ** (e - vk) * pow(k // p**vk, -1, mod_w) % mod_w)
    return tuple(coeffs), mod_w, p**e, p**K


def _log_sum(p: int, K: int, v: int, residues: list[int]) -> list[int]:
    """log of each residue mod p^K, for residues at distance >= v from 1."""
    coeffs, mod_w, p_e, mod = _log_plan(p, K, v)
    out = []
    for r in residues:
        lam, acc = (r - 1) % mod, 0
        for c in coeffs:
            acc = (acc + c) * lam % mod_w
        out.append(acc // p_e)
    return out


def padic_log(x: PadicInt) -> PadicInt:
    """log(x) = sum (-1)^(k+1) (x-1)^k / k, exact mod p^K on its domain."""
    p, K = x.prime, x.precision
    lam_val = x.dist(PadicInt.one(p, K))
    needed = 2 if p == 2 else 1
    if not lam_val.at_least(needed):
        raise DomainError(
            f"log needs dist(x, 1) >= {needed} at p = {p}; got {lam_val}"
        )
    if not lam_val.is_finite:
        return PadicInt.zero(p, K)
    return PadicInt(p, K, _log_sum(p, K, lam_val.value, [x.residue])[0])


def padic_log_residues(p: int, K: int, residues: list[int]) -> list[int]:
    """log mod p^K of every residue, each in the log domain at p; one plan for all."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    needed = 2 if p == 2 else 1
    if K < needed:
        raise DomainError(f"log needs precision K >= {needed} at p = {p}; got {K}")
    for r in residues:
        if (r - 1) % p**needed:
            raise DomainError(f"log needs dist(x, 1) >= {needed} at p = {p}; got residue {r}")
    return _log_sum(p, K, needed, residues)


def padic_exp(x: PadicInt) -> PadicInt:
    """exp(x) = sum x^k / k!, exact mod p^K on its domain."""
    p, K = x.prime, x.precision
    xval = x.valuation()
    needed = 2 if p == 2 else 1
    if not xval.at_least(needed):
        raise DomainError(
            f"exp needs valuation(x) >= {needed} at p = {p}; got {xval}"
        )
    if not xval.is_finite:
        return PadicInt.one(p, K)
    v = xval.value

    # All terms from k_stop on have valuation k*v - v_p(k!) >= K, because
    # v_p(k!) <= (k-1)/(p-1).
    denom = v * (p - 1) - 1
    k_stop = (K * (p - 1) - 1 + denom - 1) // denom
    guard = _factorial_valuation(p, k_stop) + 1
    kw = K + guard
    mod_w = p**kw

    xi = x.residue
    total = 1
    vfact = 0
    ufact = 1  # unit part of k! mod p^kw
    for k in range(1, k_stop + 1):
        vk = int_valuation(k, p) if k % p == 0 else 0
        vfact += vk
        ufact = (ufact * (k // p**vk)) % mod_w
        pk = pow(xi, k, p ** (kw + vfact))
        term = (pk // p**vfact) * pow(ufact, -1, mod_w) % mod_w
        total = (total + term) % mod_w
    return PadicInt(p, K, total % x.modulus)


def pow_padic(x: PadicInt, a: PadicInt) -> PadicInt:
    """x^a for a p-adic exponent, computed two ways and cross-checked.

    Route one is exp(a * log x); route two is the natural power x^(a mod p^K),
    which is the truncation limit of x^a. The two agree exactly mod p^K on the
    domain; a mismatch is an implementation bug and raises IntegrityError.
    """
    x._check_compatible(a)
    p = x.prime
    needed = 2 if p == 2 else 1
    if not x.dist(PadicInt.one(p, x.precision)).at_least(needed):
        raise DomainError(
            f"powers x^a need dist(x, 1) >= {needed} at p = {p}"
        )
    analytic = padic_exp(a * padic_log(x))
    truncated = x.pow_nat(a.residue)
    if analytic != truncated:
        raise IntegrityError(
            f"x^a routes disagree at p={p}, K={x.precision}: "
            f"exp/log gave {analytic.residue}, natural power gave {truncated.residue}"
        )
    return analytic


def teichmuller(x: PadicInt) -> PadicInt:
    """The unique (p-1)-th root of unity congruent to x mod p, for odd p.

    Obtained by the p-th power stabilization x -> x^p, which converges one
    digit per step: K steps give x^(p^K), checked to be a fixed point.
    """
    p, K = x.prime, x.precision
    if p == 2:
        raise DomainError("Teichmuller lifting implemented for odd p only")
    if not x.is_unit():
        raise DomainError("Teichmuller representative exists only for units")
    m = x.modulus
    y = pow(x.residue, p**K, m)
    if pow(y, p, m) != y:
        raise IntegrityError("Teichmuller stabilization failed to reach a fixed point")
    return PadicInt(p, K, y)


def roots_of_unity(d: int, p: int, K: int) -> list[PadicInt]:
    """All solutions of x^d = 1 in Z_p at precision K, sorted by residue.

    For odd p the solutions form the cyclic group of order d0 = gcd(d, p-1):
    the d0 powers mod p of one h of exact order d0, each lifted with the
    Teichmuller map.
    """
    if p == 2:
        raise DomainError("roots of unity at p = 2 are just +-1; use odd p here")
    if d < 1:
        raise DomainError("root order must be a positive integer")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    d0 = gcd(d, p - 1)
    primes = factorize(d0)
    # h = u^((p-1)/d0) has order dividing d0, and exactly d0 unless h^(d0/q) = 1
    # for a prime q of d0; a primitive root u always gives exact order.
    for u in range(1, p):
        h = pow(u, (p - 1) // d0, p)
        if all(pow(h, d0 // q, p) != 1 for q in primes):
            break
    residues = {pow(h, j, p) for j in range(d0)}
    # d0 distinct roots of x^d0 - 1 over F_p are all of its roots
    if len(residues) != d0:
        raise IntegrityError(
            f"expected gcd({d}, {p - 1}) = {d0} roots, found {len(residues)}"
        )
    out = []
    for r in residues:
        root = teichmuller(PadicInt.from_integer(r, p, K))
        if root.pow_nat(d).residue != 1:
            raise IntegrityError(f"lifted root {root.residue} fails x^{d} = 1 mod {p}^{K}")
        out.append(root)
    out.sort(key=lambda r: r.residue)
    return out
