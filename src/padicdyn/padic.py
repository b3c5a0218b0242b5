"""Exact arithmetic in Z/p^K viewed as the p-adic integers truncated to K digits.

Every value is an immutable residue in [0, p^K) together with its prime and
digit count. All operations are exact modulo p^K; magnitudes are carried as
integer valuation exponents, never as floats. Residues are plain Python
integers, so p^K may exceed the machine word without any special handling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd
from operator import index

from .errors import DomainError, ResourceError

# The first 13 primes, trial divisors and Miller-Rabin bases, and psi_13, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981
PRIME_CACHE_SIZE = 1 << 12
# Rho finds a prime q in about sqrt(q) steps; a composite below MR_EXACT_BOUND
# has one below 1.9e12, and 2^25 steps take about 15 s (2-core x86-64 host).
RHO_STEP_CAP = 1 << 25
_RHO_BATCH = 128  # rho steps per gcd


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin to the 13 bases, for n > 41 with no prime factor up to 41.
    Raises ResourceError at or above MR_EXACT_BOUND unless a base is a witness."""
    n = index(n)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BOUND:
        raise ResourceError(f"primality of {n} is not decided at or above {MR_EXACT_BOUND}")
    return True


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Trial division by the primes up to 41, then Miller-Rabin to those 13
    bases; cached for PRIME_CACHE_SIZE values.

    Exact below psi_13 = 3317044064679887385961981 (Sorenson & Webster, "Strong
    pseudoprimes to twelve prime bases", Math. Comp. 2017); the first 12 bases
    call psi_12 = 318665857834031151167461 prime. At or above psi_13 a witness
    still proves n composite; any other n raises ResourceError.
    """
    for q in _BASES:
        if n % q == 0:
            return n == q
    return n > 1 and (n < 43 * 43 or _miller_rabin(n))


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor up to 41, by
    Brent's rho (BIT 1980) on y^2 + c from y = 2, c = 1, 2, ..., capped at
    RHO_STEP_CAP steps in all."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > RHO_STEP_CAP:
                raise ResourceError(f"factoring {n} exceeds {RHO_STEP_CAP} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the last batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """{prime: multiplicity} in ascending order: trial division by the primes
    up to 41, then Brent's rho splits each cofactor until Miller-Rabin says
    prime. Raises ResourceError where either of those does."""
    if n <= 0:
        raise ValueError("factorize needs a positive integer")
    found = []
    for q in _BASES:
        while n % q == 0:
            found.append(q)
            n //= q
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < 43 * 43 or _miller_rabin(m):
            found.append(m)
        else:
            d = _rho_divisor(m)
            pending += (d, m // d)
    return dict(sorted(Counter(found).items()))


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in n, for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is unbounded; handle separately")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, slots=True)
class Valuation:
    """A p-adic valuation known to finite precision.

    ``value`` is the exact exponent when the residue does not vanish; ``None``
    means the residue is 0 mod p^K, so only the lower bound "at least
    ``precision``" is known. The norm is the exponent -value; it is exposed as
    an integer, never a float.
    """

    value: int | None
    precision: int

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def capped(self) -> int:
        """The exponent, with the sentinel collapsed to the precision bound."""
        return self.precision if self.value is None else self.value

    def at_least(self, k: int) -> bool:
        return self.capped() >= k

    def equals_exactly(self, k: int) -> bool:
        return self.value == k

    @property
    def norm_exponent(self) -> int:
        """Exponent e with |x|_p = p^e (upper bound -precision at the sentinel)."""
        return -self.capped()

    def __str__(self) -> str:
        if self.value is None:
            return f">={self.precision}"
        return str(self.value)


@dataclass(frozen=True, slots=True)
class PadicInt:
    """An element of Z_p known to absolute precision ``precision`` digits.

    Two values interoperate only if both prime and precision match; mixing
    them raises :class:`DomainError`. Instances are immutable and safe to
    share across threads.
    """

    prime: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise DomainError(f"{self.prime} is not prime")
        if self.precision < 1:
            raise DomainError("precision must be at least 1 digit")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    # -- construction -------------------------------------------------

    @classmethod
    def from_integer(cls, z: int, p: int, K: int) -> "PadicInt":
        """Embed an integer; negatives wrap to their residue mod p^K."""
        return cls(p, K, z)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int, K: int) -> "PadicInt":
        """Embed num/den, which must be a p-adic integer (p does not divide den)."""
        if den == 0:
            raise ValueError("zero denominator")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if den % p == 0:
            raise DomainError(f"{num}/{den} is not a {p}-adic integer")
        m = p**K
        return cls(p, K, num * pow(den, -1, m))

    @classmethod
    def zero(cls, p: int, K: int) -> "PadicInt":
        return cls(p, K, 0)

    @classmethod
    def one(cls, p: int, K: int) -> "PadicInt":
        return cls(p, K, 1)

    # -- ring structure -----------------------------------------------

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def _check_compatible(self, other: "PadicInt") -> None:
        if self.prime != other.prime or self.precision != other.precision:
            raise DomainError(
                f"mixed operands: ({self.prime}, K={self.precision}) vs "
                f"({other.prime}, K={other.precision})"
            )

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return PadicInt(self.prime, self.precision, self.residue + other.residue)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return PadicInt(self.prime, self.precision, self.residue - other.residue)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return PadicInt(self.prime, self.precision, self.residue * other.residue)

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.prime, self.precision, -self.residue)

    def pow_nat(self, e: int) -> "PadicInt":
        """x^e for a natural exponent, mod p^K."""
        if e < 0:
            raise DomainError("pow_nat takes a non-negative exponent")
        return PadicInt(self.prime, self.precision, pow(self.residue, e, self.modulus))

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def invert(self) -> "PadicInt":
        if not self.is_unit():
            raise DomainError("only units are invertible in Z_p")
        return PadicInt(self.prime, self.precision, pow(self.residue, -1, self.modulus))

    # -- metric structure ----------------------------------------------

    def valuation(self) -> Valuation:
        if self.residue == 0:
            return Valuation(None, self.precision)
        return Valuation(int_valuation(self.residue, self.prime), self.precision)

    def dist(self, other: "PadicInt") -> Valuation:
        """Valuation of the difference; the metric carried as an exponent."""
        return (self - other).valuation()

    # -- digits and rendering -------------------------------------------

    def digits(self) -> tuple[int, ...]:
        """Base-p digits a_0..a_{K-1} with residue = sum a_i p^i."""
        out = []
        n = self.residue
        for _ in range(self.precision):
            n, d = divmod(n, self.prime)
            out.append(d)
        return tuple(out)

    def digit_text(self) -> str:
        """Canonical textual form: digits high to low, base and digit count."""
        ds = " ".join(str(d) for d in reversed(self.digits()))
        return f"{ds} (base {self.prime}, {self.precision} digits)"

    def __str__(self) -> str:
        return f"{self.residue} = {self.digit_text()}"


def euler_phi_prime_power(p: int, l: int) -> int:
    """Order of the unit group mod p^l."""
    return (p - 1) * p ** (l - 1)
