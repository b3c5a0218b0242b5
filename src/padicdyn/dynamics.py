"""Dynamics of x -> x^n on the sphere of radius p^-l around 1.

The sphere splits, for each depth k >= 1, into (p-1)p^(k-1) disjoint balls of
radius p^-(l+k); the power map permutes them because it is an isometry there.
Everything this module reports reduces to exact statements about those
permutations: the minimality / unique-ergodicity / ergodicity verdict, exact
rational Birkhoff averages against the ball measure, conjugation to spheres
around other fixed points, the never-mixing product construction, and the
behaviour of additively perturbed power maps.

Residue sweeps map whole arrays: x^n and psi_q = x^n + q(x) both run through
:func:`kernels.power_map_any`, int64 where the modulus permits and an object
array of Python big ints otherwise. :func:`_ball_ranks` tests whether residues
lie on the sphere and ranks their balls, for :meth:`BallPartition.indices_of`
and every checked ball permutation. Only :meth:`BallPartition.centers`
enumerates balls, under the ball cap; :func:`_depth_centers` enumerates every
depth of a walk before any is mapped, so a depth over the cap refuses first.
Permutations and a verdict's generated set stay arrays; a cycle type is
(length, how many cycles have it) pairs, ascending. Every verdict, around 1
or another fixed point, is assembled by :func:`_verdict_from_depths` from the
order of n mod p^k, which fixes the cycle type of the base ball permutations
that conjugation keeps; a bounded enumeration or a sample of centres checks it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import kernels
from .analysis import padic_log_residues, roots_of_unity
from .errors import DomainError, IntegrityError, ResourceError
from .padic import PadicInt, factorize, int_valuation, is_prime
from .unitgroups import (
    UnitGroupReport,
    generated_set,
    is_generator_mod_p2,
    multiplicative_order,
    unit_group_report,
)

DEFAULT_BALL_CAP = 10**6
_ENUMERATED_BALLS = 1 << 16  # verdict depths up to this size are enumerated
_SAMPLED_CENTERS = 64  # return times checked per larger verdict depth
_LOG_POINT_CAP = 144  # sphere points whose log ratios product_nonmixing_report checks
_MISMATCH_LIMIT = 20  # congruence mismatches perturbed_analysis keeps as examples
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, slots=True)
class MonomialSystem:
    """The map x -> x^n restricted to the sphere |x - 1| = p^-l.

    Requires an odd prime, an exponent n >= 2 coprime to p (otherwise the
    sphere is not invariant and the map is not an isometry on it), and a
    sphere level l >= 1.
    """

    p: int
    n: int
    l: int

    def __post_init__(self) -> None:
        if self.p == 2:
            raise DomainError(
                "p = 2 is not admitted: the minimality criterion needs an odd prime "
                "(the units mod 2^l are noncyclic for l >= 3)"
            )
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.n < 2:
            raise DomainError("exponent must be at least 2")
        if gcd(self.n, self.p) != 1:
            raise DomainError(
                f"exponent {self.n} shares a factor with {self.p}; "
                "the sphere is only invariant for unit exponents"
            )
        if self.l < 1:
            raise DomainError("sphere level must be at least 1")


@dataclass(frozen=True, slots=True)
class BallPartition:
    """The depth-k splitting of the sphere into balls of radius p^-(l+k).

    Ball i is centred at 1 + t*p^l, t = i + 1 + i // (p-1) the (i+1)-th integer
    in [1, p^k) prime to p: the least point of its ball. Only :meth:`centers`
    enumerates, so a partition of any size can be built and indexed.
    """

    prime: int
    level: int
    depth: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise DomainError("sphere level must be at least 1")
        if self.depth < 1:
            raise DomainError("depth must be at least 1")

    @property
    def modulus(self) -> int:
        return self.prime ** (self.level + self.depth)

    @property
    def ball_count(self) -> int:
        return (self.prime - 1) * self.prime ** (self.depth - 1)

    def indices_of(self, residues: list[int]) -> np.ndarray:
        """Ranks of the balls containing ``residues``, which must all lie on the
        sphere; the first one off it is named in the DomainError."""
        ranks, on_sphere = _ball_ranks(self, [r % self.modulus for r in residues])
        if not on_sphere.all():
            off = residues[int(np.argmin(on_sphere))]
            raise DomainError(f"residue {off} is not on the sphere at this depth")
        return ranks

    def index_of(self, residue: int) -> int:
        """Rank of the ball containing ``residue`` (must lie on the sphere)."""
        return int(self.indices_of([residue])[0])

    def ball_center(self, index: int) -> int:
        i = operator.index(index)
        if not 0 <= i < self.ball_count:
            raise DomainError(f"ball index {i} outside 0..{self.ball_count - 1}")
        return 1 + (i + 1 + i // (self.prime - 1)) * self.prime**self.level

    def centers(self, indices=None) -> np.ndarray:
        """The centres of the balls at ``indices``, default all in ascending order: int64
        if the modulus fits, else object dtype. Every sphere enumeration and sample
        comes here; it refuses partitions over DEFAULT_BALL_CAP balls."""
        count = self.ball_count
        if count > DEFAULT_BALL_CAP:
            raise ResourceError(f"partition of {count} balls exceeds cap {DEFAULT_BALL_CAP}")
        t = np.arange(count, dtype=np.int64) if indices is None else np.array(indices, np.int64)
        t += t // (self.prime - 1) + 1
        if self.modulus > _INT64_MAX:
            t = t.astype(object)
        return 1 + t * self.prime**self.level


def sphere_partition(sys: MonomialSystem, depth: int) -> BallPartition:
    """The depth-k partition of the system's sphere; depth must be at least 1.
    Nothing is enumerated here: see :meth:`BallPartition.centers`."""
    return BallPartition(sys.p, sys.l, depth)


def _depth_centers(sys: MonomialSystem, k_max: int) -> list[tuple[BallPartition, np.ndarray]]:
    """(partition, centres) at depths 1..k_max, all enumerated before the caller
    maps any, so that the first partition over the cap refuses before any work."""
    partitions = [sphere_partition(sys, k) for k in range(1, k_max + 1)]
    return [(part, part.centers()) for part in partitions]


@dataclass(frozen=True, slots=True, eq=False)
class PermutationAction:
    """The power map's permutation of a partition's balls, as int64 arrays (no ``==``)."""

    partition: BallPartition
    mapping: np.ndarray
    cycle_starts: np.ndarray
    cycle_lengths: np.ndarray

    def __post_init__(self) -> None:
        if int(self.cycle_lengths.sum()) != self.mapping.size:
            raise IntegrityError("cycle lengths do not cover the partition")

    @property
    def cycle_type(self) -> tuple[tuple[int, int], ...]:
        """(length, how many cycles have it), ascending by length."""
        lengths, counts = np.unique(self.cycle_lengths, return_counts=True)
        return tuple(zip(lengths.tolist(), counts.tolist()))

    @property
    def is_transitive(self) -> bool:
        return self.cycle_lengths.size == 1

    def fixed_indices(self) -> tuple[int, ...]:
        """Fixed balls, ascending: the starts of the cycles of length 1."""
        return tuple(self.cycle_starts[self.cycle_lengths == 1].tolist())


def _ball_ranks(partition: BallPartition, images) -> tuple[np.ndarray, np.ndarray]:
    """The sphere test and the ball ranks of a batch of residues.

    ``images`` are residues reduced mod the partition modulus (int64 array or
    Python ints). Returns ``(ranks, on_sphere)``: whether each residue lies on
    the sphere |x - 1| = p^-l, and the index of its ball where it does (int64
    while p^k fits). The arithmetic dtype follows the modulus, not the values:
    left to itself numpy reads a mix of ints below and above 2**63 as float64.
    """
    p, step = partition.prime, partition.prime**partition.level
    dtype = np.int64 if partition.modulus <= _INT64_MAX else object
    t = np.asarray(images, dtype=dtype) - 1
    on_sphere = t % step == 0
    t //= step  # the residue is 1 + t*p^l, on the sphere exactly when p does not divide t
    on_sphere &= t % p != 0
    ranks = (t - 1) - (t - 1) // p  # rank of t among 1..p^k-1 skipping multiples of p
    if p**partition.depth <= _INT64_MAX:
        ranks = ranks.astype(np.int64, copy=False)
    return ranks, on_sphere


def _permutation_from_ranks(partition: BallPartition, mapping, on_sphere) -> PermutationAction:
    """The checked ball permutation from :func:`_ball_ranks` of the centres' images
    mod the partition modulus. Raises IntegrityError when an image leaves the
    sphere or the ball map is not a bijection."""
    if not on_sphere.all():
        raise IntegrityError("a ball image left the sphere")
    try:
        starts, lengths = kernels.cycle_info(mapping)
    except ValueError:
        raise IntegrityError("the ball map is not a bijection") from None
    return PermutationAction(partition, mapping, starts, lengths)


def induced_permutation(sys: MonomialSystem, depth: int) -> PermutationAction:
    """The permutation of depth-k balls, with its cycle structure.

    A ball centre c moves to the ball of c^n mod p^(l+k); the result is a
    bijection because the map is an isometry on the sphere.
    """
    partition = sphere_partition(sys, depth)
    images = kernels.power_map_any(partition.centers(), sys.n, partition.modulus)
    return _permutation_from_ranks(partition, *_ball_ranks(partition, images))


# -- verdicts ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DepthCycles:
    depth: int
    ball_count: int
    cycle_type: tuple[tuple[int, int], ...]  # (length, how many), ascending

    @property
    def transitive(self) -> bool:
        return self.cycle_type == ((self.ball_count, 1),)


@dataclass(frozen=True, slots=True, eq=False)
class VerdictEvidence:
    """What the verdict was computed from (no ``==``: it holds an array)."""

    generator: UnitGroupReport
    generated_mod_p2: np.ndarray  # ascending
    depths: tuple[DepthCycles, ...]
    invariant_ball: tuple[int, int] | None  # (depth, center residue), when one exists


@dataclass(frozen=True, slots=True, eq=False)
class Verdict:
    """Minimality, unique ergodicity, and ergodicity always rise and fall together,
    so one flag carries all three."""

    minimal: bool
    evidence: VerdictEvidence

    @property
    def uniquely_ergodic(self) -> bool:
        return self.minimal

    @property
    def ergodic(self) -> bool:
        return self.minimal


def _verdict_from_depths(sys: MonomialSystem, k_max: int, a: int = 1) -> Verdict:
    """The verdict from the order of n, cross-checked at depths 1..k_max.

    log conjugates x -> x^n on the sphere to u -> n*u on the units mod p^k,
    so the M depth-k balls form M/o cycles of length o = ord_{p^k}(n). Up to
    _ENUMERATED_BALLS balls the induced permutation must show that; beyond,
    _SAMPLED_CENTERS centres must return after exactly o steps. The balls
    are a*c around the fixed point a, in the standard coordinates c (see
    :func:`conjugated_verdict`). o_1 divides every o_k, so a ball is
    invariant exactly when o_1 = 1; the least a*c mod p^(l+1) is reported.
    """
    partitions = [sphere_partition(sys, k) for k in range(1, k_max + 1)]
    # every depth's samples first, so that a depth over the cap refuses before any work
    samples = [part.centers([i * part.ball_count // _SAMPLED_CENTERS for i in range(_SAMPLED_CENTERS)])
               for part in partitions]
    gen_report = unit_group_report(sys.n, sys.p, 2)
    gen = gen_report.is_generator
    depths = []
    invariant_ball = None
    for part, sample in zip(partitions, samples):
        k, count, m, step = part.depth, part.ball_count, part.modulus, sys.p**sys.l
        order = multiplicative_order(sys.n, sys.p, k)
        if k == 1 and order == 1:
            # the least a*c mod p^(l+1): a's digits below l, then the least digit but a's digit l
            invariant_ball = (1, a % step + (0 if a // step % sys.p else 1) * step)
        if count <= _ENUMERATED_BALLS:
            perm = induced_permutation(sys, k)
            agrees = bool((perm.cycle_lengths == order).all())  # exact: the lengths sum to count
            if invariant_ball and k == 1:
                fixed = (a * part.ball_center(i) % m for i in perm.fixed_indices())
                agrees &= invariant_ball[1] == min(fixed, default=None)
        else:
            # c is back after N steps when c^(n^N) = c mod p^(l+k): after o steps, and
            # after o/q for no prime q | o. Euler's theorem reduces n^N mod
            # phi(p^(l+k)) = m - m/p; mod p^k would assume the cycle type under check.
            back = [
                kernels.power_map_any(sample, pow(sys.n, order // q, m - m // sys.p), m) == sample
                for q in (1, *factorize(order))
            ]
            agrees = back[0].all() and not any(b.any() for b in back[1:])
        if not agrees:
            raise IntegrityError(f"depth-{k} balls disagree with the order {order} of n mod p^{k}")
        depths.append(DepthCycles(k, count, ((order, count // order),)))
        if gen and order != count:
            raise IntegrityError(
                f"generator at ({sys.p}, {sys.n}) but depth {k} is not transitive"
            )
        # Depth 1 only sees the generated set mod p, so a non-generator may
        # still be transitive there; levels >= 2 decide the criterion.
        if not gen and k >= 2 and order == count:
            raise IntegrityError(
                f"non-generator at ({sys.p}, {sys.n}) but depth {k} is transitive"
            )
    generated = np.sort(generated_set(sys.n, sys.p**2))
    evidence = VerdictEvidence(gen_report, generated, tuple(depths), invariant_ball)
    return Verdict(gen, evidence)


def minimality_verdict(sys: MonomialSystem, k_max: int = 4) -> Verdict:
    """Decide minimality two independent ways and cross-check them.

    The generator test mod p^2 gives the criterion; transitivity of the ball
    cycles that the order of n fixes at every depth k <= k_max re-derives it,
    checked on the ball permutations. Disagreement raises IntegrityError.
    """
    if k_max < 2:
        raise DomainError("k_max must be at least 2; depth 1 alone cannot decide")
    return _verdict_from_depths(sys, k_max)


# -- measures and averages ----------------------------------------------------


def haar_ball_measure(sys: MonomialSystem, depth: int) -> Fraction:
    """Normalized measure of one depth-k ball inside the sphere."""
    return Fraction(1, BallPartition(sys.p, sys.l, depth).ball_count)


@dataclass(frozen=True, slots=True)
class BallIndicator:
    """1 on the residues congruent to ``center`` mod p^radius_exp, else 0."""

    center: int
    radius_exp: int

    def __post_init__(self) -> None:
        if self.radius_exp < 0:
            raise DomainError("ball radius exponents are non-negative")

    def evaluate(self, residue: int, p: int) -> int:
        return 1 if (residue - self.center) % p**self.radius_exp == 0 else 0


@dataclass(frozen=True, slots=True)
class DigitValue:
    """The base-p digit at ``position`` of the point's residue."""

    position: int

    def __post_init__(self) -> None:
        if self.position < 0:
            raise DomainError("digit positions are non-negative")

    def evaluate(self, residue: int, p: int) -> int:
        return (residue // p**self.position) % p


TestFunction = BallIndicator | DigitValue


def haar_integral(f: TestFunction, sys: MonomialSystem) -> Fraction:
    """Exact integral of a test function against the normalized sphere measure."""
    p, l = sys.p, sys.l
    if isinstance(f, BallIndicator):
        r = f.radius_exp
        if r <= l:
            return Fraction(1 if (f.center - 1) % p**r == 0 else 0)
        d = (f.center - 1) % p**r
        if d == 0 or int_valuation(d, p) != l:
            return Fraction(0)  # ball misses the sphere
        return Fraction(1, (p - 1) * p ** (r - l - 1))
    if isinstance(f, DigitValue):
        j = f.position
        if j < l:
            return Fraction(1 if j == 0 else 0)
        if j == l:
            return Fraction(p, 2)  # first sphere digit is uniform on 1..p-1
        return Fraction(p - 1, 2)  # deeper digits are uniform on 0..p-1
    raise DomainError(f"unsupported test function {f!r}")


def orbit_residues(sys: MonomialSystem, x0: PadicInt, steps: int) -> list[int]:
    """The first ``steps`` orbit points of x0 as residues at x0's precision."""
    if steps < 1:
        raise DomainError("need at least one step")
    _require_on_sphere(sys, x0)
    m = x0.modulus
    out = [x0.residue]
    r = x0.residue
    for _ in range(steps - 1):
        r = pow(r, sys.n, m)
        out.append(r)
    return out


def _require_on_sphere(sys: MonomialSystem, x0: PadicInt) -> None:
    if x0.prime != sys.p:
        raise DomainError(f"point lives at p = {x0.prime}, system at p = {sys.p}")
    if x0.precision <= sys.l:
        raise DomainError(
            f"precision {x0.precision} cannot certify sphere membership at level {sys.l}"
        )
    if not x0.dist(PadicInt.one(sys.p, x0.precision)).equals_exactly(sys.l):
        raise DomainError(
            f"residue {x0.residue} is not on the sphere |x - 1| = {sys.p}^-{sys.l}"
        )


@dataclass(frozen=True, slots=True)
class BirkhoffResult:
    average: Fraction
    haar_value: Fraction
    steps: int

    @property
    def matches_haar(self) -> bool:
        return self.average == self.haar_value


def birkhoff_average(sys: MonomialSystem, x0: PadicInt, f: TestFunction, steps: int) -> BirkhoffResult:
    """Exact rational time average of f over the orbit prefix, plus the space
    average it should converge to."""
    if isinstance(f, BallIndicator) and f.radius_exp > x0.precision:
        raise DomainError("indicator is finer than the point's precision")
    if isinstance(f, DigitValue) and f.position >= x0.precision:
        raise DomainError("digit lies beyond the point's precision")
    orbit = orbit_residues(sys, x0, steps)
    total = sum(f.evaluate(r, sys.p) for r in orbit)
    return BirkhoffResult(Fraction(total, steps), haar_integral(f, sys), steps)


# -- fixed points and conjugation ---------------------------------------------


def fixed_points(sys: MonomialSystem, precision: int) -> list[PadicInt]:
    """All unit fixed points of x -> x^n: the (n-1)-th roots of unity."""
    return roots_of_unity(sys.n - 1, sys.p, precision)


def conjugated_verdict(sys: MonomialSystem, a: PadicInt, k_max: int = 4) -> Verdict:
    """Verdict for x -> x^n on the sphere around a fixed point a.

    Multiplication by a carries the standard partition to the sphere around a,
    where the ball a*c maps to a*c^n: a^-1 (a*c)^n = c^n because a^n = a, which
    the check below asserts at a's precision >= l + k_max, so modulo every
    p^(l+k). The base permutations thus go to the assembler of
    :func:`minimality_verdict`, which centres the invariant ball at a*c.
    """
    if a.prime != sys.p:
        raise DomainError("fixed point lives at a different prime")
    if a.precision < sys.l + k_max:
        raise DomainError(
            f"fixed point needs at least {sys.l + k_max} digits to analyze depth {k_max}"
        )
    if not a.is_unit():
        raise DomainError("conjugation needs a unit fixed point")
    if a.pow_nat(sys.n) != a:
        raise DomainError(f"{a.residue} is not a fixed point of x -> x^{sys.n}")
    if k_max < 2:
        raise DomainError("k_max must be at least 2")
    return _verdict_from_depths(sys, k_max, a.residue)


# -- the product system never mixes -------------------------------------------


@dataclass(frozen=True, slots=True)
class ProductReport:
    depth: int
    ball_count: int
    pair_count: int
    cycle_count: int
    cycle_length_multiplicities: tuple[tuple[int, int], ...]  # (length, how many)
    product_transitive: bool
    log_points_checked: int
    log_linearity_ok: bool
    log_ratio_pairs_checked: int
    log_ratio_invariant: bool


def product_nonmixing_report(sys: MonomialSystem, depth: int) -> ProductReport:
    """Cycle structure of the product map on ball pairs, plus the invariant
    the product preserves: the class of log x / log y.

    The product cycles come from the M-ball permutation's cycle type: a
    pair of cycles of lengths a and b splits into gcd(a, b) cycles of length
    lcm(a, b), so no pair is enumerated. A disagreement with the closed form,
    M^2/o cycles of length o = ord(n mod p^depth), raises IntegrityError.
    Since o <= M the product is never transitive once M >= 2 -- the
    obstruction to weak mixing at the permutation level. The log-ratio class
    mod p^(l+depth) cannot move because one step multiplies both logarithms
    by n; that linearity is checked pointwise, and the ratio classes over all
    pairs, on up to ``_LOG_POINT_CAP`` sphere points.
    """
    perm = induced_permutation(sys, depth)
    m_count = perm.partition.ball_count
    mult = kernels.pair_cycle_info(perm.cycle_type)
    order = multiplicative_order(sys.n, sys.p, depth)
    if mult != ((order, m_count * m_count // order),):
        raise IntegrityError(
            f"product cycles {mult} disagree with the order {order} of n mod p^{depth}"
        )
    cycle_count = sum(count for _, count in mult)

    # Log ratios live one level deeper than the balls: working precision
    # 2l + depth determines the ratio class mod p^(l+depth) exactly.
    p, l, n = sys.p, sys.l, sys.n
    kw = 2 * l + depth
    class_mod = p ** (l + depth)
    step = p**l
    sphere = BallPartition(p, l, l + depth)
    points = [sphere.ball_center(i) for i in range(min(_LOG_POINT_CAP, sphere.ball_count))]
    logs = padic_log_residues(p, kw, points + [pow(r, n, p**kw) for r in points])
    for value in logs:
        if value % step != 0 or (value // step) % p == 0:
            raise IntegrityError("sphere point has a logarithm off the image sphere")
    shifted = [(lg // step) % class_mod for lg in logs[: len(points)]]
    shifted_next = [(lg // step) % class_mod for lg in logs[len(points) :]]
    linearity_ok = all(
        sn == (n * s) % class_mod for s, sn in zip(shifted, shifted_next)
    )
    # For units, s_i/s_j = sn_i/sn_j for all pairs iff sn_i/s_i is constant.
    ratio_classes = {sn * pow(s, -1, class_mod) % class_mod for s, sn in zip(shifted, shifted_next)}
    ratio_ok = len(ratio_classes) <= 1
    return ProductReport(
        depth,
        m_count,
        m_count * m_count,
        cycle_count,
        mult,
        cycle_count == 1,
        len(points),
        linearity_ok,
        len(points) * len(points),
        ratio_ok,
    )


# -- perturbed systems ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Polynomial:
    """A polynomial with p-adic integer coefficients, lowest degree first."""

    coefficients: tuple[PadicInt, ...]

    def __post_init__(self) -> None:
        primes = {c.prime for c in self.coefficients}
        precisions = {c.precision for c in self.coefficients}
        if len(primes) > 1 or len(precisions) > 1:
            raise DomainError("polynomial coefficients must share prime and precision")

    @classmethod
    def from_integers(cls, coeffs: list[int], p: int, precision: int) -> "Polynomial":
        return cls(tuple(PadicInt.from_integer(c, p, precision) for c in coeffs))

    def evaluate_residue(self, residues, modulus: int) -> np.ndarray:
        """Horner evaluation over an array of residues mod ``modulus``, in the dtype
        of :func:`kernels.power_map_any`; coefficients must carry enough digits."""
        x = kernels.power_map_any(residues, 1, modulus)  # the residues reduced, in that dtype
        acc = np.zeros_like(x)
        for c in reversed(self.coefficients):
            if modulus > c.modulus:
                raise DomainError(
                    f"coefficient precision {c.precision} too coarse for modulus {modulus}"
                )
            acc = (acc * x + c.residue % modulus) % modulus
        return acc


def _psi(n: int, q: Polynomial, residues, modulus: int) -> np.ndarray:
    """x^n + q(x) mod ``modulus`` over an array of residues: the one psi_q."""
    image = kernels.power_map_any(residues, n, modulus)
    return (image + q.evaluate_residue(residues, modulus)) % modulus


@dataclass(frozen=True, slots=True)
class PerturbedSystem:
    """x -> x^n + q(x) with every coefficient of q divisible by p^(l+2).

    The coefficient condition makes q vanish mod p^(l+2) everywhere on Z_p,
    which keeps the sphere invariant; it is checked at construction and
    re-verified pointwise on the sphere by :func:`perturbed_analysis`.
    """

    base: MonomialSystem
    q: Polynomial

    def __post_init__(self) -> None:
        need = self.base.l + 2
        for i, c in enumerate(self.q.coefficients):
            if c.prime != self.base.p:
                raise DomainError("perturbation coefficients must live at the system prime")
            if not c.valuation().at_least(need):
                raise DomainError(
                    f"coefficient {i} of q has valuation {c.valuation()}, "
                    f"below the required {need}"
                )

    def apply(self, residues, modulus: int) -> np.ndarray:
        return _psi(self.base.n, self.q, residues, modulus)


@dataclass(frozen=True, slots=True)
class CongruenceMismatch:
    start_residue: int
    step: int
    observed: int
    predicted: int


@dataclass(frozen=True, slots=True)
class PerturbationReport:
    invariance_by_depth: tuple[tuple[int, bool], ...]
    pointwise_vanishing_ok: bool
    congruence_asserted: bool  # True when l >= 2, where the congruence is exact
    congruence_checked: int
    congruence_mismatches: tuple[CongruenceMismatch, ...]
    congruence_mismatch_count: int
    depth2_ball_count: int
    depth2_transitive: bool
    generator: bool

    @property
    def necessary_condition_agrees(self) -> bool:
        return self.depth2_transitive == self.generator

    @property
    def congruence_ok(self) -> bool:
        return self.congruence_mismatch_count == 0


def perturbed_analysis(psys: PerturbedSystem, k_max: int = 3, n_max: int = 6) -> PerturbationReport:
    """Sphere invariance, the digit-propagation congruence, and the necessary
    ergodicity condition for a perturbed power map.

    The congruence states that N steps multiply the leading two sphere digits
    by n^N modulo p^(l+2). It is exact for l >= 2; at l = 1 the square of the
    leading digit term survives the modulus, so mismatches there are reported
    as observations rather than failures.
    """
    sys = psys.base
    p, l, n = sys.p, sys.l, sys.n
    if k_max < 2:
        raise DomainError("k_max must be at least 2 to reach the depth-2 balls")

    depths = _depth_centers(sys, k_max)
    part2, reps2 = depths[1]
    mod2 = part2.modulus
    # Pointwise re-verification of the vanishing condition on the sphere.
    pointwise_ok = not psys.q.evaluate_residue(reps2, mod2).any()

    invariance = []
    for part, centers in depths:
        ranked = _ball_ranks(part, psys.apply(centers, part.modulus))
        if part.depth == 2:
            ranked2 = ranked
        invariance.append((part.depth, bool(ranked[1].all())))

    # N steps multiply t = a + b*p, the leading two sphere digits of a start
    # r = 1 + t*p^l, by n^N mod p^2.
    t = (reps2 - 1) // p**l
    found = []  # (start index, step, observed, predicted), up to _MISMATCH_LIMIT per step
    y, mismatch_count = reps2, 0
    for step in range(1, n_max + 1):
        y = psys.apply(y, mod2)
        predicted = 1 + pow(n, step, p * p) * t % (p * p) * p**l
        miss = np.flatnonzero(y != predicted)
        mismatch_count += miss.size
        found += [(i, step, int(y[i]), int(predicted[i])) for i in miss[:_MISMATCH_LIMIT]]
    mismatches = [CongruenceMismatch(int(reps2[i]), *r) for i, *r in sorted(found)[:_MISMATCH_LIMIT]]

    # Necessary condition: the depth-2 ball action must be transitive exactly
    # when n generates the units mod p^2. Since q vanishes mod p^(l+2), this
    # action coincides with the unperturbed one; it is rebuilt from psi_q here.
    depth2 = _permutation_from_ranks(part2, *ranked2)

    return PerturbationReport(
        tuple(invariance),
        pointwise_ok,
        l >= 2,
        reps2.size * max(n_max, 0),
        tuple(mismatches),
        mismatch_count,
        part2.ball_count,
        depth2.is_transitive,
        is_generator_mod_p2(n, p),
    )


def perturbed_ball_map(psys: PerturbedSystem, depth: int) -> PermutationAction:
    """The permutation psi_q induces on depth-k balls (equals the unperturbed
    one whenever depth <= 2, and for any depth when q = 0)."""
    partition = sphere_partition(psys.base, depth)
    images = psys.apply(partition.centers(), partition.modulus)
    return _permutation_from_ranks(partition, *_ball_ranks(partition, images))


def observe_marginal_perturbation(
    p: int,
    n: int,
    l: int,
    coefficients: list[int],
    k_max: int = 3,
) -> dict:
    """Observational sweep for perturbations only one digit deeper than the
    sphere level (coefficient valuations >= l+1 but not necessarily l+2).

    Whether such perturbations can change the ergodicity verdict is an open
    experimental question; this tabulates what actually happens at desk scale
    and deliberately renders no verdict.
    """
    sys = MonomialSystem(p, n, l)
    need = l + 1
    precision = l + k_max + 2
    poly = Polynomial.from_integers(coefficients, p, precision)
    for i, c in enumerate(poly.coefficients):
        if not c.valuation().at_least(need):
            raise DomainError(
                f"coefficient {i} has valuation {c.valuation()}, below the marginal level {need}"
            )

    observations: dict = {
        "p": p,
        "n": n,
        "l": l,
        "coefficients": list(coefficients),
        "note": "observational sweep only; no ergodicity verdict is implied",
    }
    per_depth = []
    for partition, centers in _depth_centers(sys, k_max):
        ranks, on_sphere = _ball_ranks(partition, _psi(n, poly, centers, partition.modulus))
        off_sphere = int((~on_sphere).sum())
        entry = {
            "depth": partition.depth,
            "ball_count": partition.ball_count,
            "images_off_sphere": off_sphere,
        }
        if off_sphere == 0:
            try:
                perm = _permutation_from_ranks(partition, ranks, on_sphere)
            except IntegrityError:
                entry["ball_map_bijective"] = False
            else:
                entry["ball_map_bijective"] = True
                entry["cycle_lengths"] = sorted(perm.cycle_lengths.tolist())
                entry["transitive_observed"] = perm.is_transitive
        per_depth.append(entry)
    observations["per_depth"] = per_depth
    observations["generator_mod_p2"] = is_generator_mod_p2(n, p)
    return observations

