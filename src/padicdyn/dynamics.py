"""Dynamics of x -> x^n on the sphere of radius p^-l around 1.

The sphere splits, for each depth k >= 1, into (p-1)p^(k-1) disjoint balls of
radius p^-(l+k); the power map permutes them because it is an isometry there.
Everything this module reports reduces to exact statements about those
permutations: the minimality / unique-ergodicity / ergodicity verdict, exact
rational Birkhoff averages against the ball measure, conjugation to spheres
around other fixed points, the never-mixing product construction, and the
behaviour of additively perturbed power maps.

Residue sweeps run through the numpy int64 kernels when the modulus permits
and fall back to Python big ints otherwise. Every ball permutation, whatever
map it comes from, is checked and scanned by one routine,
:func:`_permutation_from_images`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import kernels
from .analysis import padic_log, roots_of_unity
from .errors import DomainError, IntegrityError, ResourceError
from .padic import PadicInt, Sphere, int_valuation, is_prime
from .unitgroups import (
    UnitGroupReport,
    generated_set,
    is_generator_mod_p2,
    multiplicative_order,
    unit_group_report,
)

DEFAULT_BALL_CAP = 10**6
DEFAULT_PAIR_CAP = 5 * 10**6
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

    def sphere(self, precision: int) -> Sphere:
        return Sphere(PadicInt.one(self.p, precision), self.l)


@dataclass(frozen=True, slots=True)
class BallPartition:
    """The depth-k splitting of the sphere into balls of radius p^-(l+k).

    Representatives are the residues 1 + t*p^l mod p^(l+k) with t in [1, p^k)
    not divisible by p, listed ascending; each is the least point of its ball.
    """

    prime: int
    level: int
    depth: int
    representatives: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.prime ** (self.level + self.depth)

    @property
    def ball_count(self) -> int:
        return len(self.representatives)

    def index_of(self, residue: int) -> int:
        """Rank of the ball containing ``residue`` (must lie on the sphere)."""
        t, r = divmod(residue % self.modulus - 1, self.prime**self.level)
        if r != 0 or t % self.prime == 0 or not 0 < t < self.prime**self.depth:
            raise DomainError(f"residue {residue} is not on the sphere at this depth")
        return (t - 1) - (t - 1) // self.prime

    def ball_center(self, index: int) -> int:
        return self.representatives[index]


def sphere_partition(sys: MonomialSystem, depth: int, cap: int = DEFAULT_BALL_CAP) -> BallPartition:
    """Enumerate the depth-k partition representatives, ascending."""
    if depth < 1:
        raise DomainError("depth must be at least 1")
    p, l = sys.p, sys.l
    count = (p - 1) * p ** (depth - 1)
    if count > cap:
        raise ResourceError(f"partition of {count} balls exceeds cap {cap}")
    step = p**l
    reps = tuple(1 + t * step for t in range(1, p**depth) if t % p != 0)
    if len(reps) != count:
        raise IntegrityError("partition enumeration lost representatives")
    return BallPartition(p, l, depth, reps)


@dataclass(frozen=True, slots=True)
class PermutationAction:
    """The permutation the power map induces on a ball partition."""

    partition: BallPartition
    mapping: tuple[int, ...]
    cycle_starts: tuple[int, ...]
    cycle_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.cycle_lengths) != len(self.mapping):
            raise IntegrityError("cycle lengths do not cover the partition")

    @property
    def is_transitive(self) -> bool:
        return len(self.cycle_lengths) == 1

    def cycle_members(self, which: int) -> tuple[int, ...]:
        """Indices of one cycle, starting from its least member."""
        start = self.cycle_starts[which]
        out = [start]
        j = self.mapping[start]
        while j != start:
            out.append(j)
            j = self.mapping[j]
        return tuple(out)

    def fixed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.mapping) if i == j)


def _rank_of_t(t, p):
    """Rank of t among 1..p^k-1 skipping multiples of p (array or scalar)."""
    return (t - 1) - (t - 1) // p


def _permutation_from_images(partition: BallPartition, images) -> PermutationAction:
    """Check the images of a partition's representatives and return the
    permutation they induce, with its cycle structure.

    ``images[i]`` is the image of representative i, reduced mod the partition
    modulus (int64 array or Python ints). The dtype follows the modulus, not
    the values: left to itself numpy reads a mix of ints below and above 2**63
    as float64. Raises IntegrityError when an image leaves the sphere or the
    ball map is not a bijection.
    """
    p, step = partition.prime, partition.prime**partition.level
    dtype = np.int64 if partition.modulus <= _INT64_MAX else object
    t = np.asarray(images, dtype=dtype) - 1
    on_sphere = t % step == 0
    t //= step
    if not on_sphere.all() or (t % p == 0).any():
        raise IntegrityError("a ball image left the sphere")
    mapping = _rank_of_t(t, p).astype(np.int64, copy=False)
    counts = np.bincount(mapping, minlength=partition.ball_count)
    if (counts != 1).any():
        raise IntegrityError("the ball map is not a bijection")
    starts, lengths = kernels.cycle_info(mapping)
    return PermutationAction(
        partition, tuple(mapping.tolist()), tuple(starts.tolist()), tuple(lengths.tolist())
    )


def induced_permutation(sys: MonomialSystem, depth: int, cap: int = DEFAULT_BALL_CAP) -> PermutationAction:
    """The permutation of depth-k balls, with its cycle structure.

    A representative c moves to the ball of c^n mod p^(l+k); the result is a
    bijection because the map is an isometry on the sphere.
    """
    partition = sphere_partition(sys, depth, cap)
    images = kernels.power_map_any(partition.representatives, sys.n, partition.modulus)
    return _permutation_from_images(partition, images)


# -- verdicts ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DepthCycles:
    depth: int
    ball_count: int
    cycle_lengths: tuple[int, ...]

    @property
    def transitive(self) -> bool:
        return len(self.cycle_lengths) == 1


@dataclass(frozen=True, slots=True)
class VerdictEvidence:
    """What the verdict was computed from."""

    generator: UnitGroupReport
    generated_mod_p2: tuple[int, ...]
    depths: tuple[DepthCycles, ...]
    invariant_ball: tuple[int, int] | None  # (depth, center residue), when one exists


@dataclass(frozen=True, slots=True)
class Verdict:
    """Minimality, unique ergodicity, and ergodicity always rise and fall together;
    a Verdict whose three flags disagree cannot be constructed."""

    minimal: bool
    uniquely_ergodic: bool
    ergodic: bool
    evidence: VerdictEvidence

    def __post_init__(self) -> None:
        if not (self.minimal == self.uniquely_ergodic == self.ergodic):
            raise IntegrityError("verdict flags must coincide")


def _verdict_from_depths(sys: MonomialSystem, depth_perms: list[PermutationAction]) -> Verdict:
    gen_report = unit_group_report(sys.n, sys.p, 2)
    gen = gen_report.is_generator
    depths = []
    invariant_ball = None
    for perm in depth_perms:
        k = perm.partition.depth
        depths.append(DepthCycles(k, perm.partition.ball_count, perm.cycle_lengths))
        if gen and not perm.is_transitive:
            raise IntegrityError(
                f"generator at ({sys.p}, {sys.n}) but depth {k} is not transitive"
            )
        # Depth 1 only sees the generated set mod p, so a non-generator may
        # still be transitive there; levels >= 2 decide the criterion.
        if not gen and k >= 2 and perm.is_transitive:
            raise IntegrityError(
                f"non-generator at ({sys.p}, {sys.n}) but depth {k} is transitive"
            )
        if invariant_ball is None and not perm.is_transitive:
            fixed = perm.fixed_indices()
            if fixed:
                invariant_ball = (k, perm.partition.ball_center(fixed[0]))
    evidence = VerdictEvidence(
        gen_report,
        tuple(sorted(generated_set(sys.n, sys.p**2))),
        tuple(depths),
        invariant_ball,
    )
    return Verdict(gen, gen, gen, evidence)


def minimality_verdict(sys: MonomialSystem, k_max: int = 4, cap: int = DEFAULT_BALL_CAP) -> Verdict:
    """Decide minimality two independent ways and cross-check them.

    The generator test mod p^2 gives the criterion; transitivity of the
    induced permutation at every depth k <= k_max re-derives it from the
    orbit structure. Disagreement raises IntegrityError.
    """
    if k_max < 2:
        raise DomainError("k_max must be at least 2; depth 1 alone cannot decide")
    perms = [induced_permutation(sys, k, cap) for k in range(1, k_max + 1)]
    return _verdict_from_depths(sys, perms)


# -- measures and averages ----------------------------------------------------


def haar_ball_measure(sys: MonomialSystem, depth: int) -> Fraction:
    """Normalized measure of one depth-k ball inside the sphere."""
    if depth < 1:
        raise DomainError("depth must be at least 1")
    return Fraction(1, (sys.p - 1) * sys.p ** (depth - 1))


@dataclass(frozen=True, slots=True)
class BallIndicator:
    """1 on the residues congruent to ``center`` mod p^radius_exp, else 0."""

    center: int
    radius_exp: int

    def evaluate(self, residue: int, p: int) -> int:
        return 1 if (residue - self.center) % p**self.radius_exp == 0 else 0


@dataclass(frozen=True, slots=True)
class DigitValue:
    """The base-p digit at ``position`` of the point's residue."""

    position: int

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
        if j < 0:
            raise DomainError("digit positions are non-negative")
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
    orbit = orbit_residues(sys, x0, steps)
    total = sum(f.evaluate(r, sys.p) for r in orbit)
    return BirkhoffResult(Fraction(total, steps), haar_integral(f, sys), steps)


# -- fixed points and conjugation ---------------------------------------------


def fixed_points(sys: MonomialSystem, precision: int) -> list[PadicInt]:
    """All unit fixed points of x -> x^n: the (n-1)-th roots of unity."""
    return roots_of_unity(sys.n - 1, sys.p, precision)


def conjugated_verdict(
    sys: MonomialSystem, a: PadicInt, k_max: int = 4, cap: int = DEFAULT_BALL_CAP
) -> Verdict:
    """Verdict for x -> x^n on the sphere around a fixed point a.

    Multiplication by a carries the standard partition to one of the sphere
    around a; the induced permutations there must give exactly the verdict of
    the base system, which is cross-checked before returning.
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

    base = minimality_verdict(sys, k_max, cap)
    depths = []
    invariant_ball = None
    for k in range(1, k_max + 1):
        std = sphere_partition(sys, k, cap)
        m = std.modulus
        a_res = a.residue % m
        a_inv = pow(a_res, -1, m)
        # The ball a*c maps to (a*c)^n; dividing by a brings the image back to
        # standard coordinates, where it is ranked like any other image.
        images = [a_inv * pow(a_res * c % m, sys.n, m) % m for c in std.representatives]
        perm = _permutation_from_images(std, images)
        depths.append(DepthCycles(k, std.ball_count, perm.cycle_lengths))
        if invariant_ball is None and not perm.is_transitive:
            fixed = perm.fixed_indices()
            if fixed:
                invariant_ball = (k, min(a_res * std.representatives[i] % m for i in fixed))
        if k >= 2 and perm.is_transitive != base.minimal:
            raise IntegrityError(
                f"conjugated dynamics at depth {k} disagrees with the base verdict"
            )
    evidence = VerdictEvidence(
        base.evidence.generator,
        base.evidence.generated_mod_p2,
        tuple(depths),
        invariant_ball,
    )
    return Verdict(base.minimal, base.uniquely_ergodic, base.ergodic, evidence)


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


def product_nonmixing_report(
    sys: MonomialSystem,
    depth: int,
    cap: int = DEFAULT_BALL_CAP,
    log_point_cap: int = 144,
) -> ProductReport:
    """Cycle structure of the product map on ball pairs, plus the invariant
    the product preserves: the class of log x / log y.

    The product cycles come from the M-ball permutation's cycle lengths: a
    pair of cycles of lengths a and b splits into gcd(a, b) cycles of length
    lcm(a, b), so no pair is enumerated. A disagreement with the closed form,
    M^2/o cycles of length o = ord(n mod p^depth), raises IntegrityError.
    Since o <= M the product is never transitive once M >= 2 -- the
    obstruction to weak mixing at the permutation level. The log-ratio class
    mod p^(l+depth) cannot move because one step multiplies both logarithms
    by n; that linearity is checked pointwise, and the ratio classes over all
    pairs, on up to ``log_point_cap`` sphere points.
    """
    perm = induced_permutation(sys, depth, cap)
    m_count = perm.partition.ball_count
    lengths, counts = kernels.pair_cycle_info(perm.cycle_lengths)
    mult = tuple(zip(lengths.tolist(), counts.tolist()))
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
    mod_w = p**kw
    step = p**l
    points: list[int] = []
    t = 1
    while len(points) < log_point_cap and t < p ** (l + depth):
        if t % p != 0:
            points.append(1 + t * step)
        t += 1
    shifted = []
    shifted_next = []
    for r in points:
        lg = padic_log(PadicInt(p, kw, r)).residue
        lg_next = padic_log(PadicInt(p, kw, pow(r, n, mod_w))).residue
        for value in (lg, lg_next):
            if value % step != 0 or (value // step) % p == 0:
                raise IntegrityError("sphere point has a logarithm off the image sphere")
        shifted.append((lg // step) % class_mod)
        shifted_next.append((lg_next // step) % class_mod)
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

    @property
    def is_zero(self) -> bool:
        return all(c.residue == 0 for c in self.coefficients)

    def evaluate_residue(self, r: int, modulus: int) -> int:
        """Horner evaluation mod ``modulus``; coefficients must carry enough digits."""
        acc = 0
        for c in reversed(self.coefficients):
            if modulus > c.modulus:
                raise DomainError(
                    f"coefficient precision {c.precision} too coarse for modulus {modulus}"
                )
            acc = (acc * r + c.residue) % modulus
        return acc


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

    def apply(self, r: int, modulus: int) -> int:
        return (pow(r, self.base.n, modulus) + self.q.evaluate_residue(r, modulus)) % modulus


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


def perturbed_analysis(
    psys: PerturbedSystem,
    k_max: int = 3,
    n_max: int = 6,
    cap: int = DEFAULT_BALL_CAP,
    mismatch_limit: int = 20,
) -> PerturbationReport:
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

    # Pointwise re-verification of the vanishing condition on the sphere.
    mod2 = p ** (l + 2)
    part2 = sphere_partition(sys, 2, cap)
    reps2 = part2.representatives
    pointwise_ok = all(psys.q.evaluate_residue(r, mod2) == 0 for r in reps2)

    invariance = []
    for k in range(1, k_max + 1):
        mod_k = p ** (l + k)
        ok = True
        reps = reps2 if k == 2 else sphere_partition(sys, k, cap).representatives
        for r in reps:
            img = psys.apply(r, mod_k)
            d = (img - 1) % mod_k
            if d == 0 or int_valuation(d, p) != l:
                ok = False
                break
        invariance.append((k, ok))

    mismatches: list[CongruenceMismatch] = []
    mismatch_count = 0
    checked = 0
    for r in reps2:
        a = (r // p**l) % p
        b = (r // p ** (l + 1)) % p
        y = r
        for step in range(1, n_max + 1):
            y = psys.apply(y, mod2)
            predicted = (1 + pow(n, step, mod2) * (a + b * p) * p**l) % mod2
            checked += 1
            if y != predicted:
                mismatch_count += 1
                if len(mismatches) < mismatch_limit:
                    mismatches.append(CongruenceMismatch(r, step, y, predicted))

    # Necessary condition: the depth-2 ball action must be transitive exactly
    # when n generates the units mod p^2. Since q vanishes mod p^(l+2), this
    # action coincides with the unperturbed one; it is rebuilt from psi_q here.
    depth2 = _permutation_from_images(part2, [psys.apply(r, mod2) for r in reps2])

    return PerturbationReport(
        tuple(invariance),
        pointwise_ok,
        l >= 2,
        checked,
        tuple(mismatches),
        mismatch_count,
        part2.ball_count,
        depth2.is_transitive,
        is_generator_mod_p2(n, p),
    )


def perturbed_ball_map(psys: PerturbedSystem, depth: int, cap: int = DEFAULT_BALL_CAP) -> PermutationAction:
    """The permutation psi_q induces on depth-k balls (equals the unperturbed
    one whenever depth <= 2, and for any depth when q = 0)."""
    sys = psys.base
    partition = sphere_partition(sys, depth, cap)
    m = partition.modulus
    images = [psys.apply(r, m) for r in partition.representatives]
    return _permutation_from_images(partition, images)


def observe_marginal_perturbation(
    p: int,
    n: int,
    l: int,
    coefficients: list[int],
    k_max: int = 3,
    cap: int = DEFAULT_BALL_CAP,
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

    def apply(r: int, modulus: int) -> int:
        return (pow(r, n, modulus) + poly.evaluate_residue(r, modulus)) % modulus

    observations: dict = {
        "p": p,
        "n": n,
        "l": l,
        "coefficients": list(coefficients),
        "note": "observational sweep only; no ergodicity verdict is implied",
    }
    per_depth = []
    for k in range(1, k_max + 1):
        mod_k = p ** (l + k)
        partition = sphere_partition(sys, k, cap)
        images = [apply(r, mod_k) for r in partition.representatives]
        off_sphere = 0
        for img in images:
            d = (img - 1) % mod_k
            if d == 0 or int_valuation(d, p) != l:
                off_sphere += 1
        entry = {
            "depth": k,
            "ball_count": partition.ball_count,
            "images_off_sphere": off_sphere,
        }
        if off_sphere == 0:
            try:
                perm = _permutation_from_images(partition, images)
            except IntegrityError:
                entry["ball_map_bijective"] = False
            else:
                entry["ball_map_bijective"] = True
                entry["cycle_lengths"] = sorted(perm.cycle_lengths)
                entry["transitive_observed"] = perm.is_transitive
        per_depth.append(entry)
    observations["per_depth"] = per_depth
    observations["generator_mod_p2"] = is_generator_mod_p2(n, p)
    return observations


# -- the scaling law of power differences --------------------------------------


@dataclass(frozen=True, slots=True)
class ScalingViolation:
    x: int
    y: int
    observed: int
    expected: int


@dataclass(frozen=True, slots=True)
class ScalingReport:
    p: int
    n: int
    precision: int
    pairs_checked: int
    equality_pairs: int
    strict_pairs: int
    equality_required: bool
    violations: tuple[ScalingViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def isometry_scaling_check(
    p: int, n: int, K: int, pair_cap: int = DEFAULT_PAIR_CAP
) -> ScalingReport:
    """Check |x^n - y^n| = |n| |x - y| over all unit pairs at distance >= 1.

    Equality is required for odd p, and at p = 2 for odd n; at p = 2 with n
    even only the <= inequality is demanded. All valuations are capped at the
    precision K, and at most 10 violations are kept. This is the fast-path
    sweep over the int64 kernels; the oracle module re-derives the same law
    from plain integer powers.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if K < 2:
        raise DomainError("need at least two digits to see distances below 1")
    if n < 1:
        raise DomainError("the scaling law concerns positive exponents")
    m = p**K
    class_size = p ** (K - 1)
    pair_total = (p - 1) * class_size * (class_size - 1) // 2
    if pair_total > pair_cap:
        raise ResourceError(f"{pair_total} unit pairs exceed cap {pair_cap}")
    if m > kernels.INT64_SAFE_MODULUS:
        raise ResourceError(f"modulus {p}^{K} exceeds the int64 kernel range")
    vn = min(int_valuation(n, p), K)
    equality_required = p > 2 or n % 2 == 1

    equality = strict = 0
    violations: list[ScalingViolation] = []
    for c in range(1, p):
        members = np.arange(c, m, p, dtype=np.int64)
        powers = kernels.power_map(members, n, m)
        ii, jj = np.triu_indices(len(members), 1)
        diff = members[jj] - members[ii]
        vdiff = kernels.valuation_table(diff, p, K)
        dpow = (powers[jj] - powers[ii]) % m
        vpow = kernels.valuation_table(dpow, p, K)
        expected = np.minimum(vdiff + vn, K)
        eq_mask = vpow == expected
        ge_mask = vpow >= expected
        equality += int(eq_mask.sum())
        strict += int((ge_mask & ~eq_mask).sum())
        bad = ~eq_mask if equality_required else ~ge_mask
        for idx in np.flatnonzero(bad)[: 10 - len(violations)]:
            violations.append(
                ScalingViolation(
                    int(members[ii[idx]]),
                    int(members[jj[idx]]),
                    int(vpow[idx]),
                    int(expected[idx]),
                )
            )
    return ScalingReport(
        p, n, K, pair_total, equality, strict, equality_required, tuple(violations)
    )
