"""Partitions, permutations, verdicts, averages, conjugation, products, perturbations."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.ntheory import n_order

from padicdyn import dynamics, kernels
from padicdyn.dynamics import (
    BallIndicator,
    BallPartition,
    DigitValue,
    MonomialSystem,
    PerturbedSystem,
    Polynomial,
    birkhoff_average,
    conjugated_verdict,
    fixed_points,
    haar_ball_measure,
    haar_integral,
    induced_permutation,
    minimality_verdict,
    observe_marginal_perturbation,
    orbit_residues,
    perturbed_analysis,
    perturbed_ball_map,
    product_nonmixing_report,
    sphere_partition,
)
from padicdyn.errors import DomainError, IntegrityError, ResourceError
from padicdyn.padic import PadicInt, int_valuation
from padicdyn.unitgroups import is_generator_mod_p2


def test_system_validation():
    MonomialSystem(3, 2, 1)
    with pytest.raises(DomainError):
        MonomialSystem(2, 3, 1)
    with pytest.raises(DomainError):
        MonomialSystem(9, 2, 1)
    with pytest.raises(DomainError):
        MonomialSystem(3, 6, 1)  # shares a factor with p
    with pytest.raises(DomainError):
        MonomialSystem(3, 1, 1)
    with pytest.raises(DomainError):
        MonomialSystem(3, 2, 0)


# -- partitions ---------------------------------------------------------------


def test_partition_examples():
    assert sphere_partition(MonomialSystem(3, 2, 1), 1).centers().tolist() == [4, 7]
    assert sphere_partition(MonomialSystem(3, 2, 1), 2).ball_count == 6
    part = sphere_partition(MonomialSystem(5, 2, 2), 3)
    assert part.ball_count == 100


def test_partition_is_sorted_and_indexable():
    part = sphere_partition(MonomialSystem(7, 3, 1), 2)
    centers = part.centers().tolist()
    assert centers == sorted(centers)
    for i, rep in enumerate(centers):
        assert part.index_of(rep) == i
    with pytest.raises(DomainError):
        part.index_of(1)  # the center is not on the sphere
    with pytest.raises(DomainError):
        part.index_of(1 + 7 * part.prime ** part.level * part.prime)


@pytest.mark.parametrize("p,l,depth", [(19, 15, 2), (3, 40, 4), (7, 1, 3), (5, 2, 3)])
def test_partition_matches_the_filtered_enumeration(p, l, depth):
    # The first two moduli, 19^17 and 3^44, lie above 2**63.
    part = sphere_partition(MonomialSystem(p, 2, l), depth)
    step = p**l
    centers = part.centers().tolist()
    assert centers == [1 + t * step for t in range(1, p**depth) if t % p != 0]
    assert centers == sorted(centers)
    for i, rep in enumerate(centers):
        assert part.index_of(rep) == i


@pytest.mark.parametrize("p,l,depth", [(7, 1, 3), (5, 2, 2), (19, 15, 2)])
def test_batch_ball_index(p, l, depth):
    # 19^17 lies above 2**63.
    part = sphere_partition(MonomialSystem(p, 2, l), depth)
    m = part.modulus
    reps = part.centers().tolist()
    # residues are reduced mod the partition modulus first, negatives included
    residues = reps + [r + 3 * m for r in reps] + [r - m for r in reps]
    expected = list(range(part.ball_count)) * 3
    assert part.indices_of(residues).tolist() == expected
    assert [part.index_of(r) for r in residues] == expected
    off = [1, 1 + p ** (l + 1), 2 + m]  # the centre, a point inside the sphere, a point outside
    for i, bad in enumerate(off):
        message = f"^residue {bad} is not on the sphere at this depth$"
        with pytest.raises(DomainError, match=message):
            part.indices_of(reps[:2] + off[i:] + reps)  # the first off-sphere residue is named
        with pytest.raises(DomainError, match=message):
            part.index_of(bad)


def test_partition_cap():
    with pytest.raises(ResourceError, match="^partition of 2324522934 balls exceeds cap 1000000$"):
        sphere_partition(MonomialSystem(3, 2, 1), 20).centers()


def test_ball_cap_is_read_at_call_time(monkeypatch):
    sys_ = MonomialSystem(5, 2, 1)  # 4 * 5^(k-1) balls at depth k
    monkeypatch.setattr(dynamics, "DEFAULT_BALL_CAP", 100)
    assert sphere_partition(sys_, 3).centers().size == 100
    assert minimality_verdict(sys_, 3).minimal
    monkeypatch.setattr(dynamics, "DEFAULT_BALL_CAP", 99)
    for build in (lambda: sphere_partition(sys_, 3).centers(), lambda: minimality_verdict(sys_, 3)):
        with pytest.raises(ResourceError, match="^partition of 100 balls exceeds cap 99$"):
            build()



def test_ball_center_rejects_indices_off_the_partition():
    part = sphere_partition(MonomialSystem(3, 2, 1), 2)
    assert [part.ball_center(i) for i in range(6)] == [4, 7, 13, 16, 22, 25]
    assert part.ball_center(np.int64(5)) == 25
    for bad in (-1, 6, -7):
        with pytest.raises(DomainError, match=f"^ball index {bad} outside 0..5$"):
            part.ball_center(bad)


def test_partition_rejects_depth_and_level_below_one():
    for level, depth in ((0, 1), (1, 0), (-1, 2), (2, -3)):
        with pytest.raises(DomainError, match="must be at least 1$"):
            BallPartition(5, level, depth)
    with pytest.raises(DomainError, match="^depth must be at least 1$"):
        sphere_partition(MonomialSystem(5, 2, 1), 0)


def _enumerated_centers(p, l, depth):
    """The centres as an arithmetic range with every p-th entry deleted."""
    step = p**l
    residues = list(range(1 + step, 1 + p**depth * step, step))  # 1 + t*step, 0 < t < p^depth
    del residues[p - 1 :: p]  # the t divisible by p
    return residues


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 19, 23, 97]),
    st.integers(1, 45),
    st.integers(1, 5),
)
@example(19, 15, 2)  # 19^17 > 2**63
@example(3, 40, 4)  # 3^44 > 2**63
@example(3, 39, 1)  # 3^40 lies between 2**63 and 2**64
def test_partition_arithmetic_matches_the_enumeration(p, l, depth):
    assume((p - 1) * p ** (depth - 1) <= 5000)
    part = BallPartition(p, l, depth)
    centers = part.centers()
    assert centers.dtype == (np.int64 if part.modulus < 2**63 else object)
    assert centers.tolist() == _enumerated_centers(p, l, depth)
    assert part.ball_count == centers.size
    ranks, on_sphere = dynamics._ball_ranks(part, centers)
    assert on_sphere.all()
    assert np.array_equal(ranks, np.arange(part.ball_count))
    assert [part.ball_center(i) for i in range(part.ball_count)] == centers.tolist()


def test_a_partition_beyond_the_cap_is_built_and_indexed_without_enumeration():
    count = 2 * 3**42  # about 2.2e20 balls; the modulus 3^44 lies above 2**63
    tracemalloc.start()
    try:
        part = BallPartition(3, 1, 43)
        assert part.ball_count == count
        for i in (0, 1, 2, 12345678901234567, count // 2, count - 1):
            center = part.ball_center(i)
            assert center == 1 + (i + 1 + i // 2) * 3
            assert part.index_of(center) == i
        assert part.ball_center(count - 1) == part.modulus - 2
        with pytest.raises(ResourceError, match=f"^partition of {count} balls exceeds cap 1000000$"):
            part.centers()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sphere_partition(MonomialSystem(3, 2, 1), 43) == part


# -- induced permutations -----------------------------------------------------


def test_squaring_swaps_the_two_balls():
    perm = induced_permutation(MonomialSystem(3, 2, 1), 1)
    assert perm.mapping.tolist() == [1, 0]
    assert perm.cycle_lengths.tolist() == [2]
    assert perm.is_transitive


def test_fourth_power_fixes_both_balls():
    perm = induced_permutation(MonomialSystem(3, 4, 1), 1)
    assert perm.mapping.tolist() == [0, 1]
    assert perm.fixed_indices() == (0, 1)
    assert not perm.is_transitive


def test_squaring_at_depth_two_is_a_six_cycle():
    perm = induced_permutation(MonomialSystem(3, 2, 1), 2)
    assert perm.cycle_lengths == (6,)
    members = [perm.cycle_starts[0]]
    while perm.mapping[members[-1]] != members[0]:
        members.append(perm.mapping[members[-1]])
    centers = [perm.partition.ball_center(i) for i in members]
    assert centers == [4, 16, 13, 7, 22, 25]  # direct iteration of squaring mod 27


def test_permutation_matches_plain_powers():
    sys_ = MonomialSystem(7, 3, 2)
    perm = induced_permutation(sys_, 2)
    part = perm.partition
    centers = part.centers().tolist()
    for i, rep in enumerate(centers):
        img = pow(rep, 3, part.modulus)
        assert centers[perm.mapping[i]] == img


def test_colliding_ball_images_raise_integrity_error():
    part = sphere_partition(MonomialSystem(5, 2, 1), 2)
    images = part.centers().tolist()
    images[3] = images[0]
    with pytest.raises(IntegrityError, match="not a bijection"):
        dynamics._permutation_from_ranks(part, *dynamics._ball_ranks(part, images))


@pytest.mark.parametrize("bad", [0, 1, 1 + 5**3])  # 1 + p^(l+1) lies at distance p^-(l+1)
def test_off_sphere_ball_images_raise_integrity_error(bad):
    part = sphere_partition(MonomialSystem(5, 2, 2), 2)
    images = part.centers().tolist()
    images[7] = bad
    with pytest.raises(IntegrityError, match="left the sphere"):
        dynamics._permutation_from_ranks(part, *dynamics._ball_ranks(part, images))


def test_ball_ranks_flag_off_sphere_residues_beyond_int64():
    part = sphere_partition(MonomialSystem(3, 2, 40), 2)  # modulus 3^42 > 2**63
    reps = part.centers().tolist()
    off = [0, 1, 1 + 3**41, 1 + 2 * 3**41]  # the last two lie above 2**63
    assert max(reps) > 2**63 and min(off[2:]) > 2**63
    ranks, on_sphere = dynamics._ball_ranks(part, reps + off)
    assert ranks.dtype == np.int64
    assert on_sphere.tolist() == [True] * len(reps) + [False] * len(off)
    assert ranks[: len(reps)].tolist() == list(range(len(reps)))


@pytest.mark.parametrize("p,n,l,k", [(7, 3, 1, 2), (7, 8, 1, 1), (3, 2, 40, 2)])  # 3^42 > 2**63
def test_permutation_fields_are_int64_arrays(p, n, l, k):
    perm = induced_permutation(MonomialSystem(p, n, l), k)
    for field in (perm.mapping, perm.cycle_starts, perm.cycle_lengths):
        assert isinstance(field, np.ndarray) and field.dtype == np.int64
    assert perm.mapping.size == perm.partition.ball_count
    assert all(type(i) is int for i in perm.fixed_indices())


def test_big_modulus_python_path_agrees(monkeypatch):
    sys_ = MonomialSystem(3, 2, 1)
    fast = induced_permutation(sys_, 3)
    monkeypatch.setattr(kernels, "INT64_SAFE_MODULUS", 10)
    slow = induced_permutation(sys_, 3)
    assert slow.mapping.tolist() == fast.mapping.tolist()
    assert slow.cycle_lengths.tolist() == fast.cycle_lengths.tolist()


# -- verdicts -------------------------------------------------------------------


def test_verdict_squaring_is_minimal():
    v = minimality_verdict(MonomialSystem(3, 2, 1), 4)
    assert v.minimal and v.uniquely_ergodic and v.ergodic
    assert v.evidence.generator.element_order == 6
    assert all(d.transitive for d in v.evidence.depths)
    assert v.evidence.invariant_ball is None


def test_verdict_fourth_power_is_not_minimal():
    v = minimality_verdict(MonomialSystem(3, 4, 1), 4)
    assert not (v.minimal or v.uniquely_ergodic or v.ergodic)
    assert v.evidence.generated_mod_p2.tolist() == [1, 4, 7]
    assert v.evidence.invariant_ball == (1, 4)  # the ball of radius 1/9 around 4


def test_verdict_seventeen_cube():
    v = minimality_verdict(MonomialSystem(17, 3, 1), 3)
    assert v.minimal
    assert v.evidence.generator.element_order == 272 == 17 * 16


def test_verdict_needs_depth_two():
    with pytest.raises(DomainError):
        minimality_verdict(MonomialSystem(3, 2, 1), 1)


def test_primitive_root_mod_p_only_case():
    # 8 generates the units mod 3 but not mod 9: depth 1 is transitive,
    # all deeper levels are not, and the verdict is negative without tripping
    # the internal cross-check.
    v = minimality_verdict(MonomialSystem(3, 8, 1), 3)
    assert not v.minimal
    depths = {d.depth: d.transitive for d in v.evidence.depths}
    assert depths[1] is True and depths[2] is False and depths[3] is False


def test_verdict_criterion_sweep():
    # transitivity at every depth <= 3 coincides with the generator test
    for p in (3, 5, 7, 13, 17):
        for l in (1, 2):
            for n in range(2, p * p):
                if n % p == 0:
                    continue
                v = minimality_verdict(MonomialSystem(p, n, l), 3)
                assert v.minimal == is_generator_mod_p2(n, p)


def test_measure_preservation_counting_form():
    # pulling a depth-k ball back one extra digit hits exactly p residues
    for p, n, l in ((3, 2, 1), (3, 4, 1), (5, 2, 1), (7, 3, 2)):
        sys_ = MonomialSystem(p, n, l)
        for k in (1, 2):
            fine = sphere_partition(sys_, k + 1)
            coarse = sphere_partition(sys_, k)
            hits = {i: 0 for i in range(coarse.ball_count)}
            for r in fine.centers().tolist():
                img = pow(r, n, fine.modulus) % coarse.modulus
                hits[coarse.index_of(img)] += 1
            assert set(hits.values()) == {p}


# -- measures and averages ---------------------------------------------------------


def test_haar_ball_measures():
    assert haar_ball_measure(MonomialSystem(3, 2, 1), 1) == Fraction(1, 2)
    assert haar_ball_measure(MonomialSystem(3, 2, 1), 2) == Fraction(1, 6)
    assert haar_ball_measure(MonomialSystem(5, 2, 1), 3) == Fraction(1, 100)


def test_haar_integral_of_digits():
    sys_ = MonomialSystem(5, 2, 2)
    assert haar_integral(DigitValue(0), sys_) == 1
    assert haar_integral(DigitValue(1), sys_) == 0
    assert haar_integral(DigitValue(2), sys_) == Fraction(5, 2)
    assert haar_integral(DigitValue(3), sys_) == Fraction(4, 2)


def test_haar_integral_of_balls():
    sys_ = MonomialSystem(3, 2, 1)
    assert haar_integral(BallIndicator(4, 2), sys_) == Fraction(1, 2)
    assert haar_integral(BallIndicator(2, 2), sys_) == 0  # off the sphere
    assert haar_integral(BallIndicator(1, 1), sys_) == 1  # contains the sphere


def test_test_functions_reject_negative_indices():
    with pytest.raises(DomainError, match="radius exponents are non-negative"):
        BallIndicator(4, -1)
    with pytest.raises(DomainError, match="digit positions are non-negative"):
        DigitValue(-1)


def test_orbit_and_alternating_average():
    sys_ = MonomialSystem(3, 2, 1)
    x0 = PadicInt.from_integer(4, 3, 4)
    orbit = orbit_residues(sys_, x0, 6)
    assert orbit == [4, 16, 13, 7, 49, 52]
    assert [r % 9 for r in orbit] == [4, 7, 4, 7, 4, 7]
    res = birkhoff_average(sys_, x0, BallIndicator(4, 2), 2)
    assert res.average == Fraction(1, 2) == res.haar_value


def test_trapped_orbit_breaks_the_average():
    sys_ = MonomialSystem(3, 4, 1)
    x0 = PadicInt.from_integer(4, 3, 4)
    for steps in (1, 5, 10):
        res = birkhoff_average(sys_, x0, BallIndicator(7, 2), steps)
        assert res.average == 0 != res.haar_value


def test_full_cycle_average_is_exactly_haar():
    # on a minimal system, M steps visit every depth-k ball exactly once
    for p, n, l in ((3, 2, 1), (5, 2, 1), (7, 3, 1)):
        sys_ = MonomialSystem(p, n, l)
        for k in (1, 2):
            part = sphere_partition(sys_, k)
            m_count = part.ball_count
            for x0_res in part.centers().tolist():
                x0 = PadicInt(p, l + k, x0_res)
                res = birkhoff_average(sys_, x0, BallIndicator(part.ball_center(0), l + k), m_count)
                assert res.average == Fraction(1, m_count) == res.haar_value


def test_digit_average_over_full_cycle():
    sys_ = MonomialSystem(3, 2, 1)
    part = sphere_partition(sys_, 2)
    x0 = PadicInt(3, 3, 4)
    res = birkhoff_average(sys_, x0, DigitValue(1), part.ball_count)
    assert res.average == Fraction(3, 2) == res.haar_value


def test_digit_beyond_the_precision_is_rejected():
    # digit 7 of a residue mod 5^4 always reads 0, against a haar value of 2
    sys_ = MonomialSystem(5, 2, 1)
    x0 = PadicInt.from_integer(6, 5, 4)
    for position in (4, 7):
        with pytest.raises(DomainError):
            birkhoff_average(sys_, x0, DigitValue(position), 10)
    assert birkhoff_average(sys_, x0, DigitValue(3), 10).haar_value == 2


def test_orbit_validation():
    sys_ = MonomialSystem(3, 2, 1)
    with pytest.raises(DomainError):
        orbit_residues(sys_, PadicInt.from_integer(10, 3, 4), 3)  # distance 3^-2
    with pytest.raises(DomainError):
        orbit_residues(sys_, PadicInt.from_integer(4, 3, 4), 0)
    with pytest.raises(DomainError):
        orbit_residues(sys_, PadicInt.from_integer(4, 3, 1), 2)  # too coarse
    with pytest.raises(DomainError):
        orbit_residues(sys_, PadicInt.from_integer(4, 5, 4), 2)  # wrong prime


# -- fixed points and conjugation -----------------------------------------------------


def test_fixed_points_of_cubing_mod_seven():
    pts = [a.residue for a in fixed_points(MonomialSystem(7, 3, 1), 3)]
    brute = [a for a in range(343) if a % 7 != 0 and pow(a, 3, 343) == a]
    assert pts == brute == [1, 342]


def test_fixed_points_of_squaring_are_trivial():
    for p in (3, 5, 11):
        pts = fixed_points(MonomialSystem(p, 2, 1), 3)
        assert [a.residue for a in pts] == [1]


def test_conjugated_verdict_matches_base():
    sys_ = MonomialSystem(7, 3, 1)
    a = PadicInt.from_integer(-1, 7, 5)
    v = conjugated_verdict(sys_, a, 4)
    assert v.minimal == minimality_verdict(sys_, 4).minimal is True


def test_conjugated_verdict_non_minimal_case():
    # 3 is not a generator mod 11^2 (order 5 mod 11); -1 is a fixed point of cubing
    sys_ = MonomialSystem(11, 3, 1)
    a = PadicInt.from_integer(-1, 11, 5)
    base = minimality_verdict(sys_, 3)
    assert not base.minimal
    v = conjugated_verdict(sys_, a, 3)
    assert v.minimal is False


def _conjugation_cases():
    for p in (3, 5, 7, 11):
        # n = 1 mod p fixes every depth-1 ball, so the centre is a least value
        # over p-1 balls; n = 1 + p(p-1) fixes every Teichmuller point a
        for n in (2, 3, p + 1, 2 * p - 1, 1 + p * (p - 1), 1 + p * p * (p - 1)):
            if n % p != 0:
                yield p, n


@pytest.mark.parametrize("p,n", list(_conjugation_cases()))
@pytest.mark.parametrize("l", [1, 2])
def test_conjugated_invariant_ball_matches_a_scan(p, n, l):
    sys_, k_max = MonomialSystem(p, n, l), 3
    for a in fixed_points(sys_, l + k_max):
        expected = None
        for k in range(1, k_max + 1):
            m = p ** (l + k)
            fixed = [
                a.residue * c % m
                for c in sphere_partition(sys_, k).centers().tolist()
                if pow(a.residue * c, n, m) == a.residue * c % m
            ]
            if fixed:
                expected = (k, min(fixed))
                break
        v = conjugated_verdict(sys_, a, k_max)
        assert v.evidence.invariant_ball == expected
        assert v.minimal == is_generator_mod_p2(n, p)


@pytest.mark.parametrize("p,n", list(_conjugation_cases()))
@pytest.mark.parametrize("l", [1, 2])
def test_conjugated_permutations_match_the_conjugated_images(monkeypatch, p, n, l):
    # Reference: the ball a*c maps to (a*c)^n; a^-1 (a*c)^n, ranked by lookup,
    # is the image of c in the standard coordinates.
    seen = []
    real = dynamics.induced_permutation

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(dynamics, "induced_permutation", recording)
    sys_, k_max = MonomialSystem(p, n, l), 3
    for a in fixed_points(sys_, l + k_max):
        seen.clear()
        depths = conjugated_verdict(sys_, a, k_max).evidence.depths
        assert [perm.partition.depth for perm in seen] == [1, 2, 3]
        assert [d.cycle_type for d in depths] == [perm.cycle_type for perm in seen]
        for perm in seen:
            reps, m = perm.partition.centers().tolist(), perm.partition.modulus
            a_res = a.residue % m
            a_inv = pow(a_res, -1, m)
            rank = {c: i for i, c in enumerate(reps)}
            assert perm.mapping.tolist() == [rank[a_inv * pow(a_res * c % m, n, m) % m] for c in reps]


@pytest.mark.parametrize("p,n,l", [(7, 3, 1), (11, 3, 1), (5, 6, 2)])
def test_conjugated_verdict_checks_the_generator_test(monkeypatch, p, n, l):
    real = dynamics.unit_group_report

    def flipped(n, p, l):
        rep = real(n, p, l)
        return dataclasses.replace(rep, is_generator=not rep.is_generator)

    sys_ = MonomialSystem(p, n, l)
    a = fixed_points(sys_, l + 3)[-1]
    monkeypatch.setattr(dynamics, "unit_group_report", flipped)
    with pytest.raises(IntegrityError):
        conjugated_verdict(sys_, a, 3)


def test_conjugation_validation():
    sys_ = MonomialSystem(7, 3, 1)
    with pytest.raises(DomainError):
        conjugated_verdict(sys_, PadicInt.from_integer(2, 7, 5), 3)  # 2^3 != 2
    with pytest.raises(DomainError):
        conjugated_verdict(sys_, PadicInt.from_integer(-1, 7, 2), 3)  # too coarse


@st.composite
def _systems_and_depths(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    n = draw(st.integers(2, 200).filter(lambda n: n % p != 0))
    return MonomialSystem(p, n, draw(st.integers(1, 3))), draw(st.integers(1, 4))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_systems_and_depths())
@example((MonomialSystem(3, 59050, 1), 12))  # n = 1 + 3^10: 39,366 cycles of length 9
def test_ball_cycles_follow_the_order_of_n(case):
    # log conjugates x -> x^n on the sphere to u -> n*u on the units mod p^k,
    # so every depth-k ball cycle has length o = ord_{p^k}(n).
    sys_, k = case
    pk = sys_.p**k
    o = n_order(sys_.n % pk, pk)
    balls = pk - pk // sys_.p
    expected = (o,) * (balls // o)
    perm = induced_permutation(sys_, k)
    assert tuple(perm.cycle_lengths.tolist()) == expected
    assert perm.cycle_type == ((o, balls // o),)
    with pytest.MonkeyPatch.context() as mp:
        # power_map_any returns an object array; its ints are small, so they rank as int64
        mp.setattr(kernels, "INT64_SAFE_MODULUS", 1)
        assert tuple(induced_permutation(sys_, k).cycle_lengths.tolist()) == expected
    depth = max(k, 2)
    base = minimality_verdict(sys_, depth).evidence.depths
    assert base[k - 1].cycle_type == ((o, balls // o),)
    for a in fixed_points(sys_, sys_.l + depth):
        assert conjugated_verdict(sys_, a, depth).evidence.depths == base


def _evidence(sys_, depth):
    verdicts = [minimality_verdict(sys_, depth)]
    verdicts += [conjugated_verdict(sys_, a, depth) for a in fixed_points(sys_, sys_.l + depth)]
    return [(v.evidence.depths, v.evidence.invariant_ball) for v in verdicts]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_systems_and_depths())
def test_sampled_route_matches_the_enumerated_one(case):
    # With the enumeration bound at 0 every depth, however small, is checked
    # by the return times of sampled centres alone: no permutation is built.
    sys_, k = case
    depth = max(k, 2)
    enumerated = _evidence(sys_, depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_ENUMERATED_BALLS", 0)
        mp.setattr(dynamics, "induced_permutation", None)
        assert _evidence(sys_, depth) == enumerated


# Depth 3 has 2,028 balls at p = 13 (enumerated) and 903,264 at p = 97 (sampled);
# n = 2 generates mod 13^2 but not mod 97^2, and n = 5 the other way round.
@pytest.mark.parametrize("p, n", [(13, 2), (13, 5), (97, 2), (97, 5)])
@pytest.mark.parametrize("wrong", [lambda o: 2 * o, lambda o: o // 2, lambda o: o + 1],
                         ids=["doubled", "halved", "plus one"])
def test_a_wrong_order_at_one_depth_is_caught(monkeypatch, p, n, wrong):
    real = dynamics.multiplicative_order

    def mutated(n, p, k):
        return wrong(real(n, p, k)) if k == 3 else real(n, p, k)

    monkeypatch.setattr(dynamics, "multiplicative_order", mutated)
    with pytest.raises(IntegrityError, match="disagree with the order"):
        minimality_verdict(MonomialSystem(p, n, 1), 3)


def test_a_verdict_enumerates_only_the_depths_it_scans(monkeypatch):
    # At p = 997 depth 1 has 996 balls, enumerated once inside induced_permutation;
    # depth 2 has 993,012, of which only the 64 sampled centres are computed.
    enumerated = []
    real = BallPartition.centers

    def counted(self, indices=None):
        if indices is None:
            enumerated.append(self.depth)
        return real(self, indices)

    monkeypatch.setattr(BallPartition, "centers", counted)
    tracemalloc.start()
    try:
        minimality_verdict(MonomialSystem(997, 7, 1), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enumerated == [1]
    # the generated set mod 997^2 and its sorted copy; 23.6 MiB with every depth enumerated
    assert peak < 20 * 2**20


@st.composite
def _systems_with_fixed_balls(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    # n = 1 mod p fixes balls at depth 1 and, when n = 1 mod p^2, deeper too.
    n = draw(
        st.one_of(
            st.integers(1, 2 * p * p).map(lambda j: 1 + j * p),
            st.integers(2, 200).filter(lambda n: n % p != 0),
        )
    )
    return MonomialSystem(p, n, draw(st.integers(1, 2))), draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_systems_with_fixed_balls())
def test_fixed_balls_match_a_scan_of_the_mapping(case):
    sys_, k = case
    k_max = max(k, 2)
    expected_ball = None
    for depth in range(1, k_max + 1):
        perm = induced_permutation(sys_, depth)
        scanned = tuple(i for i, j in enumerate(perm.mapping) if i == j)
        assert perm.fixed_indices() == scanned
        if expected_ball is None and not perm.is_transitive and scanned:
            expected_ball = (depth, perm.partition.ball_center(scanned[0]))
    assert minimality_verdict(sys_, k_max).evidence.invariant_ball == expected_ball


@pytest.mark.parametrize(
    "p,n,l,k",
    [
        (19, 2, 13, 2),  # modulus 19^15 lies between 2**63 and 2**64
        (3, 2, 38, 2),  # 3^40, same range
        (23, 5, 12, 2),  # 23^14, same range
        (3, 2, 60, 2),  # 3^62, beyond 2**64
        (5, 3, 40, 3),  # 5^43, beyond 2**64
    ],
)
def test_ball_cycles_beyond_int64(p, n, l, k):
    # Images on both sides of 2**63 must be ranked exactly, not through float64.
    sys_ = MonomialSystem(p, n, l)
    part = sphere_partition(sys_, k)
    assert part.modulus > 2**63
    images = kernels.power_map_any(part.centers(), n, part.modulus)
    assert max(images) >= 2**63
    pk = p**k
    o = n_order(n, pk)
    expected = (o,) * ((pk - pk // p) // o)
    assert tuple(induced_permutation(sys_, k).cycle_lengths.tolist()) == expected
    base = minimality_verdict(sys_, k).evidence.depths
    assert tuple(d.cycle_type for d in base) == tuple(
        induced_permutation(sys_, d.depth).cycle_type for d in base
    )
    for a in fixed_points(sys_, l + k):
        assert conjugated_verdict(sys_, a, k).evidence.depths == base
    # a perturbation divisible by p^(l+2) leaves the depth-2 balls where they were
    psys = PerturbedSystem(sys_, Polynomial.from_integers([0, 0, p ** (l + 2)], p, l + k + 2))
    assert perturbed_ball_map(psys, 2).mapping.tolist() == induced_permutation(sys_, 2).mapping.tolist()
    sweep = observe_marginal_perturbation(p, n, l, [0, 0, p ** (l + 2)], k_max=k)
    assert all(e["ball_map_bijective"] for e in sweep["per_depth"])


# -- product system -------------------------------------------------------------------


def test_product_of_the_swap_splits_in_two():
    rep = product_nonmixing_report(MonomialSystem(3, 2, 1), 1)
    assert rep.ball_count == 2 and rep.pair_count == 4
    assert rep.cycle_count == 2
    assert rep.cycle_length_multiplicities == ((2, 2),)
    assert not rep.product_transitive
    assert rep.log_linearity_ok and rep.log_ratio_invariant


def test_product_of_a_minimal_system_has_m_cycles_of_length_m():
    for p, n, l, k in ((3, 2, 1, 2), (5, 2, 1, 1), (7, 3, 1, 2)):
        rep = product_nonmixing_report(MonomialSystem(p, n, l), k)
        m_count = rep.ball_count
        assert rep.cycle_count == m_count >= 2
        assert rep.cycle_length_multiplicities == ((m_count, m_count),)
        assert rep.log_ratio_invariant


def test_product_never_transitive_even_when_base_is_not():
    rep = product_nonmixing_report(MonomialSystem(3, 4, 1), 1)
    assert rep.cycle_count >= 2
    assert not rep.product_transitive


def test_product_log_ratio_catches_a_moved_class(monkeypatch):
    real_logs = dynamics.padic_log_residues

    def skewed_logs(p, K, residues):
        out = real_logs(p, K, residues)
        first_image = len(out) // 2  # the points come first, then their images
        out[first_image] = 2 * out[first_image] % p**K
        return out

    monkeypatch.setattr(dynamics, "padic_log_residues", skewed_logs)
    rep = product_nonmixing_report(MonomialSystem(5, 2, 1), 2)
    assert rep.log_points_checked >= 2
    assert not rep.log_linearity_ok and not rep.log_ratio_invariant


def test_product_cross_checks_the_order_of_n(monkeypatch):
    monkeypatch.setattr(dynamics, "multiplicative_order", lambda n, p, l: 2)  # ord_5(2) = 4
    with pytest.raises(IntegrityError):
        product_nonmixing_report(MonomialSystem(5, 2, 1), 1)


# -- perturbations ---------------------------------------------------------------------


def test_perturbation_gate_rejects_shallow_coefficients():
    with pytest.raises(DomainError):
        PerturbedSystem(MonomialSystem(3, 2, 1), Polynomial.from_integers([9], 3, 5))
    PerturbedSystem(MonomialSystem(3, 2, 1), Polynomial.from_integers([27], 3, 5))


def test_perturbation_level_two_congruence_holds():
    psys = PerturbedSystem(MonomialSystem(3, 2, 2), Polynomial.from_integers([81], 3, 6))
    rep = perturbed_analysis(psys, 3, 6)
    assert rep.congruence_asserted and rep.congruence_ok
    assert all(ok for _, ok in rep.invariance_by_depth)
    assert rep.pointwise_vanishing_ok
    assert rep.necessary_condition_agrees


def test_perturbation_level_two_with_nonconstant_polynomial():
    psys = PerturbedSystem(
        MonomialSystem(5, 2, 2), Polynomial.from_integers([625, 1250, 625], 5, 7)
    )
    rep = perturbed_analysis(psys, 3, 6)
    assert rep.congruence_asserted and rep.congruence_ok
    assert all(ok for _, ok in rep.invariance_by_depth)


def test_perturbation_level_one_discrepancy_is_reported():
    psys = PerturbedSystem(MonomialSystem(3, 2, 1), Polynomial.from_integers([27], 3, 5))
    rep = perturbed_analysis(psys, 3, 6)
    assert not rep.congruence_asserted
    assert rep.congruence_mismatch_count > 0
    first = rep.congruence_mismatches[0]
    assert (first.start_residue, first.step, first.observed, first.predicted) == (4, 1, 16, 7)
    assert all(ok for _, ok in rep.invariance_by_depth)
    assert rep.necessary_condition_agrees


def test_perturbation_necessary_condition_tracks_generator():
    for p, n, l, coeff in ((3, 2, 1, 27), (3, 4, 1, 27), (5, 3, 2, 625), (5, 7, 1, 125)):
        psys = PerturbedSystem(MonomialSystem(p, n, l), Polynomial.from_integers([coeff], p, l + 4))
        rep = perturbed_analysis(psys, 2, 4)
        assert rep.depth2_transitive == is_generator_mod_p2(n, p)
        assert rep.necessary_condition_agrees


def test_perturbed_analysis_ranks_each_depth_once(monkeypatch):
    ranked = []
    real = dynamics._ball_ranks

    def recording(partition, images):
        ranked.append(partition.depth)
        return real(partition, images)

    monkeypatch.setattr(dynamics, "_ball_ranks", recording)
    psys = PerturbedSystem(MonomialSystem(5, 2, 1), Polynomial.from_integers([125], 5, 6))
    rep = perturbed_analysis(psys, 3, 4)
    assert ranked == [1, 2, 3]
    assert rep.depth2_transitive == is_generator_mod_p2(2, 5)


def test_zero_perturbation_reduces_to_the_power_map():
    sys_ = MonomialSystem(3, 2, 1)
    psys = PerturbedSystem(sys_, Polynomial.from_integers([0], 3, 6))
    for k in (1, 2, 3):
        assert perturbed_ball_map(psys, k).mapping.tolist() == induced_permutation(sys_, k).mapping.tolist()


def test_coefficient_precision_must_cover_the_modulus():
    psys = PerturbedSystem(MonomialSystem(3, 2, 1), Polynomial.from_integers([27], 3, 4))
    with pytest.raises(DomainError):
        perturbed_analysis(psys, 5, 3)  # needs residues mod 3^6, coefficients carry 3^4


def _off_sphere_scan(images, p, l, modulus):
    """Per-residue sphere test: is |img - 1| different from p^-l?"""
    return [d == 0 or int_valuation(d, p) != l for d in ((img - 1) % modulus for img in images)]


def _collapse_some_balls(p, n, l):
    """A perturbation evaluator that sends every point whose first sphere digit
    is 1 to the centre 1, off the sphere, except mod p^(l+2), where it
    vanishes as an admissible q must."""

    def evaluate(self, residues, modulus):
        r = np.asarray(residues, dtype=np.int64)
        if modulus == p ** (l + 2):
            return np.zeros_like(r)
        return np.where((r // p**l) % p == 1, (1 - kernels.power_map(r, n, modulus)) % modulus, 0)

    return evaluate


@pytest.mark.parametrize("collapse", [False, True])
@pytest.mark.parametrize("k_max", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (5, 2), (5, 6), (7, 3), (7, 8)])
def test_sphere_flags_match_a_per_residue_scan(monkeypatch, p, n, l, k_max, collapse):
    if collapse:
        monkeypatch.setattr(Polynomial, "evaluate_residue", _collapse_some_balls(p, n, l))
    sys_ = MonomialSystem(p, n, l)
    coeffs = [p ** (l + 2), 0, p ** (l + 2)]
    psys = PerturbedSystem(sys_, Polynomial.from_integers(coeffs, p, l + k_max + 2))
    expected_flags, expected_counts = [], []
    for k in range(1, k_max + 1):
        part = sphere_partition(sys_, k)
        images = psys.apply(part.centers(), part.modulus).tolist()
        off = _off_sphere_scan(images, p, l, part.modulus)
        expected_flags.append((k, not any(off)))
        expected_counts.append(sum(off))
    assert (sum(expected_counts) > 0) == collapse  # the first depth always sees the collapse
    if k_max >= 2:
        assert perturbed_analysis(psys, k_max, 2).invariance_by_depth == tuple(expected_flags)
    obs = observe_marginal_perturbation(p, n, l, coeffs, k_max)
    assert [e["images_off_sphere"] for e in obs["per_depth"]] == expected_counts


def test_marginal_observation_reports_a_collapsed_ball_map(monkeypatch):
    # every image lands on 1 + p^l, the centre of ball 0
    p, l = 3, 1
    monkeypatch.setattr(
        Polynomial,
        "evaluate_residue",
        lambda self, r, modulus: (1 + p**l - kernels.power_map_any(r, 2, modulus)) % modulus,
    )
    obs = observe_marginal_perturbation(p, 2, l, [9], 3)
    for e in obs["per_depth"]:
        assert e["images_off_sphere"] == 0
        assert e["ball_map_bijective"] is False
        assert "cycle_lengths" not in e


def _psi_reference(n, coeffs, r, modulus):
    """x^n + q(x) for one residue, from pow and Horner on Python ints."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % modulus
    return (pow(r, n, modulus) + acc) % modulus


def _rank_reference(r, p, l, k):
    """The rank of r's depth-k ball, or None when r is off the sphere."""
    t, rem = divmod((r - 1) % p ** (l + k), p**l)
    return None if rem or t % p == 0 else t - 1 - (t - 1) // p


def _cycle_lengths_reference(mapping):
    seen, lengths = set(), []
    for i in range(len(mapping)):
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j, length = mapping[j], length + 1
        if length:
            lengths.append(length)
    return sorted(lengths)


@pytest.mark.parametrize(
    "p,n,l,coeffs,precision",
    [
        (3, 2, 20, [3**22, 0, -(3**23)], 26),  # 3^22..3^24 lie above INT64_SAFE_MODULUS
        (3, 2, 40, [3**42, -(3**43)], 46),  # 3^42 lies above 2**63
        (3, 2, 1, [-27, 54], 60),  # -27 held mod 3^60 is far beyond int64
    ],
)
def test_perturbed_maps_match_a_per_residue_reference_beyond_int64(p, n, l, coeffs, precision):
    k_max, n_max = 3, 6
    psys = PerturbedSystem(MonomialSystem(p, n, l), Polynomial.from_integers(coeffs, p, precision))
    ranks = {}
    for k in range(1, k_max + 1):
        centers = [1 + t * p**l for t in range(1, p**k) if t % p]
        images = [_psi_reference(n, coeffs, c, p ** (l + k)) for c in centers]
        ranks[k] = [_rank_reference(y, p, l, k) for y in images]
        assert perturbed_ball_map(psys, k).mapping.tolist() == ranks[k]
    mod2 = p ** (l + 2)
    mismatches = []
    for r in (1 + t * p**l for t in range(1, p * p) if t % p):
        a, b = (r // p**l) % p, (r // p ** (l + 1)) % p
        y = r
        for step in range(1, n_max + 1):
            y = _psi_reference(n, coeffs, y, mod2)
            predicted = (1 + pow(n, step, mod2) * (a + b * p) * p**l) % mod2
            if y != predicted:
                mismatches.append((r, step, y, predicted))
    rep = perturbed_analysis(psys, k_max, n_max)
    assert rep.invariance_by_depth == tuple((k, None not in ranks[k]) for k in ranks)
    assert rep.pointwise_vanishing_ok
    assert rep.congruence_checked == len(ranks[2]) * n_max
    assert rep.congruence_mismatch_count == len(mismatches)
    assert [
        (mm.start_residue, mm.step, mm.observed, mm.predicted) for mm in rep.congruence_mismatches
    ] == mismatches[:20]
    assert rep.depth2_transitive == (_cycle_lengths_reference(ranks[2]) == [len(ranks[2])])

    marginal = [c // p for c in coeffs]  # one digit shallower: valuation l + 1
    obs = observe_marginal_perturbation(p, n, l, marginal, k_max)
    for entry in obs["per_depth"]:
        k = entry["depth"]
        centers = [1 + t * p**l for t in range(1, p**k) if t % p]
        expected = [
            _rank_reference(_psi_reference(n, marginal, c, p ** (l + k)), p, l, k) for c in centers
        ]
        assert entry["images_off_sphere"] == expected.count(None)
        if None not in expected:
            assert entry["ball_map_bijective"] == (sorted(expected) == list(range(len(expected))))
            if entry["ball_map_bijective"]:
                assert entry["cycle_lengths"] == _cycle_lengths_reference(expected)


def test_marginal_observation_mode():
    obs = observe_marginal_perturbation(3, 2, 1, [9], 3)
    assert "verdict" not in obs
    assert obs["note"].startswith("observational")
    assert [e["depth"] for e in obs["per_depth"]] == [1, 2, 3]
    with pytest.raises(DomainError):
        observe_marginal_perturbation(3, 2, 1, [3], 3)  # valuation 1 < l+1


# -- the isometry -------------------------------------------------------------------


def test_sphere_power_map_is_an_isometry():
    # dist(x^n, y^n) = dist(x, y) for unit exponents on sphere points
    sys_ = MonomialSystem(5, 3, 1)
    pts = [1 + 5 * t for t in range(1, 125) if t % 5]
    m = 5**4
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            lhs = int_valuation((pow(x, 3, m) - pow(y, 3, m)) % m or m, 5)
            rhs = int_valuation(x - y, 5)
            assert min(lhs, 4) == min(rhs, 4)
