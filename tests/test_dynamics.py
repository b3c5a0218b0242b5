"""Partitions, permutations, verdicts, averages, conjugation, products, perturbations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory import n_order

from padicdyn import dynamics, kernels
from padicdyn.dynamics import (
    BallIndicator,
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
    isometry_scaling_check,
    minimality_verdict,
    observe_marginal_perturbation,
    orbit_residues,
    perturbed_analysis,
    perturbed_ball_map,
    product_nonmixing_report,
    sphere_partition,
)
from padicdyn.errors import DomainError, IntegrityError, ResourceError
from padicdyn.padic import PadicInt, Sphere, int_valuation
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
    assert sphere_partition(MonomialSystem(3, 2, 1), 1).representatives == (4, 7)
    assert sphere_partition(MonomialSystem(3, 2, 1), 2).ball_count == 6
    part = sphere_partition(MonomialSystem(5, 2, 2), 3)
    assert part.ball_count == 100


def test_partition_covers_the_sphere_exactly():
    sys_ = MonomialSystem(5, 2, 2)
    part = sphere_partition(sys_, 3)
    sphere = Sphere(PadicInt.one(5, 2 + 3), 2)
    assert sorted(part.representatives) == sphere.members()


def test_partition_is_sorted_and_indexable():
    part = sphere_partition(MonomialSystem(7, 3, 1), 2)
    assert list(part.representatives) == sorted(part.representatives)
    for i, rep in enumerate(part.representatives):
        assert part.index_of(rep) == i
    with pytest.raises(DomainError):
        part.index_of(1)  # the center is not on the sphere
    with pytest.raises(DomainError):
        part.index_of(1 + 7 * part.prime ** part.level * part.prime)


def test_partition_cap():
    with pytest.raises(ResourceError):
        sphere_partition(MonomialSystem(3, 2, 1), 20, cap=10**4)


# -- induced permutations -----------------------------------------------------


def test_squaring_swaps_the_two_balls():
    perm = induced_permutation(MonomialSystem(3, 2, 1), 1)
    assert perm.mapping == (1, 0)
    assert perm.cycle_lengths == (2,)
    assert perm.is_transitive


def test_fourth_power_fixes_both_balls():
    perm = induced_permutation(MonomialSystem(3, 4, 1), 1)
    assert perm.mapping == (0, 1)
    assert perm.fixed_indices() == (0, 1)
    assert not perm.is_transitive


def test_squaring_at_depth_two_is_a_six_cycle():
    perm = induced_permutation(MonomialSystem(3, 2, 1), 2)
    assert perm.cycle_lengths == (6,)
    members = perm.cycle_members(0)
    centers = [perm.partition.ball_center(i) for i in members]
    assert centers == [4, 16, 13, 7, 22, 25]  # direct iteration of squaring mod 27


def test_permutation_matches_plain_powers():
    sys_ = MonomialSystem(7, 3, 2)
    perm = induced_permutation(sys_, 2)
    part = perm.partition
    for i, rep in enumerate(part.representatives):
        img = pow(rep, 3, part.modulus)
        assert part.representatives[perm.mapping[i]] == img


def test_big_modulus_python_path_agrees(monkeypatch):
    sys_ = MonomialSystem(3, 2, 1)
    fast = induced_permutation(sys_, 3)
    monkeypatch.setattr(kernels, "INT64_SAFE_MODULUS", 10)
    slow = induced_permutation(sys_, 3)
    assert slow.mapping == fast.mapping
    assert slow.cycle_lengths == fast.cycle_lengths


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
    assert v.evidence.generated_mod_p2 == (1, 4, 7)
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
            for r in fine.representatives:
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
            for x0_res in part.representatives:
                x0 = PadicInt(p, l + k, x0_res)
                res = birkhoff_average(sys_, x0, BallIndicator(part.ball_center(0), l + k), m_count)
                assert res.average == Fraction(1, m_count) == res.haar_value


def test_digit_average_over_full_cycle():
    sys_ = MonomialSystem(3, 2, 1)
    part = sphere_partition(sys_, 2)
    x0 = PadicInt(3, 3, 4)
    res = birkhoff_average(sys_, x0, DigitValue(1), part.ball_count)
    assert res.average == Fraction(3, 2) == res.haar_value


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
def test_ball_cycles_follow_the_order_of_n(case):
    # log conjugates x -> x^n on the sphere to u -> n*u on the units mod p^k,
    # so every depth-k ball cycle has length o = ord_{p^k}(n).
    sys_, k = case
    pk = sys_.p**k
    o = n_order(sys_.n % pk, pk)
    expected = (o,) * ((pk - pk // sys_.p) // o)
    assert induced_permutation(sys_, k).cycle_lengths == expected
    with pytest.MonkeyPatch.context() as mp:
        # power_map_any returns Python ints; they are small, so they rank as int64
        mp.setattr(kernels, "INT64_SAFE_MODULUS", 1)
        assert induced_permutation(sys_, k).cycle_lengths == expected
    depth = max(k, 2)
    base = minimality_verdict(sys_, depth).evidence.depths
    for a in fixed_points(sys_, sys_.l + depth):
        assert conjugated_verdict(sys_, a, depth).evidence.depths == base


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
    images = kernels.power_map_any(part.representatives, n, part.modulus)
    assert max(images) >= 2**63
    pk = p**k
    o = n_order(n, pk)
    expected = (o,) * ((pk - pk // p) // o)
    assert induced_permutation(sys_, k).cycle_lengths == expected
    base = minimality_verdict(sys_, k).evidence.depths
    assert tuple(d.cycle_lengths for d in base) == tuple(
        induced_permutation(sys_, d.depth).cycle_lengths for d in base
    )
    for a in fixed_points(sys_, l + k):
        assert conjugated_verdict(sys_, a, k).evidence.depths == base
    # a perturbation divisible by p^(l+2) leaves the depth-2 balls where they were
    psys = PerturbedSystem(sys_, Polynomial.from_integers([0, 0, p ** (l + 2)], p, l + k + 2))
    assert perturbed_ball_map(psys, 2).mapping == induced_permutation(sys_, 2).mapping
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
    real_log = dynamics.padic_log
    calls = []

    def skewed_log(x):
        out = real_log(x)
        calls.append(x)
        if len(calls) == 2:  # the image log of the first sphere point, times 2
            return PadicInt(out.prime, out.precision, 2 * out.residue)
        return out

    monkeypatch.setattr(dynamics, "padic_log", skewed_log)
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


def test_zero_perturbation_reduces_to_the_power_map():
    sys_ = MonomialSystem(3, 2, 1)
    psys = PerturbedSystem(sys_, Polynomial.from_integers([0], 3, 6))
    for k in (1, 2, 3):
        assert perturbed_ball_map(psys, k).mapping == induced_permutation(sys_, k).mapping


def test_coefficient_precision_must_cover_the_modulus():
    psys = PerturbedSystem(MonomialSystem(3, 2, 1), Polynomial.from_integers([27], 3, 4))
    with pytest.raises(DomainError):
        perturbed_analysis(psys, 5, 3)  # needs residues mod 3^6, coefficients carry 3^4


def test_marginal_observation_mode():
    obs = observe_marginal_perturbation(3, 2, 1, [9], 3)
    assert "verdict" not in obs
    assert obs["note"].startswith("observational")
    assert [e["depth"] for e in obs["per_depth"]] == [1, 2, 3]
    with pytest.raises(DomainError):
        observe_marginal_perturbation(3, 2, 1, [3], 3)  # valuation 1 < l+1


# -- the scaling law -----------------------------------------------------------------


def test_scaling_law_example_at_three():
    # 4^3 - 7^3 = -279 = -9 * 31: both sides have exponent 2
    assert int_valuation(4**3 - 7**3, 3) == 2
    rep = isometry_scaling_check(3, 3, 4)
    assert rep.passed and rep.equality_required
    assert rep.strict_pairs == 0
    assert rep.equality_pairs == rep.pairs_checked


def test_scaling_law_strict_inequality_at_two():
    # 3^2 - 5^2 = -16: exponent 4, strictly above |2| |3-5| = exponent 2
    assert int_valuation(3**2 - 5**2, 2) == 4
    rep = isometry_scaling_check(2, 2, 5)
    assert rep.passed and not rep.equality_required
    assert rep.strict_pairs > 0


def test_scaling_law_identity_map():
    rep = isometry_scaling_check(5, 1, 3)
    assert rep.passed and rep.strict_pairs == 0


def test_scaling_law_python_fallback_agrees():
    # the int64 sweep against a plain-Python loop over the same unit pairs
    for p, n, K in ((3, 2, 4), (3, 6, 4), (2, 2, 5), (2, 3, 6), (5, 3, 3), (7, 7, 3)):
        m, vn = p**K, min(int_valuation(n, p), K)
        pairs = equality = strict = 0
        for c in range(1, p):
            members = range(c, m, p)
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    dp = (pow(y, n, m) - pow(x, n, m)) % m
                    observed = K if dp == 0 else min(int_valuation(dp, p), K)
                    expected = min(int_valuation(y - x, p) + vn, K)
                    pairs += 1
                    equality += observed == expected
                    strict += observed > expected
        rep = isometry_scaling_check(p, n, K)
        assert (rep.pairs_checked, rep.equality_pairs, rep.strict_pairs) == (pairs, equality, strict)


def test_scaling_law_rejects_moduli_beyond_int64(monkeypatch):
    monkeypatch.setattr(kernels, "INT64_SAFE_MODULUS", 10)
    with pytest.raises(ResourceError):
        isometry_scaling_check(3, 2, 4)


def test_scaling_law_keeps_ten_violations_in_total(monkeypatch):
    # a wrong |n| makes every pair of both residue classes a violation
    monkeypatch.setattr(dynamics, "int_valuation", lambda z, p: 1)
    rep = isometry_scaling_check(3, 2, 4)
    assert not rep.passed and len(rep.violations) == 10


def test_scaling_law_pair_cap():
    with pytest.raises(ResourceError):
        isometry_scaling_check(3, 2, 12, pair_cap=1000)


def test_sphere_power_map_is_an_isometry():
    # dist(x^n, y^n) = dist(x, y) for unit exponents on sphere points
    sys_ = MonomialSystem(5, 3, 1)
    pts = Sphere(PadicInt.one(5, 4), 1).members()
    m = 5**4
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            lhs = int_valuation((pow(x, 3, m) - pow(y, 3, m)) % m or m, 5)
            rhs = int_valuation(x - y, 5)
            assert min(lhs, 4) == min(rhs, 4)
