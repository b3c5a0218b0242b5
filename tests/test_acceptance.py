"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All checks are exact (integer and rational arithmetic); there are no
tolerances anywhere. Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import functools
import json
import time
from fractions import Fraction

from padicdyn.cli import main as cli_main
from padicdyn.dynamics import (
    MonomialSystem,
    PerturbedSystem,
    Polynomial,
    minimality_verdict,
    perturbed_analysis,
    product_nonmixing_report,
    sphere_partition,
)
from padicdyn.analysis import padic_exp, padic_log, pow_padic
from padicdyn.oracle import (
    certify_log_isometry,
    certify_minimality_criterion,
    certify_power_scaling,
    certify_unique_invariance,
)
from padicdyn.padic import PadicInt
from padicdyn.unitgroups import is_generator_mod_p2, noncyclic_2adic_check

CRITERION_PRIMES = (3, 5, 7, 11, 13)


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS - {title}")

        return wrapper

    return deco


def cli_json(capsys, *argv):
    code = cli_main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


@criterion(1, "squaring on the 3-adic sphere is minimal; the fourth power is not")
def test_criterion_1_p3_examples(capsys):
    code, doc = cli_json(capsys, "analyze", "--p", "3", "--n", "2", "--l", "1", "--depth", "4")
    assert code == 0
    assert doc["results"]["verdict"] == {
        "minimal": True,
        "uniquely_ergodic": True,
        "ergodic": True,
    }
    # 2 generates all six units mod 9
    assert doc["results"]["generator"]["element_order"] == 6
    assert doc["results"]["generated_mod_p2"] == [1, 2, 4, 5, 7, 8]

    code, doc = cli_json(capsys, "analyze", "--p", "3", "--n", "4", "--l", "1")
    assert code == 0
    res = doc["results"]
    assert res["verdict"] == {"minimal": False, "uniquely_ergodic": False, "ergodic": False}
    assert res["generated_mod_p2"] == [1, 4, 7]
    assert res["invariant_ball"] == {"depth": 1, "center": 4, "radius_exponent": 2}


@criterion(2, "cubing at p=17: order of 3 mod 289 is 272 and the verdict is minimal, under 1 s")
def test_criterion_2_p17(capsys):
    minimality_verdict(MonomialSystem(5, 2, 1), 3)  # warm the kernels
    t0 = time.perf_counter()
    verdict = minimality_verdict(MonomialSystem(17, 3, 1), 3)
    elapsed = time.perf_counter() - t0
    assert verdict.minimal and verdict.uniquely_ergodic and verdict.ergodic
    assert verdict.evidence.generator.element_order == 272 == 17 * 16
    assert all(d.transitive for d in verdict.evidence.depths)
    assert len(verdict.evidence.depths) == 3
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(3, "power-difference scaling law certified exhaustively, K=4, n <= 16")
def test_criterion_3_scaling_certificates():
    for p in (2, 3, 5, 7):
        cert = certify_power_scaling(p, 4, 16)
        assert cert.passed, cert.witness
        by_n = cert.annotations["strict_pairs_by_exponent"]
        if p > 2:
            assert cert.annotations["strict_inequality_pairs"] == 0
        else:
            for n in range(1, 17, 2):
                assert by_n[str(n)] == 0  # equality holds for every odd exponent
            # strictness is real for even exponents wherever the precision
            # has not saturated both sides (x^8 = 1 mod 16 for all odd x,
            # so n = 8 and n = 16 cap out at K = 4)
            strict_evens = {n for n in range(2, 17, 2) if by_n[str(n)] > 0}
            assert strict_evens == {2, 4, 6, 10, 12, 14}


@criterion(4, "transitivity <=> generator <=> density for every unit mod p^2, p in {3,5,7,11,13}")
def test_criterion_4_minimality_cross_validation():
    for p in CRITERION_PRIMES:
        cert = certify_minimality_criterion(p, (1, 2), 3)
        assert cert.passed, cert.witness
        assert cert.annotations["agreements"] == cert.annotations["cases"]
        assert cert.annotations["cases"] == (p * p - p) * 2


@criterion(5, "exact rational solve: uniform vector unique iff minimal, witness otherwise")
def test_criterion_5_unique_invariance():
    for p in CRITERION_PRIMES:
        for n in range(1, p * p):
            if n % p == 0:
                continue
            gen = is_generator_mod_p2(n, p)
            for l in (1, 2):
                cert = certify_unique_invariance(p, n, l, 2)
                assert cert.passed, cert.witness
                if gen:
                    assert cert.annotations["nullity"] == 1
                    assert cert.annotations["unique_invariant_vector_is_uniform"]
                else:
                    assert cert.annotations["nullity"] >= 2
                    assert cert.witness["kind"] == "non-uniform-invariant-vector"


@criterion(6, "Birkhoff averages over one full cycle equal the ball measure exactly")
def test_criterion_6_exact_birkhoff():
    cases = [
        (3, 2, 1, (1, 2)),
        (3, 2, 2, (1, 2)),
        (5, 2, 1, (1, 2)),
        (7, 3, 1, (1, 2)),
        (17, 3, 1, (1,)),
    ]
    for p, n, l, depths in cases:
        sys_ = MonomialSystem(p, n, l)
        for k in depths:
            part = sphere_partition(sys_, k)
            m_count = part.ball_count
            modulus = part.modulus
            for start in part.centers().tolist():
                # every ball is visited exactly once in M steps, so every
                # depth-k indicator averages to exactly 1/M from every start
                seen = []
                r = start
                for _ in range(m_count):
                    seen.append(part.index_of(r))
                    r = pow(r, n, modulus)
                assert sorted(seen) == list(range(m_count))
    # spot-check the same fact through the public averaging interface
    from padicdyn.dynamics import BallIndicator, birkhoff_average

    sys_ = MonomialSystem(5, 2, 1)
    part = sphere_partition(sys_, 2)
    centers = part.centers().tolist()
    for start in centers[:5]:
        for center in centers[:3]:
            res = birkhoff_average(
                sys_, PadicInt(5, 3, start), BallIndicator(center, 3), part.ball_count
            )
            assert res.average == Fraction(1, part.ball_count) == res.haar_value


@criterion(7, "logarithm is an isometry mod p^5; exp/log round-trip; power routes agree")
def test_criterion_7_analytic_suite():
    for p in (3, 5, 7):
        cert = certify_log_isometry(p, 5)
        assert cert.passed, cert.witness
        assert cert.annotations["points"] == p**4
    for p in (3, 5, 7):
        K = 4
        one = PadicInt.one(p, K)
        for t in range(1, p ** (K - 1)):
            x = PadicInt(p, K, 1 + p * t)
            assert padic_exp(padic_log(x)) == x
        for t in range(p ** (K - 1)):
            y = PadicInt(p, K, p * t)
            assert padic_log(padic_exp(y)) == y
        # pow_padic raises IntegrityError internally if its two routes differ
        for t in range(1, p * p, 2):
            x = PadicInt(p, 3, 1 + p * t)
            for a in range(0, p**3, 5):
                pow_padic(x, PadicInt(p, 3, a))


@criterion(8, "the product system is never transitive: M cycles of length M, log ratios frozen")
def test_criterion_8_non_weak_mixing():
    for p in CRITERION_PRIMES:
        for n in range(2, p * p):
            if n % p == 0 or not is_generator_mod_p2(n, p):
                continue
            for l in (1, 2):
                sys_ = MonomialSystem(p, n, l)
                for k in (1, 2, 3):
                    rep = product_nonmixing_report(sys_, k)
                    m_count = rep.ball_count
                    assert m_count >= 2
                    assert rep.cycle_count == m_count
                    assert rep.cycle_length_multiplicities == ((m_count, m_count),)
                    assert not rep.product_transitive
                    assert rep.log_linearity_ok and rep.log_ratio_invariant


@criterion(9, "perturbations below p^-(l+2): congruence for l >= 2, reported gap at l = 1")
def test_criterion_9_perturbation_suite():
    exact_cases = [
        (3, 2, 2, [81]),
        (3, 4, 2, [81, 162]),
        (5, 2, 2, [625]),
        (5, 3, 2, [625, 1250, 625]),
        (7, 3, 2, [2401]),
        (3, 2, 3, [243]),
    ]
    for p, n, l, coeffs in exact_cases:
        psys = PerturbedSystem(MonomialSystem(p, n, l), Polynomial.from_integers(coeffs, p, l + 5))
        rep = perturbed_analysis(psys, 3, 6)
        assert rep.congruence_asserted and rep.congruence_ok
        assert all(ok for _, ok in rep.invariance_by_depth)
        assert rep.pointwise_vanishing_ok
        assert rep.depth2_transitive == is_generator_mod_p2(n, p)
        assert rep.necessary_condition_agrees

    # l = 1: the congruence genuinely fails and the report must say so
    psys = PerturbedSystem(MonomialSystem(3, 2, 1), Polynomial.from_integers([27], 3, 5))
    rep = perturbed_analysis(psys, 3, 6)
    assert not rep.congruence_asserted
    assert rep.congruence_mismatch_count > 0
    assert len(rep.congruence_mismatches) > 0
    assert all(ok for _, ok in rep.invariance_by_depth)
    assert rep.necessary_condition_agrees


@criterion(10, "units mod 2^l are noncyclic for 3 <= l <= 10")
def test_criterion_10_noncyclic_two_adic():
    for l in range(3, 11):
        assert noncyclic_2adic_check(l) is True
