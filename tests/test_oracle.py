"""Certificates: brute-force sweeps, the rational solver, digests."""

import time
from fractions import Fraction

import pytest

from padicdyn import oracle
from padicdyn.dynamics import MonomialSystem, induced_permutation
from padicdyn.errors import DomainError, ResourceError
from padicdyn.oracle import (
    canonical_json,
    certify_generator_consistency,
    certify_log_isometry,
    certify_minimality_criterion,
    certify_power_scaling,
    certify_unique_invariance,
    rational_nullspace,
)


# -- power scaling -----------------------------------------------------------------


def test_power_scaling_odd_primes_all_equality():
    for p, K, n_max in ((3, 4, 9), (5, 3, 6)):
        cert = certify_power_scaling(p, K, n_max)
        assert cert.passed
        assert cert.annotations["strict_inequality_pairs"] == 0
        assert cert.annotations["equality_pairs"] == cert.annotations["pairs_checked"]


def test_power_scaling_at_two_strict_only_for_even_exponents():
    cert = certify_power_scaling(2, 5, 4)
    assert cert.passed
    by_n = cert.annotations["strict_pairs_by_exponent"]
    assert by_n["1"] == 0 and by_n["3"] == 0
    assert by_n["2"] > 0 and by_n["4"] > 0


def test_power_scaling_factorial_bound_rows():
    cert = certify_power_scaling(3, 4, 2)
    rows = cert.annotations["factorial_bound"]
    assert [r["holds"] for r in rows] == [True] * 4
    assert rows[2]["v_factorial"] == 1 and rows[2]["bound"] == 2  # v_3(3!) = 1 < 2


def test_power_scaling_caps(monkeypatch):
    with pytest.raises(ResourceError):
        certify_power_scaling(7, 8, 4)  # 7^8 residues over the cap
    with pytest.raises(ResourceError):
        certify_power_scaling(3, 3, 200)  # exponent cap
    monkeypatch.setattr(oracle, "DEFAULT_PAIR_CAP", 1404)  # (3, 4, 2) sweeps 702 pairs x 2 exponents
    assert certify_power_scaling(3, 4, 2).passed
    monkeypatch.setattr(oracle, "DEFAULT_PAIR_CAP", 1403)
    with pytest.raises(ResourceError, match="^702 pairs x 2 exponents exceed pair cap 1403$"):
        certify_power_scaling(3, 4, 2)


def test_certificate_digest_reproducible():
    a = certify_power_scaling(3, 4, 9)
    b = certify_power_scaling(3, 4, 9)
    assert a.digest == b.digest
    assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())
    c = certify_power_scaling(3, 4, 8)
    assert c.digest != a.digest


# Digests from the plain pair-by-pair sweep and the all-Fraction solve: any
# faster sweep must reproduce them bit for bit.
PINNED_DIGESTS = [
    (certify_power_scaling, (2, 5, 4), "f61e36ef986d76f4d2ed0171e423a197bd253a0002efb6d711c88f6c48cc86a8"),
    (certify_power_scaling, (2, 6, 8), "168ead0659ad2dfad0744c9c735f86b447904c177eea77f323650fcf05948318"),
    (certify_power_scaling, (3, 4, 9), "0435f9bfd8dc9d3eda3935e58c96ba4fc65735288304d4ed9cbecf7f7bf4f4c8"),
    (certify_power_scaling, (5, 3, 6), "661958bfe669a2572ddead8f3d20faa7bd0541461c0def7e2f92fbc46861b5bf"),
    (certify_unique_invariance, (3, 2, 1, 2), "e928b7274fe7af083b638150ea364763270dca77780afed26646d21f4a56619b"),
    (certify_unique_invariance, (7, 10, 1, 2), "03af09f574f361512bf22a6c2e88e5195869e2b87c929d5cb13f87e34cb9780e"),
    (certify_unique_invariance, (5, 4, 1, 2), "b14f5c098ade4bcdb6c5dee5c3371249a27152176df2fb7c1f62c4cc2e9f75ca"),
    (certify_unique_invariance, (5, 7, 2, 2), "0dfb3ad436b1fe9ad68baf8f9abeb7d9732b7c3651daaf64938f217d8fa99c1f"),
    (certify_minimality_criterion, (5, (1, 2), 3), "9cbe7fc005f2ecf794d0db81b413cca1fe319ee1f9da1e2eb2b197a71a589a38"),
    (certify_generator_consistency, (5, 4), "bf11c73ceca34385fdf6411681639fdade121132783a78ece7d802bd44af274c"),
]


@pytest.mark.parametrize("certify,args,digest", PINNED_DIGESTS)
def test_certificate_digests_are_pinned(certify, args, digest):
    assert certify(*args).digest == digest


def test_power_scaling_catches_a_skewed_power(monkeypatch):
    def skewed_pow(x, n, m):
        return pow(x, n, m) + (9 if (x, n, m) == (7, 2, 81) else 0)

    monkeypatch.setattr(oracle, "pow", skewed_pow, raising=False)
    cert = certify_power_scaling(3, 4, 2)
    assert cert.status == "FAIL"
    assert cert.witness == {
        "kind": "missing-equality",
        "x": 7,
        "y": 25,
        "n": 2,
        "observed": 4,
        "expected": 2,
    }
    assert cert.digest == "8a6a8b2ede23307de05472652245929a78dd1e2648f13bb1260a6577f8902bba"


def test_certificate_schema_keys():
    cert = certify_power_scaling(3, 3, 4)
    assert list(cert.to_dict()) == [
        "claim",
        "parameters",
        "status",
        "annotations",
        "witness",
        "digest",
    ]


# -- minimality criterion -------------------------------------------------------------


def test_minimality_criterion_small_primes():
    cert = certify_minimality_criterion(3, (1, 2), 3)
    assert cert.passed
    assert cert.annotations == {"cases": 12, "minimal_cases": 4, "agreements": 12}
    cert5 = certify_minimality_criterion(5, (1, 2), 3)
    assert cert5.passed and cert5.annotations["cases"] == 40


def test_minimality_criterion_covers_seventeen():
    # the classic positive case: 3 generates the units mod 17^2
    cert = certify_minimality_criterion(17, (1,), 2)
    assert cert.passed
    assert cert.annotations["cases"] == 17 * 17 - 17
    assert cert.annotations["minimal_cases"] > 0


def test_minimality_criterion_rejects_two():
    with pytest.raises(DomainError):
        certify_minimality_criterion(2, (1,), 3)


def test_minimality_criterion_walk_budget(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="^16997603328 orbit steps exceed walk cap 20000000$"):
        certify_minimality_criterion(97)
    assert time.perf_counter() - start < 1.0
    # p = 5, two levels, depths 1-3: 20 units x 2 x (5^3 - 1) = 4960 steps
    monkeypatch.setattr(oracle, "DEFAULT_WALK_CAP", 4960)
    assert certify_minimality_criterion(5, (1, 2), 3).passed

    def no_walk(*args):
        raise AssertionError("walked past the budget")

    monkeypatch.setattr(oracle, "_orbit_is_transitive", no_walk)
    monkeypatch.setattr(oracle, "is_generator_mod_p2", no_walk)
    monkeypatch.setattr(oracle, "DEFAULT_WALK_CAP", 4959)
    with pytest.raises(ResourceError, match="^4960 orbit steps exceed walk cap 4959$"):
        certify_minimality_criterion(5, (1, 2), 3, jobs=2)


def test_minimality_criterion_parallel_matches_serial():
    serial = certify_minimality_criterion(5, (1, 2), 3, jobs=1)
    parallel = certify_minimality_criterion(5, (1, 2), 3, jobs=2)
    assert serial.digest == parallel.digest


@pytest.mark.parametrize("jobs,cpus,workers", [(1000, 64, 20), (1000, 3, 3), (2, 64, 2), (1000, None, 1)])
def test_minimality_criterion_caps_the_pool(monkeypatch, jobs, cpus, workers):
    # p = 5 has 20 units mod 25, so no more than 20 chunks carry work.
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
    cert = certify_minimality_criterion(5, (1, 2), 3, jobs=jobs)
    assert requested == [workers]
    assert cert.digest == certify_minimality_criterion(5, (1, 2), 3, jobs=1).digest


# -- unique invariant distribution ------------------------------------------------------


def test_unique_invariance_minimal_case():
    cert = certify_unique_invariance(3, 2, 1, 2)
    assert cert.passed
    assert cert.annotations["nullity"] == 1
    assert cert.annotations["unique_invariant_vector_is_uniform"] is True
    assert cert.annotations["invariant_vector"] == "1/6 on every ball"


def test_unique_invariance_non_minimal_two_parameter_family():
    cert = certify_unique_invariance(3, 4, 1, 1)
    assert cert.passed
    assert cert.annotations["nullity"] == 2
    assert cert.witness["kind"] == "non-uniform-invariant-vector"
    assert cert.witness["support_ball_centers"] == [4]


def test_unique_invariance_order_twenty_case():
    cert = certify_unique_invariance(5, 2, 1, 2)
    assert cert.passed
    assert cert.annotations["transitive"] is True
    assert cert.annotations["unique_invariant_vector_is_uniform"] is True


def test_unique_invariance_nullity_equals_cycle_count_sweep():
    for p in (3, 5):
        for n in range(2, p * p):
            if n % p == 0:
                continue
            cert = certify_unique_invariance(p, n, 1, 2)
            assert cert.passed
            perm = induced_permutation(MonomialSystem(p, n, 1), 2)
            assert cert.annotations["nullity"] == len(perm.cycle_lengths)


def test_unique_invariance_reduces_large_exponents():
    # phi(5^3) = 100, so n = 10^7 + 3 acts on the balls as n = 3 does
    start = time.perf_counter()
    cert = certify_unique_invariance(5, 10**7 + 3, 1, 2)
    assert time.perf_counter() - start < 1.0
    assert cert.annotations == certify_unique_invariance(5, 3, 1, 2).annotations


def test_unique_invariance_cap():
    with pytest.raises(ResourceError):
        certify_unique_invariance(3, 2, 1, 14)


# -- the rational solver ------------------------------------------------------------------


def test_nullspace_of_difference_chain():
    # x0 = x1 = x2: rank 2, one free direction, the constant vector
    rows = [{0: Fraction(-1), 1: Fraction(1)}, {1: Fraction(-1), 2: Fraction(1)}]
    rank, basis = rational_nullspace(rows, 3)
    assert rank == 2 and len(basis) == 1
    assert basis[0] == [Fraction(1)] * 3


def test_nullspace_of_dense_system():
    # x + y + z = 0 and x - z = 0  =>  (1, -2, 1) spans the nullspace
    rows = [
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 2: Fraction(-1)},
    ]
    rank, basis = rational_nullspace(rows, 3)
    assert rank == 2 and len(basis) == 1
    vec = basis[0]
    scale = vec[2]
    assert [v / scale for v in vec] == [Fraction(1), Fraction(-2), Fraction(1)]


def test_nullspace_zero_matrix():
    rank, basis = rational_nullspace([], 4)
    assert rank == 0 and len(basis) == 4


def test_nullspace_full_rank():
    rows = [{0: Fraction(2)}, {1: Fraction(5)}]
    rank, basis = rational_nullspace(rows, 2)
    assert rank == 2 and basis == []


def test_nullspace_int_rows_match_fraction_rows():
    int_rows = [{0: -1, 3: 1}, {1: 2, 2: -3, 4: 1}, {0: 5, 1: 1}, {3: -1, 2: 1}, {4: 7}]
    frac_rows = [{c: Fraction(v) for c, v in row.items()} for row in int_rows]
    assert rational_nullspace(int_rows, 6) == rational_nullspace(frac_rows, 6)
    assert int_rows[0] == {0: -1, 3: 1}  # the caller's rows are not touched


def test_nullspace_non_unit_pivots_give_exact_fractions():
    # 2x + y = 0 and 5y + z = 0: (1, -2, 10) spans the nullspace
    rank, basis = rational_nullspace([{0: 2, 1: 1}, {1: 5, 2: 1}], 3)
    assert rank == 2
    assert basis == [[Fraction(1, 10), Fraction(-1, 5), Fraction(1)]]
    assert all(type(v) is Fraction for v in basis[0])
    _, basis = rational_nullspace([{0: -1, 1: 1}], 3)
    assert all(type(v) is Fraction for vec in basis for v in vec)


def test_nullspace_dimension_matches_cycles_of_random_permutation():
    perm = [3, 0, 1, 2, 5, 4, 6]  # cycles: (0 3 2 1), (4 5), (6)
    rows = [{i: Fraction(-1), j: Fraction(1)} for i, j in enumerate(perm) if i != j]
    rank, basis = rational_nullspace(rows, len(perm))
    assert len(basis) == 3


# -- generator consistency -----------------------------------------------------------------


def test_generator_consistency_certificates():
    for p in (3, 5, 7):
        cert = certify_generator_consistency(p, 4)
        assert cert.passed
        assert cert.annotations["units_checked"] == p * p - p
    with pytest.raises(DomainError):
        certify_generator_consistency(2, 4)
    with pytest.raises(ResourceError):
        certify_generator_consistency(11, 7)


def test_generator_consistency_walk_budget(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="^858845700 cycle steps exceed walk cap 20000000$"):
        certify_generator_consistency(31, 4)
    assert time.perf_counter() - start < 1.0
    # p = 5, levels 2-4: 20 units x (5^4 - 5) = 12400 steps
    monkeypatch.setattr(oracle, "DEFAULT_WALK_CAP", 12400)
    assert certify_generator_consistency(5, 4).passed

    def no_walk(*args):
        raise AssertionError("walked past the budget")

    monkeypatch.setattr(oracle, "multiplicative_order", no_walk)
    monkeypatch.setattr(oracle, "DEFAULT_WALK_CAP", 12399)
    with pytest.raises(ResourceError, match="^12400 cycle steps exceed walk cap 12399$"):
        certify_generator_consistency(5, 4)


# -- log isometry -----------------------------------------------------------------------


def test_log_isometry_certificates():
    for p in (3, 5, 7):
        cert = certify_log_isometry(p, 4)
        assert cert.passed
        assert cert.annotations["points"] == p**3
    with pytest.raises(DomainError):
        certify_log_isometry(2, 4)
    with pytest.raises(ResourceError):
        certify_log_isometry(7, 9)


def test_log_isometry_catches_a_skewed_log(monkeypatch):
    real_logs = oracle.padic_log_residues

    def skewed_logs(p, K, residues):
        out = real_logs(p, K, residues)
        out[1] = (out[1] + p ** (K - 1)) % p**K  # lands on another point's log
        return out

    monkeypatch.setattr(oracle, "padic_log_residues", skewed_logs)
    cert = certify_log_isometry(5, 4)
    assert cert.status == "FAIL"
    assert cert.witness == {"kind": "log-merges-classes", "level": 4, "classes": [6, 131]}
