"""Independent brute-force verifiers with reproducible certificates.

Everything here re-derives claims from first principles -- plain integer
powers, explicit orbit walks, set cardinalities, and exact rational Gaussian
elimination -- deliberately sharing none of the fast-path machinery it
cross-checks (no kernels, no PadicInt arithmetic in the checked quantities).

A certificate is a frozen record {claim, parameters, status, annotations,
witness?, digest}; the digest is the sha256 of its canonical JSON form, so a
re-run with the same parameters reproduces it bit for bit. Sweeps refuse to
start beyond their caps: ``residue_cap`` (p^K <= 10^6 residues by default), and
the constant exponent cap n <= 64 and pair cap 2*10^7 of the quadratic sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import gcd

from .analysis import padic_log_residues
from .errors import DomainError, ResourceError
from .padic import is_prime
from .unitgroups import density_check, is_generator_mod_p2, multiplicative_order

DEFAULT_RESIDUE_CAP = 10**6
DEFAULT_N_CAP = 64
DEFAULT_PAIR_CAP = 2 * 10**7


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@dataclass(frozen=True, slots=True)
class Certificate:
    claim: str
    parameters: dict
    status: str  # PASS | FAIL
    annotations: dict
    witness: dict | None
    digest: str

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_dict(self) -> dict:
        return asdict(self)


def _make_certificate(
    claim: str, parameters: dict, status: str, annotations: dict, witness: dict | None
) -> Certificate:
    body = {
        "claim": claim,
        "parameters": parameters,
        "status": status,
        "annotations": annotations,
        "witness": witness,
    }
    digest = hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()
    return Certificate(**body, digest=digest)


def _vp_capped(x: int, p: int, cap: int) -> int:
    """p-adic valuation of x >= 0, capped; re-implemented here on purpose."""
    if x == 0:
        return cap
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


# -- power-difference scaling ---------------------------------------------------


def certify_power_scaling(
    p: int, K: int, n_max: int, residue_cap: int = DEFAULT_RESIDUE_CAP
) -> Certificate:
    """Exhaustively certify |x^n - y^n| <= |n| |x - y| over all unit pairs at
    distance >= 1, with equality whenever p > 2, or p = 2 with odd n.

    Powers are computed as plain exact integers before any reduction.
    Includes the factorial bound v_p(k!) <= k-1 (strict for odd p once
    k >= 2) that underlies the law.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if K < 2:
        raise DomainError("need K >= 2 to have pairs at distance >= 1")
    if n_max < 1:
        raise DomainError("n_max must be positive")
    m = p**K
    if m > residue_cap:
        raise ResourceError(f"p^K = {m} exceeds residue cap {residue_cap}")
    if n_max > DEFAULT_N_CAP:
        raise ResourceError(f"n_max = {n_max} exceeds exponent cap {DEFAULT_N_CAP}")
    class_size = p ** (K - 1)
    pair_total = (p - 1) * class_size * (class_size - 1) // 2
    if pair_total * n_max > DEFAULT_PAIR_CAP:
        raise ResourceError(
            f"{pair_total} pairs x {n_max} exponents exceed pair cap {DEFAULT_PAIR_CAP}"
        )

    parameters = {"p": p, "K": K, "n_max": n_max}
    witness = None

    # Factorial bound first.
    fact = 1
    factorial_rows = []
    for k in range(1, K + 1):
        fact *= k
        vk = _vp_capped(fact, p, 10 * K)
        strict_needed = p > 2 and k >= 2
        holds = vk < k - 1 if strict_needed else vk <= k - 1
        factorial_rows.append({"k": k, "v_factorial": vk, "bound": k - 1, "holds": holds})
        if not holds:
            witness = {"kind": "factorial-bound", "k": k, "v_factorial": vk}
    equality = strict = checked = 0
    per_n_strict: dict[str, int] = {}
    for n in range(1, n_max + 1):
        vn = min(_vp_capped(n, p, K), K)
        eq_required = p > 2 or n % 2 == 1
        n_strict = 0
        for c in range(1, p):
            members = list(range(c, m, p))
            powers = [pow(x, n, m) for x in members]
            size = len(members)
            for i in range(size):
                xi = members[i]
                pi = powers[i]
                for j in range(i + 1, size):
                    vd = min(_vp_capped(members[j] - xi, p, K), K)
                    dpw = (powers[j] - pi) % m
                    va = _vp_capped(dpw, p, K)
                    expected = min(vn + vd, K)
                    checked += 1
                    if va == expected:
                        equality += 1
                    elif va > expected:
                        strict += 1
                        n_strict += 1
                        if eq_required and witness is None:
                            witness = {
                                "kind": "missing-equality",
                                "x": xi,
                                "y": members[j],
                                "n": n,
                                "observed": va,
                                "expected": expected,
                            }
                    else:
                        if witness is None:
                            witness = {
                                "kind": "inequality-violated",
                                "x": xi,
                                "y": members[j],
                                "n": n,
                                "observed": va,
                                "expected": expected,
                            }
        per_n_strict[str(n)] = n_strict

    annotations = {
        "pairs_checked": checked,
        "equality_pairs": equality,
        "strict_inequality_pairs": strict,
        "strict_pairs_by_exponent": per_n_strict,
        "equality_required_when": "p > 2, or p = 2 with odd n",
        "factorial_bound": factorial_rows,
    }
    status = "PASS" if witness is None else "FAIL"
    return _make_certificate("power-difference-scaling", parameters, status, annotations, witness)


# -- minimality criterion --------------------------------------------------------


def _sphere_reps(p: int, l: int, k: int) -> list[int]:
    step = p**l
    return [1 + t * step for t in range(1, p**k) if t % p != 0]


def _orbit_is_transitive(p: int, n: int, l: int, k: int) -> bool:
    """Walk the ball orbit of the least representative with plain powers."""
    m = p ** (l + k)
    reps = _sphere_reps(p, l, k)
    rep_set = set(reps)
    start = reps[0]
    seen = 1
    x = pow(start, n, m)
    while x != start:
        if x not in rep_set:
            raise DomainError(f"orbit left the sphere at ({p}, {n}, l={l}, k={k})")
        seen += 1
        if seen > len(reps):
            raise DomainError("orbit walk failed to close")
        x = pow(x, n, m)
    return seen == len(reps)


def _minimality_chunk(task: tuple) -> list[dict]:
    p, l_list, k_max, n_list = task
    out = []
    for n in n_list:
        gen = is_generator_mod_p2(n, p)
        dense = density_check(n, p, 2) and density_check(n, p, 3)
        for l in l_list:
            transitive_all = all(_orbit_is_transitive(p, n, l, k) for k in range(1, k_max + 1))
            out.append(
                {
                    "n": n,
                    "l": l,
                    "generator": gen,
                    "dense": dense,
                    "transitive_all_depths": transitive_all,
                    "agree": transitive_all == gen == dense,
                }
            )
    return out


def certify_minimality_criterion(
    p: int,
    l_list: tuple[int, ...] = (1, 2),
    k_max: int = 3,
    jobs: int = 1,
    residue_cap: int = DEFAULT_RESIDUE_CAP,
) -> Certificate:
    """For every unit n mod p^2: transitivity of the ball action at all depths
    k <= k_max must coincide with the mod-p^2 generator test and with the
    density of the generated set. Orbits are walked with plain integer powers,
    independently of the permutation kernels they validate.
    """
    if p == 2:
        raise DomainError("criterion undefined at p = 2")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if k_max < 2:
        raise DomainError("k_max must be at least 2")
    if not l_list:
        raise DomainError("need at least one sphere level")
    if min(l_list) < 1:
        raise DomainError("sphere level must be at least 1")
    deepest_count = (p - 1) * p ** (k_max - 1)
    if deepest_count > residue_cap or p * p > residue_cap:
        raise ResourceError(f"{deepest_count} balls per sweep exceed cap {residue_cap}")
    units = [n for n in range(1, p * p) if n % p != 0]
    if jobs > 1:
        tasks = [(p, tuple(l_list), k_max, units[i::jobs]) for i in range(min(jobs, len(units)))]
        with ProcessPoolExecutor(max_workers=min(len(tasks), os.cpu_count() or 1)) as pool:
            results = [case for part in pool.map(_minimality_chunk, tasks) for case in part]
        results.sort(key=lambda c: (c["n"], c["l"]))
    else:
        results = _minimality_chunk((p, tuple(l_list), k_max, units))

    disagreements = [c for c in results if not c["agree"]]
    annotations = {
        "cases": len(results),
        "minimal_cases": sum(1 for c in results if c["generator"]),
        "agreements": len(results) - len(disagreements),
    }
    witness = None if not disagreements else {"kind": "criterion-disagreement", "cases": disagreements[:10]}
    parameters = {"p": p, "l_list": list(l_list), "k_max": k_max}
    status = "PASS" if witness is None else "FAIL"
    return _make_certificate("minimality-criterion", parameters, status, annotations, witness)


# -- unique invariant distribution ------------------------------------------------


def rational_nullspace(
    rows: list[dict[int, Fraction]], num_vars: int
) -> tuple[int, list[list[Fraction]]]:
    """Nullspace of a sparse rational matrix by exact Gauss-Jordan elimination.

    Rows are {column: coefficient} dicts; returns (rank, basis vectors). A
    column incidence index keeps elimination proportional to the fill-in, so
    permutation-difference systems stay linear in practice.
    """
    work: list[dict[int, Fraction]] = [dict(r) for r in rows if r]
    incidence: dict[int, set[int]] = {}
    for ridx, row in enumerate(work):
        for col in row:
            incidence.setdefault(col, set()).add(ridx)
    pivot_row_of: dict[int, int] = {}
    pivot_rows: set[int] = set()
    for col in range(num_vars):
        candidates = [r for r in incidence.get(col, ()) if r not in pivot_rows]
        if not candidates:
            continue
        r0 = min(candidates, key=lambda r: (len(work[r]), r))
        row = work[r0]
        lead = row[col]
        if lead != 1:
            for c in row:
                row[c] /= lead
        for r in list(incidence.get(col, ())):
            if r == r0:
                continue
            other = work[r]
            factor = other[col]
            for c, v in row.items():
                nv = other.get(c, Fraction(0)) - factor * v
                if nv == 0:
                    if c in other:
                        del other[c]
                        incidence[c].discard(r)
                else:
                    if c not in other:
                        incidence.setdefault(c, set()).add(r)
                    other[c] = nv
        pivot_row_of[col] = r0
        pivot_rows.add(r0)
    rank = len(pivot_row_of)
    basis = []
    for free in (c for c in range(num_vars) if c not in pivot_row_of):
        vec = [Fraction(0)] * num_vars
        vec[free] = Fraction(1)
        for col, r in pivot_row_of.items():
            coeff = work[r].get(free)
            if coeff:
                vec[col] = -coeff
        basis.append(vec)
    return rank, basis


def _independent_ball_permutation(p: int, n: int, l: int, k: int) -> list[int]:
    m = p ** (l + k)
    reps = _sphere_reps(p, l, k)
    index = {r: i for i, r in enumerate(reps)}
    mapping = []
    for r in reps:
        img = pow(r, n, m)
        if img not in index:
            raise DomainError(f"ball image {img} off the sphere at ({p}, {n}, l={l}, k={k})")
        mapping.append(index[img])
    if sorted(mapping) != list(range(len(reps))):
        raise DomainError("ball map is not a bijection")
    return mapping


def certify_unique_invariance(
    p: int, n: int, l: int, k: int, residue_cap: int = DEFAULT_RESIDUE_CAP
) -> Certificate:
    """Solve for all ball-weight vectors invariant under the induced
    permutation, by exact rational elimination.

    The solution space must be spanned by cycle indicators: one-dimensional
    and uniform exactly when the action is transitive; otherwise a non-uniform
    invariant probability vector is exhibited as the witness of non-unique
    invariance (and hence of non-ergodicity).
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if l < 1:
        raise DomainError("sphere level must be at least 1")
    if p == 2:
        raise DomainError("criterion undefined at p = 2")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if gcd(n, p) != 1:
        raise DomainError(f"{n} is not a unit mod {p}")
    if n < 1:
        raise DomainError("exponent must be at least 1")
    if p ** (l + k) > residue_cap:
        raise ResourceError(f"modulus {p ** (l + k)} exceeds residue cap {residue_cap}")

    mapping = _independent_ball_permutation(p, n, l, k)
    count = len(mapping)
    rows = []
    for i, j in enumerate(mapping):
        if i != j:
            rows.append({i: Fraction(-1), j: Fraction(1)})
    rank, basis = rational_nullspace(rows, count)
    nullity = count - rank

    # Cycle count, walked independently of the elimination.
    visited = bytearray(count)
    cycles = []
    for i in range(count):
        if visited[i]:
            continue
        j = i
        members = []
        while not visited[j]:
            visited[j] = 1
            members.append(j)
            j = mapping[j]
        cycles.append(members)

    transitive = len(cycles) == 1
    uniform_unique = nullity == 1 and all(v == basis[0][0] for v in basis[0])
    consistent = nullity == len(cycles) and (uniform_unique == transitive)

    witness = None
    annotations: dict = {
        "ball_count": count,
        "nullity": nullity,
        "cycle_count": len(cycles),
        "transitive": transitive,
        "unique_invariant_vector_is_uniform": uniform_unique,
    }
    if transitive and consistent:
        annotations["invariant_vector"] = f"1/{count} on every ball"
    if not transitive and consistent:
        support = set(cycles[0])
        ok = all((i in support) == (mapping[i] in support) for i in range(count))
        consistent = consistent and ok and len(support) < count
        reps = _sphere_reps(p, l, k)
        witness = {
            "kind": "non-uniform-invariant-vector",
            "support_ball_centers": sorted(reps[i] for i in support),
            "weight_on_support": f"1/{len(support)}",
            "weight_off_support": "0",
        }
    if not consistent and witness is None:
        witness = {"kind": "solver-disagreement", "nullity": nullity, "cycles": len(cycles)}

    parameters = {"p": p, "n": n, "l": l, "k": k}
    status = "PASS" if consistent else "FAIL"
    return _make_certificate(
        "unique-invariant-distribution", parameters, status, annotations, witness
    )


# -- generator level consistency ---------------------------------------------------


def certify_generator_consistency(
    p: int, l_max: int = 5, residue_cap: int = DEFAULT_RESIDUE_CAP
) -> Certificate:
    """For every unit n mod p^2 and every 2 <= l <= l_max: n generates the
    units mod p^l exactly when it generates them mod p^2.

    Orders are recomputed here by walking the full multiplicative cycle (set
    cardinality), then compared against the factored-descent fast path.
    """
    if p == 2:
        raise DomainError("consistency undefined at p = 2")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if l_max < 2:
        raise DomainError("l_max must be at least 2")
    if p**l_max > residue_cap:
        raise ResourceError(f"p^l_max = {p ** l_max} exceeds residue cap {residue_cap}")

    witness = None
    cases = 0
    generators = 0
    for n in range(1, p * p):
        if n % p == 0:
            continue
        cases += 1
        gen_flags = []
        for l in range(2, l_max + 1):
            modulus = p**l
            group_order = (p - 1) * p ** (l - 1)
            x = n % modulus
            order = 1
            while x != 1:
                x = (x * n) % modulus
                order += 1
            fast = multiplicative_order(n, p, l)
            if fast != order:
                witness = witness or {
                    "kind": "order-disagreement",
                    "n": n,
                    "l": l,
                    "walked": order,
                    "descent": fast,
                }
            gen_flags.append(order == group_order)
        if any(flag != gen_flags[0] for flag in gen_flags):
            witness = witness or {"kind": "level-inconsistency", "n": n, "flags": gen_flags}
        if gen_flags[0]:
            generators += 1

    parameters = {"p": p, "l_max": l_max}
    annotations = {"units_checked": cases, "generators_mod_p2": generators}
    status = "PASS" if witness is None else "FAIL"
    return _make_certificate(
        "generator-level-consistency", parameters, status, annotations, witness
    )


# -- the logarithm is an isometry ----------------------------------------------------


def certify_log_isometry(
    p: int, K: int, residue_cap: int = DEFAULT_RESIDUE_CAP
) -> Certificate:
    """Exhaustively certify dist(log x, log y) = dist(x, y) on 1 + pZ mod p^K.

    Equivalent partition form, linear instead of quadratic: for every level v,
    two points are congruent mod p^v exactly when their logarithms are. The
    logarithm values come from the series implementation under test; the
    congruence bookkeeping here is plain dictionaries.
    """
    if p == 2:
        raise DomainError("the isometry domain used here needs odd p")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if K < 2:
        raise DomainError("need K >= 2")
    m = p**K
    if m > residue_cap:
        raise ResourceError(f"p^K = {m} exceeds residue cap {residue_cap}")

    points = list(range(1, m, p))
    logs = dict(zip(points, padic_log_residues(p, K, points)))
    witness = None
    for r, lg in logs.items():
        if lg % p != 0:
            witness = witness or {"kind": "log-off-domain", "x": r, "log": lg}
    for v in range(1, K + 1):
        q = p**v
        classes: dict[int, int] = {}
        image_classes: dict[int, int] = {}
        for r in points:
            xc, lc = r % q, logs[r] % q
            if xc in classes:
                if classes[xc] != lc:
                    witness = witness or {
                        "kind": "log-spreads-a-class",
                        "level": v,
                        "x_class": xc,
                    }
            else:
                classes[xc] = lc
        for xc, lc in classes.items():
            if lc in image_classes:
                witness = witness or {
                    "kind": "log-merges-classes",
                    "level": v,
                    "classes": [image_classes[lc], xc],
                }
            else:
                image_classes[lc] = xc

    parameters = {"p": p, "K": K}
    annotations = {"points": len(points), "levels_checked": K}
    status = "PASS" if witness is None else "FAIL"
    return _make_certificate("log-isometry", parameters, status, annotations, witness)
