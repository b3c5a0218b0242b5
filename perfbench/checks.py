"""Independent answers for every benchmark op.

Expected values come from sympy's number theory (``n_order``, ``totient``,
``isprime``) or from plain-Python recomputation here, never from padicdyn.
Each check takes the op and its output bytes and returns a list of problems;
an empty list means the answer is right. Byte-for-byte equality with the
golden capture is checked separately, in ``run.py``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd

from sympy import isprime, totient
from sympy.ntheory import n_order


def _argv_value(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _is_generator(n: int, p: int) -> bool:
    return n_order(n, p * p) == p * (p - 1)


def check_verdict(op: dict, data: bytes) -> list[str]:
    """analyze: the verdict, ball counts and cycle lengths from orders."""
    argv = op["argv"]
    p, n = int(_argv_value(argv, "--p")), int(_argv_value(argv, "--n"))
    depth = int(_argv_value(argv, "--depth"))
    res = json.loads(data)["results"]
    problems: list[str] = []
    minimal = _is_generator(n, p)
    v = res["verdict"]
    _expect(problems, v["minimal"] == v["uniquely_ergodic"] == v["ergodic"] == minimal,
            f"verdict {v} but generator mod p^2 is {minimal}")
    order2 = n_order(n, p * p)
    _expect(problems, res["generator"]["element_order"] == order2, "order of n mod p^2")
    gen_set = res["generated_mod_p2"]
    _expect(problems, len(gen_set) == order2, "size of the generated set mod p^2")
    _expect(problems, all(a < b for a, b in zip(gen_set, gen_set[1:])), "generated set order")
    _expect(problems, len(res["depths"]) == depth, "number of depths")
    fixed_ball = False
    for k, d in enumerate(res["depths"], start=1):
        balls = (p - 1) * p ** (k - 1)
        o = n_order(n, p**k)
        fixed_ball = fixed_ball or o == 1
        _expect(problems, d["depth"] == k and d["ball_count"] == balls, f"ball count at depth {k}")
        _expect(problems, len(d["cycle_lengths"]) == balls // o
                and all(c == o for c in d["cycle_lengths"]), f"cycle lengths at depth {k}")
        _expect(problems, d["transitive"] == (o == balls), f"transitivity at depth {k}")
        _expect(problems, Fraction(d["haar_ball_measure"]) == Fraction(1, balls),
                f"ball measure at depth {k}")
    _expect(problems, (res["invariant_ball"] is not None) == fixed_ball, "invariant ball")
    return problems


def check_nonmixing(op: dict, data: bytes) -> list[str]:
    """product_nonmixing_report: M^2/o cycles of length o = ord(n mod p^k)."""
    a = op["args"]
    p, n, k = a["p"], a["n"], a["k"]
    res = json.loads(data)
    m = (p - 1) * p ** (k - 1)
    o = n_order(n, p**k)
    problems: list[str] = []
    _expect(problems, res["ball_count"] == m and res["pair_count"] == m * m, "ball and pair counts")
    _expect(problems, res["cycle_length_multiplicities"] == [[o, m * m // o]],
            f"cycle multiplicities {res['cycle_length_multiplicities'][:3]}, want {[[o, m * m // o]]}")
    _expect(problems, res["cycle_count"] == m * m // o, "cycle count")
    _expect(problems, res["product_transitive"] is (m * m == o), "product transitivity")
    _expect(problems, res["log_linearity_ok"] is True, "log linearity")
    _expect(problems, res["log_ratio_invariant"] is True, "log ratio invariant")
    return problems


def check_certificates(op: dict, data: bytes) -> list[str]:
    """verify: every certificate PASS, and counts that follow from totients."""
    argv = op["argv"]
    claim = argv[1]
    primes = _int_list(_argv_value(argv, "--p"))
    levels = _int_list(_argv_value(argv, "--l", "1,2"))
    certs = json.loads(data)["results"]["certificates"]
    problems: list[str] = []
    for c in certs:
        _expect(problems, c["status"] == "PASS", f"{c['claim']} {c['parameters']} is {c['status']}")
    if claim == "unique":
        _expect(problems, len(certs) == len(primes) * len(levels), "certificate count")
    else:
        _expect(problems, len(certs) == len(primes), "certificate count")
    for c in certs:
        ann, par = c["annotations"], c["parameters"]
        p = par["p"]
        if claim == "generation":
            _expect(problems, ann["units_checked"] == p * (p - 1), "units checked")
            _expect(problems, ann["generators_mod_p2"] == totient(p * (p - 1)), "generator count")
        elif claim == "minimal":
            _expect(problems, ann["cases"] == p * (p - 1) * len(levels), "case count")
            _expect(problems, ann["minimal_cases"] == totient(p * (p - 1)) * len(levels),
                    "minimal case count")
        elif claim == "power-scaling":
            K, n_max = par["K"], par["n_max"]
            pairs = (p - 1) * comb(p ** (K - 1), 2) * n_max
            _expect(problems, ann["pairs_checked"] == pairs, "pairs checked")
        elif claim == "unique":
            k = par["k"]
            balls = (p - 1) * p ** (k - 1)
            o = n_order(par["n"], p**k)
            _expect(problems, ann["ball_count"] == balls and ann["cycle_count"] == balls // o,
                    "ball and cycle counts")
            _expect(problems, ann["transitive"] == (o == balls) and ann["nullity"] == balls // o,
                    "transitivity and nullity")
        elif claim == "log-isometry":
            _expect(problems, ann["points"] == p ** (par["K"] - 1), "point count")
    return problems


def check_orbit(op: dict, data: bytes) -> list[str]:
    """orbit: the orbit by plain powers, and every table row by counting."""
    argv = op["argv"]
    p, n, l = (int(_argv_value(argv, f)) for f in ("--p", "--n", "--l"))
    x0, steps, depth = (int(_argv_value(argv, f)) for f in ("--x0", "--steps", "--depth"))
    res = json.loads(data)
    precision = res["parameters"]["precision"]
    m = p**precision
    orbit = [x0 % m]
    for _ in range(steps - 1):
        orbit.append(pow(orbit[-1], n, m))
    results = res["results"]
    problems: list[str] = []
    _expect(problems, precision == l + depth + 2, "default precision")
    _expect(problems, results["orbit"] == orbit, "orbit residues")
    rows = results["birkhoff"]
    _expect(problems, len(rows) == sum((p - 1) * p ** (k - 1) for k in range(1, depth + 1)),
            "table rows")
    for row in rows:
        q = p ** row["radius_exponent"]
        hits = sum(1 for r in orbit if (r - row["ball_center"]) % q == 0)
        balls = (p - 1) * p ** (row["depth"] - 1)
        if Fraction(row["average"]) != Fraction(hits, steps) or Fraction(row["haar"]) != Fraction(1, balls):
            problems.append(f"average of ball {row['ball_center']} at depth {row['depth']}")
            break
    return problems


def check_perturb(op: dict, data: bytes) -> list[str]:
    argv = op["argv"]
    p, n, l = (int(_argv_value(argv, f)) for f in ("--p", "--n", "--l"))
    depth = int(_argv_value(argv, "--depth"))
    res = json.loads(data)["results"]
    problems: list[str] = []
    gen = _is_generator(n, p)
    nc = res["necessary_condition"]
    _expect(problems, nc["generator"] == gen and nc["depth2_transitive"] == gen and nc["agree"],
            "necessary condition")
    _expect(problems, nc["depth2_ball_count"] == p * (p - 1), "depth-2 ball count")
    _expect(problems, [r["depth"] for r in res["sphere_invariance"]] == list(range(1, depth + 1))
            and all(r["holds"] for r in res["sphere_invariance"]), "sphere invariance")
    _expect(problems, res["pointwise_vanishing"] is True, "pointwise vanishing")
    _expect(problems, res["congruence"]["asserted"] == (l >= 2), "congruence asserted")
    if l >= 2:
        _expect(problems, res["congruence"]["mismatch_count"] == 0, "congruence mismatches")
    return problems


def check_marginal(op: dict, data: bytes) -> list[str]:
    argv = op["argv"]
    p, n = int(_argv_value(argv, "--p")), int(_argv_value(argv, "--n"))
    depth = int(_argv_value(argv, "--depth"))
    res = json.loads(data)["results"]
    problems: list[str] = []
    _expect(problems, res["generator_mod_p2"] == _is_generator(n, p), "generator mod p^2")
    _expect(problems, [e["ball_count"] for e in res["per_depth"]]
            == [(p - 1) * p ** (k - 1) for k in range(1, depth + 1)], "ball counts")
    return problems


def check_roots(op: dict, data: bytes) -> list[str]:
    argv = op["argv"]
    p, d, K = (int(_argv_value(argv, f)) for f in ("--p", "--d", "--K"))
    res = json.loads(data)["results"]
    m = p**K
    residues = [r["residue"] for r in res["roots"]]
    problems: list[str] = []
    _expect(problems, res["count"] == len(residues) == gcd(d, p - 1), "root count")
    _expect(problems, len(set(r % p for r in residues)) == len(residues), "distinct roots mod p")
    _expect(problems, all(pow(r, d, m) == 1 for r in residues), "x^d = 1 mod p^K")
    return problems


def check_pow_padic(op: dict, data: bytes) -> list[str]:
    a = op["args"]
    m = a["p"] ** a["K"]
    res = json.loads(data)
    problems: list[str] = []
    _expect(problems, isprime(a["p"]), "input prime")
    _expect(problems, res["residue"] == pow(a["x"], a["a"] % m, m), "x^a mod p^K")
    return problems


def check_teichmuller(op: dict, data: bytes) -> list[str]:
    a = op["args"]
    p, K = a["p"], a["K"]
    m = p**K
    omega = json.loads(data)["residue"]
    # x^(p^(K-1)) agrees with the Teichmuller lift of x mod p^K.
    problems: list[str] = []
    _expect(problems, omega == pow(a["x"], p ** (K - 1), m), "Teichmuller lift")
    _expect(problems, pow(omega, p - 1, m) == 1, "(p-1)-th root of unity")
    return problems


def check_log_exp(op: dict, data: bytes) -> list[str]:
    """Truncated series; exact because every index below K is a unit mod p."""
    a = op["args"]
    p, K = a["p"], a["K"]
    m = p**K
    y = (a["x"] - 1) % m
    log = sum((-1) ** (k + 1) * pow(y, k, m) * pow(k, -1, m) for k in range(1, K + 1)) % m
    exp, term = 0, 1
    for k in range(K):
        exp = (exp + term) % m
        term = term * a["y"] * pow(k + 1, -1, m) % m
    res = json.loads(data)
    problems: list[str] = []
    _expect(problems, p > K + 1, "series indices are units")
    _expect(problems, res["log"] == log, "log mod p^K")
    _expect(problems, res["exp"] == exp, "exp mod p^K")
    return problems


CHECKS = {
    "verdict": check_verdict,
    "nonmixing": check_nonmixing,
    "certificates": check_certificates,
    "orbit": check_orbit,
    "perturb": check_perturb,
    "marginal": check_marginal,
    "roots": check_roots,
    "pow_padic": check_pow_padic,
    "teichmuller": check_teichmuller,
    "log_exp": check_log_exp,
}


def check(op: dict, data: bytes) -> list[str]:
    try:
        return CHECKS[op["check"]](op, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
