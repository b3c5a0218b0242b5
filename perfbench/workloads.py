"""Seeded operation lists for the three benchmark workloads.

Every workload is a fixed pool of operations, grouped into slots by cost.
A round draws two operations from each slot of the workload's round
template, in a fixed order, so every stretch of the op list has about the
same mix of costs and only the concrete inputs (prime, exponent, sphere
level) change with the seed. The pools are
finite and fixed, so that ``golden.json`` can hold the output digest of
every operation any seed can draw.

An operation is a plain dict that the worker can execute:

* ``{"kind": "cli", "argv": [...]}`` calls ``padicdyn.cli.main(argv)``;
* ``{"kind": "lib", "call": name, "args": {...}}`` calls one library entry
  point for which the CLI has no command (see ``worker._lib_calls``).

``check`` names the independent answer ``checks.py`` compares it against.

Why each workload, and what ROADMAP items 2-4 (2: closed-form cycle
structure; 3: pointer-jumping cycle scans and array-native ball maps; 4: a
cached primality test) are predicted to do to it:

* ``verdicts`` - ``analyze --format json``, the paper's headline computation.
  It runs through the dynamics partition, permutation and cycle code, the
  kernels and the CLI emit; it calls no oracle and almost no analysis.
  Items 2 and 3 should raise throughput and lower latency here, through
  ``kernels.cycle_info`` and ``dynamics.induced_permutation``; item 4
  should leave it flat.
* ``nonmixing`` - ``product_nonmixing_report``, the sigma x sigma pair walk,
  the slowest path of the repo, plus the padic_log ratio table. Items 2 and
  3 should move ``kernels.pair_cycle_info`` (throughput and peak RSS);
  item 4 should leave it flat. It never touches the CLI or the oracle.
* ``oracle-bigint`` - the work that runs on Python integers: the oracle
  certificates, orbit tables, perturbations, big-int ``analyze``, roots and
  the analytic functions at primes up to ~10^12. Items 2 and 3 should leave
  it flat (it is their control); item 4 should lower its latency through
  ``padic.is_prime``.

Per layer (metric names as in BENCHMARK.json), the end-to-end metric each
should move, where, and where it should stay flat:

==========  ===================================  ====================  =================
layer       moves                                on                    flat on
==========  ===================================  ====================  =================
cli         latency_tail_s (main.self_s,         verdicts              nonmixing
            main.out_bytes: the JSON emit)
dynamics    throughput, latency_p50_s            verdicts; orbit,      -
            (sphere_partition, induced_          perturb and big-int
            permutation, minimality_verdict)     ops of oracle-bigint
kernels     throughput (cycle_info); throughput  verdicts, nonmixing   oracle-bigint
            and peak_rss_mb (pair_cycle_info)
unitgroups  latency_tail_s                       verdicts,             nonmixing
                                                 oracle-bigint
analysis    latency_p50_s                        oracle-bigint         verdicts
padic       latency_p50_s (is_prime)             oracle-bigint         verdicts
oracle      throughput                           oracle-bigint         verdicts, nonmixing
==========  ===================================  ====================  =================

The oracle is never called on verdicts or nonmixing: it must stay
independent of the fast path it checks.
"""

from __future__ import annotations

import random
from functools import lru_cache

from sympy import nextprime, primerange, prevprime
from sympy.ntheory import n_order

# isqrt(2^63 - 1), the largest modulus the int64 kernels accept.
INT64_SAFE_MODULUS = 3_037_000_499

WORKLOADS = ("verdicts", "nonmixing", "oracle-bigint")

# Length of the op list; runs stop long before its end.
MAX_ROUNDS = 100


def _is_generator(n: int, p: int) -> bool:
    return n_order(n, p * p) == p * (p - 1)


def _spread(items: list, count: int) -> list:
    """Up to ``count`` items picked evenly from a list, ends included."""
    if len(items) <= count:
        return list(items)
    step = (len(items) - 1) / (count - 1)
    return [items[round(i * step)] for i in range(count)]


def _exponents(p: int, gens: int, nongens: int, modulus: int = 0, min_order: int = 1) -> list[int]:
    """The first ``gens`` generators and the first ``nongens`` non-generators
    mod p^2 (n >= 2, coprime to p), non-generators only with order at least
    ``min_order`` mod ``modulus``."""
    out_g, out_n = [], []
    n = 2
    while len(out_g) < gens or len(out_n) < nongens:
        if n % p != 0:
            if _is_generator(n, p):
                if len(out_g) < gens:
                    out_g.append(n)
            elif len(out_n) < nongens and n_order(n, modulus or p * p) >= min_order:
                out_n.append(n)
        n += 1
    return out_g + out_n


def _op_cli(argv: list[str], check: str) -> dict:
    return {"kind": "cli", "argv": argv, "check": check}


def _op_lib(call: str, args: dict, check: str) -> dict:
    return {"kind": "lib", "call": call, "args": args, "check": check}


def op_key(op: dict) -> str:
    """Stable identity of an operation; the key of its golden digest."""
    if op["kind"] == "cli":
        return "cli " + " ".join(op["argv"])
    args = ",".join(f"{k}={op['args'][k]}" for k in sorted(op["args"]))
    return f"lib {op['call']} {args}"


# -- verdicts -----------------------------------------------------------------

# (slot, [(depth, smallest prime, largest prime), ...]): every sphere level
# that stays within int64 moduli and two exponents, at up to three primes.
# The deepest partition has (p-1)p^(depth-1) balls: ~1e6 for heavy (the ball
# cap) and 6e4-2.7e5 for mid.
_VERDICT_BANDS = {
    "heavy-d2": ((2, 971, 997),),
    "mid-d2-d6": ((2, 245, 347), (6, 7, 7)),
    "mid-d4-d11": ((4, 23, 23), (11, 3, 3)),
}

# (slot, [(depth, p, l), ...]): one op per case, with the first generator or
# non-generator. The graded slots step up from 1.3e5 to 9e5 balls, so that
# their costs overlap into one continuous range of about 0.15-1.0 s. Each
# slot list holds four ops, which a run deals out in full at least once, so
# the mix varies little with the seed. Eight of the eleven slots are graded:
# the median falls between graded-b and graded-c and the tail percentile
# (about the 80th) inside graded-d, both in the middle of that range. A
# narrow class there would not do: the speed of a shared host changes in
# phases of several seconds, and the median of ops of one cost is the median
# phase of the run, which jumps between phases from run to run; over a wide
# range of costs it moves smoothly, like the mean. Depth 2 stays out of the
# graded slots, since there the generated set mod p^2 is as large as the
# partition and splits generators from non-generators.
_GRADED = {
    "graded-a": ((4, 19, 3), (3, 53, 1), (3, 59, 2), (3, 61, 1)),
    "graded-b": ((3, 67, 2), (5, 13, 3), (3, 71, 1), (3, 73, 2)),
    "graded-c": ((3, 79, 1), (3, 83, 1), (4, 29, 2), (3, 89, 1)),
    "graded-d": ((7, 7, 3), (4, 31, 1), (3, 97, 1), (4, 31, 2)),
}

_VERDICT_TEMPLATE = ("heavy-d2", "graded-a", "graded-c", "mid-d2-d6", "graded-b", "graded-d",
                     "graded-a", "mid-d4-d11", "graded-c", "graded-b", "graded-d")


def _analyze(p: int, n: int, l: int, depth: int) -> dict:
    argv = ["analyze", "--p", str(p), "--n", str(n), "--l", str(l), "--depth", str(depth),
            "--format", "json"]
    return _op_cli(argv, "verdict")


def _verdict_ops(depth: int, pmin: int, pmax: int, generator: bool) -> list[dict]:
    ops = []
    for p in _spread(list(primerange(pmin, pmax + 1)), 3):
        levels = [l for l in (1, 2, 3) if p ** (l + depth) <= INT64_SAFE_MODULUS]
        exps = _exponents(p, 2, 0) if generator else _exponents(p, 0, 2, p * p)
        ops += [_analyze(p, n, l, depth) for l in levels for n in exps]
    return ops


def _graded_ops(cases, generator: bool) -> list[dict]:
    return [_analyze(p, (_exponents(p, 1, 0) if generator else _exponents(p, 0, 1))[0], l, depth)
            for depth, p, l in cases]


def _verdict_slots() -> list[tuple[str, list[dict], list[dict]]]:
    out = []
    for name in _VERDICT_TEMPLATE:
        if name in _GRADED:
            out.append((name, _graded_ops(_GRADED[name], True), _graded_ops(_GRADED[name], False)))
        else:
            bands = _VERDICT_BANDS[name]
            out.append((name, [op for band in bands for op in _verdict_ops(*band, True)],
                        [op for band in bands for op in _verdict_ops(*band, False)]))
    return out


# -- nonmixing ------------------------------------------------------------------

# (slot, [(p, k), ...]): m = (p-1)p^(k-1) balls and m^2 ball pairs. Op
# costs grow with m^2 and vary with n and l, so the four upper slots, m 812
# (p29), 930 (p31), 1210 (p11k3) and 1332 (p37), overlap into one continuous
# range of about 0.2-0.9 s; the lower slots, m 272-506, stay below 0.15 s.
# The median falls between p31 and p11k3 and the tail percentile (about the
# 85th) inside p37, both in the middle of that range. A narrow class there
# would not do: the speed of a shared host changes in phases of several
# seconds, and the median of ops of one cost is the median phase of the run,
# which jumps between phases from run to run; over a wide range of costs it
# moves smoothly, like the mean. The pair cap allows m up to 2236, but the peak
# RSS of runs that include such ops varies by a third with the order of the
# ops before them, so the largest class stays at m ~ 1300.
_LOWER = ((17, 2), (19, 2), (7, 3), (23, 2))
_NONMIXING_BANDS = (
    ("p37", ((37, 2),)),
    ("p31", ((31, 2),)),
    ("lower", _LOWER),
    ("p11k3", ((11, 3),)),
    ("p29", ((29, 2),)),
    ("p37", ((37, 2),)),
    ("p31", ((31, 2),)),
    ("lower", _LOWER),
    ("p11k3", ((11, 3),)),
    ("p29", ((29, 2),)),
)


def _nonmixing_ops(cases, generator: bool) -> list[dict]:
    ops = []
    for p, k in cases:
        m = (p - 1) * p ** (k - 1)
        # Non-generators of order >= m/8 keep the cycle lists (m^2/order
        # entries) within a few times those of a generator.
        exps = _exponents(p, 2, 0) if generator else _exponents(p, 0, 2, p**k, m // 8)
        for l in (1, 2):
            for n in exps:
                ops.append(_op_lib("nonmixing", {"p": p, "n": n, "l": l, "k": k}, "nonmixing"))
    return ops


def _nonmixing_slots() -> list[tuple[str, list[dict], list[dict]]]:
    return [
        (name, _nonmixing_ops(cases, True), _nonmixing_ops(cases, False))
        for name, cases in _NONMIXING_BANDS
    ]


# -- oracle-bigint ----------------------------------------------------------------


def _verify(claim: str, *args: str) -> dict:
    argv = ["verify", claim, *args, "--format", "json"]
    if claim == "minimal":
        argv[-2:-2] = ["--jobs", "1"]
    return _op_cli(argv, "certificates")


def _analytic_primes() -> list[list[int]]:
    """Two primes on each side of 10^e, for e = 4, 6, 8, 10, 12."""
    out = []
    for e in (4, 6, 8, 10, 12):
        below = prevprime(10**e)
        above = nextprime(10**e)
        out.append([prevprime(below), below, above, nextprime(above)])
    return out


def _oracle_slots() -> list[tuple[str, list[dict], list[dict]]]:
    power_scaling = [
        _verify("power-scaling", "--p", p, "--K", K, "--n-max", nm)
        for p, K, nm in (("3", "6", "4"), ("13", "3", "1"), ("5", "4", "7"), ("11", "3", "4"))
    ]
    generation = [
        _verify("generation", "--p", p, "--l-max", lm)
        for p, lm in (("13", "4"), ("7", "6"), ("3", "12"))
    ]
    minimal = [
        _verify("minimal", "--p", p, "--depth", d, "--l", ls)
        for p, d, ls in (("13", "3", "1"), ("7", "5", "1"), ("11", "3", "1,2"), ("5", "6", "1,2,3"))
    ]
    unique = [
        _verify("unique", "--p", p, "--n", n, "--l", ls, "--k", k)
        for p, n, ls, k in (("7", "3", "1", "4"), ("11", "2", "1,2", "3"), ("5", "2", "1", "5"),
                            ("13", "4", "1", "3"))
    ]
    log_isometry = [
        _verify("log-isometry", "--p", p, "--K", K)
        for p, K in (("7", "6"), ("11", "5"), ("5", "7"))
    ]
    analyze_bigint = [
        _op_cli(["analyze", "--p", p, "--n", n, "--l", l, "--depth", d, "--format", "json"], "verdict")
        for p, n, l, d in (("3", "2", "10", "11"), ("11", "2", "5", "5"), ("7", "3", "6", "6"))
    ]
    orbit = [
        _op_cli(["orbit", "--p", p, "--n", n, "--l", l, "--x0", x0, "--steps", s, "--depth", d,
                 "--format", "json"], "orbit")
        for p, n, l, x0, s, d in (("5", "2", "1", "6", "2000", "3"), ("3", "2", "1", "4", "1000", "5"),
                                  ("7", "3", "2", "50", "4000", "2"), ("11", "2", "1", "12", "2000", "2"))
    ]
    perturb = [
        _op_cli(["perturb", "--p", p, "--n", n, "--l", l, "--q", q, "--depth", d, "--steps", "8",
                 "--format", "json"], "perturb")
        for p, n, l, q, d in (("13", "2", "2", "28561", "4"), ("7", "3", "1", "343,343", "5"),
                              ("5", "2", "2", "625,0,625", "6"), ("11", "2", "1", "1331", "4"))
    ]
    marginal = [
        _op_cli(["perturb", "--p", p, "--n", n, "--l", l, "--q", q, "--depth", d, "--marginal",
                 "--format", "json"], "marginal")
        for p, n, l, q, d in (("13", "2", "1", "169", "4"), ("7", "3", "1", "49,49", "5"),
                              ("5", "2", "2", "125", "6"), ("11", "2", "1", "121", "4"))
    ]
    roots = [
        _op_cli(["roots", "--p", str(p), "--d", d, "--K", "8", "--format", "json"], "roots")
        for p, d in ((100003, "6"), (99991, "10"), (30011, "2"), (65537, "16"))
    ]
    e4, e6, e8, e10, e12 = _analytic_primes()

    def pow_padic(tier):
        return [_op_lib("pow_padic", {"p": p, "K": 4, "x": 1 + c * p, "a": a}, "pow_padic")
                for p in tier for c, a in ((2, 12345), (7, -3))]

    def teichmuller(tier):
        return [_op_lib("teichmuller", {"p": p, "K": 6, "x": x}, "teichmuller")
                for p in tier for x in (2, 3 + 5 * p)]

    def log_exp(tier):
        return [_op_lib("log_exp", {"p": p, "K": 5, "x": 1 + c * p, "y": c * p}, "log_exp")
                for p in tier for c in (3, 11)]

    # The ops below 0.1 s share a few slots, so that the median op falls in
    # the 0.1-0.3 s class of the certificates instead of between classes.
    slots = [
        ("power-scaling", power_scaling),
        ("generation", generation),
        ("minimal", minimal),
        ("unique", unique),
        ("log-isometry", log_isometry),
        ("analyze-bigint", analyze_bigint),
        ("pow-padic-1e12", pow_padic(e12)),
        ("log-exp-1e12", log_exp(e12)),
        ("orbit", orbit),
        ("perturb", perturb + marginal),
        ("analytic-1e8-1e10", pow_padic(e10) + teichmuller(e12) + pow_padic(e8)),
        ("small", roots + teichmuller(e6) + log_exp(e4)),
    ]
    # Both draws of an oracle-bigint slot come from one list.
    return [(name, ops, ops) for name, ops in slots]


@lru_cache(maxsize=None)
def slots(workload: str) -> tuple[tuple[str, tuple[dict, ...], tuple[dict, ...]], ...]:
    """The round template: (slot name, first list, second list).

    A round draws one op from each list of every slot. In verdicts and
    nonmixing the first list holds generator exponents and the second
    non-generators, so every round is half generators.
    """
    build = {"verdicts": _verdict_slots, "nonmixing": _nonmixing_slots,
             "oracle-bigint": _oracle_slots}[workload]
    return tuple((name, tuple(a), tuple(b)) for name, a, b in build())


def pool(workload: str) -> list[dict]:
    """Every operation a seed can draw, without repeats."""
    seen: dict[str, dict] = {}
    for _, first, second in slots(workload):
        for op in first + second:
            seen.setdefault(op_key(op), op)
    return list(seen.values())


def op_list(workload: str, seed: int) -> list[dict]:
    """The seeded op list: rounds of one draw from each slot's first list,
    then one from each slot's second list, in template order.

    Each distinct list is dealt like a deck: its draws run through a fresh
    shuffle of it before any op repeats, so that even a short run covers
    every list evenly and its cost varies little with the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    template = slots(workload)
    order = [first for _, first, _ in template] + [second for _, _, second in template]
    keys = [tuple(map(op_key, ops)) for ops in order]
    decks: dict[tuple, list[dict]] = {}
    out = []
    for _ in range(MAX_ROUNDS):
        for ops, key in zip(order, keys):
            deck = decks.setdefault(key, [])
            if not deck:
                deck += rng.sample(ops, len(ops))
            out.append(deck.pop())
    return out
