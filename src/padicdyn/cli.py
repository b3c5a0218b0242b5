"""Command-line front end: analyze, orbit, verify, perturb, roots.

Exit codes: 0 success, 1 usage error, 2 domain violation or cap exceeded,
3 verification failure. JSON output is deterministic: every report is an
envelope {tool_version, command, parameters, results} with sorted keys and
no timestamps, so identical invocations produce byte-identical bytes. Reports
are streamed in chunks; an int64 array stays an array until the kernel formats it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain, repeat
from math import gcd

import numpy as np

from . import __version__, kernels
from .analysis import roots_of_unity
from .dynamics import (
    MonomialSystem,
    PerturbedSystem,
    Polynomial,
    _depth_centers,
    haar_ball_measure,
    minimality_verdict,
    observe_marginal_perturbation,
    orbit_residues,
    perturbed_analysis,
)
from .padic import PadicInt
from .errors import DomainError, IntegrityError, ResourceError
from .oracle import (
    certify_generator_consistency,
    certify_log_isometry,
    certify_minimality_criterion,
    certify_power_scaling,
    certify_unique_invariance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

# "lemma1" is the historical alias for the power-difference scaling sweep.
VERIFY_CLAIMS = ("power-scaling", "lemma1", "generation", "minimal", "unique", "log-isometry")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(fr.numerator)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _envelope(command: str, parameters: dict, results: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "results": results,
    }


_SCALARS = {str, int, float, bool, type(None)}  # exact types: no subclasses


def _json_chunks(obj, indent: str = "\n"):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, in chunks. json
    encodes in Python when ``indent`` is set; here each list or dict of scalars is
    one C call, and a 1-d int64 array goes to :func:`kernels.json_int_chunks`."""
    inner = indent + "  "
    if isinstance(obj, np.ndarray) and not (obj.dtype == np.int64 and obj.ndim == 1 and obj.size):
        obj = obj.tolist()
    if isinstance(obj, np.ndarray):
        yield "[" + inner
        yield from kernels.json_int_chunks(obj, "," + inner)
        yield indent + "]"
    elif not isinstance(obj, (dict, list, tuple)) or not obj:
        yield json.dumps(obj)
    elif set(map(type, obj.values() if isinstance(obj, dict) else obj)) <= _SCALARS:
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        yield text[0] + inner + text[1:-1] + indent + text[-1]
    elif isinstance(obj, dict):
        for i, (k, v) in enumerate(sorted(obj.items())):
            key = json.dumps(k if isinstance(k, str) else json.dumps(k))
            yield ("," if i else "{") + inner + key + ": "
            yield from _json_chunks(v, inner)
        yield indent + "}"
    else:
        for i, v in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _json_chunks(v, inner)
        yield indent + "]"


def _dumps(obj) -> str:
    return "".join(_json_chunks(obj))


def _write_json(obj, *files) -> None:
    for chunk in chain(_json_chunks(obj), "\n"):
        for fh in files:
            fh.write(chunk)


def _emit(args, envelope: dict, text_lines: list[str]) -> None:
    if args.format == "text":
        print("\n".join(text_lines))
    stdout = [sys.stdout] if args.format == "json" else []
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            _write_json(envelope, *stdout, fh)
    elif stdout:
        _write_json(envelope, *stdout)


def build_parser() -> _Parser:
    parser = _Parser(prog="padicdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="also write the JSON report to this file")

    pa = sub.add_parser("analyze", parents=[], help="ergodicity verdict for x -> x^n on a sphere")
    pa.add_argument("--p", type=int, required=True)
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--l", type=int, default=1)
    pa.add_argument("--depth", type=int, default=4, help="check transitivity at depths 1..k")
    common(pa)

    po = sub.add_parser("orbit", help="orbit listing and exact Birkhoff averages")
    po.add_argument("--p", type=int, required=True)
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--l", type=int, default=1)
    po.add_argument("--x0", type=int, required=True)
    po.add_argument("--steps", type=int, required=True)
    po.add_argument("--depth", type=int, default=1, help="ball depths for the average table")
    po.add_argument("--precision", type=int, default=None, help="working digits (default l+depth+2)")
    common(po)

    pv = sub.add_parser("verify", help="run exhaustive certificates")
    pv.add_argument("claim", choices=VERIFY_CLAIMS)
    pv.add_argument("--p", type=_int_list, default=[3], help="prime or comma list of primes")
    pv.add_argument("--K", type=int, default=4, help="digit count for residue sweeps")
    pv.add_argument("--n-max", type=int, default=9, dest="n_max")
    pv.add_argument("--l", type=_int_list, default=[1, 2], help="sphere levels (comma list)")
    pv.add_argument("--l-max", type=int, default=4, dest="l_max", help="top level for generation")
    pv.add_argument("--depth", type=int, default=3, help="transitivity depth bound")
    pv.add_argument("--n", type=int, default=None, help="exponent (unique claim)")
    pv.add_argument("--k", type=int, default=2, help="partition depth (unique claim)")
    pv.add_argument("--max-residues", type=int, default=10**6, dest="max_residues")
    pv.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    common(pv)

    pp = sub.add_parser("perturb", help="analyze x -> x^n + q(x)")
    pp.add_argument("--p", type=int, required=True)
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--l", type=int, default=1)
    pp.add_argument("--q", type=_int_list, required=True, help='coefficients "c0,c1,..."')
    pp.add_argument("--depth", type=int, default=3)
    pp.add_argument("--steps", type=int, default=6, help="iterates for the congruence table")
    pp.add_argument(
        "--marginal",
        action="store_true",
        help="observational sweep for coefficients only one digit below the sphere "
        "(valuation l+1); tabulates behaviour, asserts nothing",
    )
    common(pp)

    pr = sub.add_parser("roots", help="roots of unity in Z_p at finite precision")
    pr.add_argument("--p", type=int, required=True)
    pr.add_argument("--d", type=int, required=True)
    pr.add_argument("--K", type=int, default=4)
    common(pr)

    return parser


# -- analyze -------------------------------------------------------------------


def _verdict_results(sys_: MonomialSystem, depth: int) -> dict:
    verdict = minimality_verdict(sys_, depth)
    ev = verdict.evidence
    gen = ev.generator
    depths = [
        {
            "depth": d.depth,
            "ball_count": d.ball_count,
            "cycle_lengths": list(chain.from_iterable(repeat(*pair) for pair in d.cycle_type)),
            "transitive": d.transitive,
            "haar_ball_measure": _frac(haar_ball_measure(sys_, d.depth)),
        }
        for d in ev.depths
    ]
    invariant = None
    if ev.invariant_ball is not None:
        k, center = ev.invariant_ball
        invariant = {"depth": k, "center": center, "radius_exponent": sys_.l + k}
    return {
        "verdict": {
            "minimal": verdict.minimal,
            "uniquely_ergodic": verdict.uniquely_ergodic,
            "ergodic": verdict.ergodic,
        },
        "generator": {
            "p": gen.p,
            "level": gen.l,
            "group_order": gen.group_order,
            "element": gen.element,
            "element_order": gen.element_order,
            "is_generator": gen.is_generator,
        },
        "generated_mod_p2": ev.generated_mod_p2,
        "depths": depths,
        "invariant_ball": invariant,
    }


def _cmd_analyze(args) -> int:
    sys_ = MonomialSystem(args.p, args.n, args.l)
    if args.depth < 2:
        raise DomainError("--depth must be at least 2")
    results = _verdict_results(sys_, args.depth)
    params = {"p": args.p, "n": args.n, "l": args.l, "depth": args.depth}
    generated = results["generated_mod_p2"]
    if generated.size > 24:
        shown = ", ".join(map(str, generated[:12].tolist()))
        generated_text = f"[{shown}, ...] ({generated.size} units)"
    else:
        generated_text = str(generated.tolist())
    lines = [
        f"system: x -> x^{args.n} on the sphere |x - 1| = {args.p}^-{args.l}",
        (
            f"unit group mod {args.p}^2: order {results['generator']['group_order']}, "
            f"element order {results['generator']['element_order']} -> "
            f"generator: {results['generator']['is_generator']}"
        ),
        f"generated set mod {args.p}^2: {generated_text}",
    ]
    for d in results["depths"]:
        lines.append(
            f"depth {d['depth']}: {d['ball_count']} balls, cycles {d['cycle_lengths']}, "
            f"transitive: {d['transitive']}, ball measure {d['haar_ball_measure']}"
        )
    if results["invariant_ball"] is not None:
        ib = results["invariant_ball"]
        lines.append(
            f"invariant ball: center {ib['center']}, radius {args.p}^-{ib['radius_exponent']}"
        )
    v = results["verdict"]
    lines.append(
        f"verdict: minimal={v['minimal']} uniquely_ergodic={v['uniquely_ergodic']} "
        f"ergodic={v['ergodic']}"
    )
    _emit(args, _envelope("analyze", params, results), lines)
    return EXIT_OK


# -- orbit ---------------------------------------------------------------------


def _cmd_orbit(args) -> int:
    if args.steps < 1:
        print("orbit: --steps must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    if args.depth < 1:
        print("orbit: --depth must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    sys_ = MonomialSystem(args.p, args.n, args.l)
    precision = args.l + args.depth + 2 if args.precision is None else args.precision
    x0 = PadicInt.from_integer(args.x0, args.p, precision)
    orbit = orbit_residues(sys_, x0, args.steps)
    # up to the first depth finer than the precision, so a cap refusal there still comes first
    depths = _depth_centers(sys_, min(args.depth, precision - args.l + 1))
    if args.l + args.depth > precision:
        raise DomainError("indicator is finer than the point's precision")
    table = []
    for part, centers in depths:
        k = part.depth
        ranks = part.indices_of(orbit)
        if k == 1:
            shadow = centers[ranks].tolist()
        haar = haar_ball_measure(sys_, k)
        visits = np.bincount(ranks, minlength=part.ball_count).tolist()
        for center, count in zip(centers.tolist(), visits):
            average = Fraction(count, args.steps)
            table.append(
                {
                    "depth": k,
                    "ball_center": center,
                    "radius_exponent": args.l + k,
                    "average": _frac(average),
                    "haar": _frac(haar),
                    "matches_haar": average == haar,
                }
            )
    params = {
        "p": args.p,
        "n": args.n,
        "l": args.l,
        "x0": args.x0,
        "steps": args.steps,
        "depth": args.depth,
        "precision": precision,
    }
    results = {"orbit": orbit, "depth1_ball_orbit": shadow, "birkhoff": table}
    lines = [f"orbit ({args.steps} points, residues mod {args.p}^{precision}):"]
    lines.append("  " + " ".join(str(r) for r in orbit))
    lines.append("depth-1 ball centers visited:")
    lines.append("  " + " ".join(str(r) for r in shadow))
    lines.append("ball averages over the orbit vs the flat sphere measure:")
    for row in table:
        lines.append(
            f"  depth {row['depth']} ball at {row['ball_center']} "
            f"(radius {args.p}^-{row['radius_exponent']}): average {row['average']}, "
            f"haar {row['haar']}"
        )
    _emit(args, _envelope("orbit", params, results), lines)
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _cmd_verify(args) -> int:
    claim = "power-scaling" if args.claim == "lemma1" else args.claim
    if not args.p:
        raise DomainError("need at least one prime")
    if claim == "unique" and not args.l:
        raise DomainError("need at least one sphere level")
    certs = []
    if claim == "power-scaling":
        for p in args.p:
            certs.append(
                certify_power_scaling(p, args.K, args.n_max, residue_cap=args.max_residues)
            )
    elif claim == "generation":
        for p in args.p:
            certs.append(
                certify_generator_consistency(p, args.l_max, residue_cap=args.max_residues)
            )
    elif claim == "minimal":
        for p in args.p:
            certs.append(
                certify_minimality_criterion(
                    p,
                    tuple(args.l),
                    args.depth,
                    jobs=args.jobs,
                    residue_cap=args.max_residues,
                )
            )
    elif claim == "unique":
        if args.n is None:
            raise DomainError("verify unique needs --n")
        for p in args.p:
            for l in args.l:
                certs.append(
                    certify_unique_invariance(p, args.n, l, args.k, residue_cap=args.max_residues)
                )
    elif claim == "log-isometry":
        for p in args.p:
            certs.append(certify_log_isometry(p, args.K, residue_cap=args.max_residues))

    params = {
        "claim": args.claim,
        "p": args.p,
        "K": args.K,
        "n_max": args.n_max,
        "l": args.l,
        "l_max": args.l_max,
        "depth": args.depth,
        "n": args.n,
        "k": args.k,
        "max_residues": args.max_residues,
    }
    results = {"certificates": [c.to_dict() for c in certs]}
    lines = []
    for c in certs:
        lines.append(f"{c.status}  {c.claim}  {json.dumps(c.parameters, sort_keys=True)}")
        compact = {k: v for k, v in c.annotations.items() if not isinstance(v, list)}
        if compact:
            lines.append(f"      annotations: {json.dumps(compact, sort_keys=True)}")
        if c.witness is not None:
            lines.append(f"      witness: {json.dumps(c.witness, sort_keys=True)}")
        lines.append(f"      digest: {c.digest}")
    all_pass = all(c.passed for c in certs)
    lines.append("all claims PASS" if all_pass else "verification FAILED")
    if args.format == "json":
        _write_json(_envelope("verify", params, results), sys.stdout)
    else:
        print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            for c in certs:
                fh.write(json.dumps(c.to_dict(), sort_keys=True))
                fh.write("\n")
    return EXIT_OK if all_pass else EXIT_VERIFY


# -- perturb ---------------------------------------------------------------------


def _cmd_perturb(args) -> int:
    if args.depth < 2:
        raise DomainError("--depth must be at least 2")
    if args.steps < 1:
        print("perturb: --steps must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    params = {
        "p": args.p,
        "n": args.n,
        "l": args.l,
        "q": args.q,
        "depth": args.depth,
        "steps": args.steps,
        "marginal": bool(args.marginal),
    }
    if args.marginal:
        obs = observe_marginal_perturbation(args.p, args.n, args.l, args.q, args.depth)
        lines = ["observational sweep (no verdict):"]
        for entry in obs["per_depth"]:
            lines.append(f"  {json.dumps(entry, sort_keys=True)}")
        lines.append(f"generator mod {args.p}^2: {obs['generator_mod_p2']}")
        _emit(args, _envelope("perturb", params, obs), lines)
        return EXIT_OK

    sys_ = MonomialSystem(args.p, args.n, args.l)
    precision = args.l + args.depth + 2
    poly = Polynomial.from_integers(args.q, args.p, precision)
    psys = PerturbedSystem(sys_, poly)
    rep = perturbed_analysis(psys, args.depth, args.steps)
    results = {
        "sphere_invariance": [{"depth": k, "holds": ok} for k, ok in rep.invariance_by_depth],
        "pointwise_vanishing": rep.pointwise_vanishing_ok,
        "congruence": {
            "asserted": rep.congruence_asserted,
            "checked": rep.congruence_checked,
            "mismatch_count": rep.congruence_mismatch_count,
            "mismatches": [
                {
                    "start": mm.start_residue,
                    "step": mm.step,
                    "observed": mm.observed,
                    "predicted": mm.predicted,
                }
                for mm in rep.congruence_mismatches
            ],
        },
        "necessary_condition": {
            "depth2_ball_count": rep.depth2_ball_count,
            "depth2_transitive": rep.depth2_transitive,
            "generator": rep.generator,
            "agree": rep.necessary_condition_agrees,
        },
    }
    lines = []
    for k, ok in rep.invariance_by_depth:
        lines.append(f"sphere invariance at depth {k}: {'holds' if ok else 'VIOLATED'}")
    if rep.congruence_asserted:
        lines.append(
            f"digit congruence (exact for l >= 2): "
            f"{'holds on all ' + str(rep.congruence_checked) + ' checks' if rep.congruence_ok else 'VIOLATED'}"
        )
    else:
        lines.append(
            f"digit congruence at l = 1 is reported, not asserted: "
            f"{rep.congruence_mismatch_count} mismatches in {rep.congruence_checked} checks"
        )
        for mm in rep.congruence_mismatches[:5]:
            lines.append(
                f"  start {mm.start_residue}, step {mm.step}: observed {mm.observed}, "
                f"leading-digit prediction {mm.predicted}"
            )
    nc = results["necessary_condition"]
    lines.append(
        f"necessary condition: transitive on {nc['depth2_ball_count']} depth-2 balls = "
        f"{nc['depth2_transitive']}, generator = {nc['generator']}, agree = {nc['agree']}"
    )
    _emit(args, _envelope("perturb", params, results), lines)
    return EXIT_OK


# -- roots -----------------------------------------------------------------------


def _cmd_roots(args) -> int:
    roots = roots_of_unity(args.d, args.p, args.K)
    count = gcd(args.d, args.p - 1)
    note = None
    if count == 1:
        note = (
            f"only the trivial root exists: gcd({args.d}, {args.p - 1}) = 1, and "
            f"Z_{args.p} contains nontrivial d-th roots of unity only when "
            f"gcd(d, p-1) > 1"
        )
    params = {"p": args.p, "d": args.d, "K": args.K}
    results = {
        "count": len(roots),
        "expected_count": count,
        "roots": [{"residue": r.residue, "digits": r.digit_text()} for r in roots],
        "note": note,
    }
    lines = [f"{len(roots)} root(s) of x^{args.d} = 1 in Z_{args.p} at {args.K} digits:"]
    for r in roots:
        lines.append(f"  {r.residue} = {r.digit_text()}")
    if note:
        lines.append(f"note: {note}")
    _emit(args, _envelope("roots", params, results), lines)
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
    "perturb": _cmd_perturb,
    "roots": _cmd_roots,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (DomainError, ResourceError) as exc:
        print(f"padicdyn {args.command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except IntegrityError as exc:
        print(f"padicdyn {args.command}: integrity failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
