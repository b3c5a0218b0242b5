"""CLI surface: subcommands, exit codes, JSON schema stability."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import __version__
from padicdyn.cli import _dumps, _envelope, _verdict_results, main
from padicdyn.dynamics import BallIndicator, MonomialSystem, birkhoff_average, sphere_partition
from padicdyn.oracle import Certificate
from padicdyn.padic import PadicInt


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


# -- analyze -----------------------------------------------------------------------


def test_analyze_minimal_case(capsys):
    code, doc, _ = run_json(capsys, "analyze", "--p", "3", "--n", "2", "--l", "1", "--depth", "3")
    assert code == 0
    assert set(doc) == {"tool_version", "command", "parameters", "results"}
    assert doc["tool_version"] == __version__
    v = doc["results"]["verdict"]
    assert v == {"minimal": True, "uniquely_ergodic": True, "ergodic": True}


def test_analyze_non_minimal_evidence(capsys):
    code, doc, _ = run_json(capsys, "analyze", "--p", "3", "--n", "4", "--l", "1")
    assert code == 0
    res = doc["results"]
    assert res["verdict"]["minimal"] is False
    assert res["generated_mod_p2"] == [1, 4, 7]
    assert res["invariant_ball"] == {"depth": 1, "center": 4, "radius_exponent": 2}


def test_analyze_lists_every_cycle_of_a_many_cycle_depth(capsys):
    # n = 1 + 3^10 has order 9 mod 3^12: 39,366 cycles of length 9 at depth 12
    code, doc, _ = run_json(capsys, "analyze", "--p", "3", "--n", "59050", "--l", "1", "--depth", "12")
    assert code == 0
    last = doc["results"]["depths"][-1]
    assert (last["depth"], last["ball_count"], last["transitive"]) == (12, 354294, False)
    assert last["cycle_lengths"] == [9] * 39366


def test_analyze_rejects_two(capsys):
    code, out, err = run_cli(capsys, "analyze", "--p", "2", "--n", "3", "--l", "1")
    assert code == 2
    assert "odd prime" in err


def test_analyze_rejects_non_unit_exponent(capsys):
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--n", "6", "--l", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["analyze", "--p", "1000000000000000003", "--n", "2", "--l", "1", "--depth", "2"],
            "padicdyn analyze: partition of 1000000000000000002 balls exceeds cap 1000000\n",
        ),
        (
            ["verify", "power-scaling", "--p", "1000000000000000003", "--K", "2", "--n-max", "1"],
            "padicdyn verify: p^K = 1000000000000000006000000000000000009 exceeds residue "
            "cap 1000000\n",
        ),
        (
            ["analyze", "--p", str(2**89 - 1), "--n", "2", "--l", "1", "--depth", "2"],
            "padicdyn analyze: primality of 618970019642690137449562111 is not decided at or "
            "above 3317044064679887385961981\n",
        ),
        (
            # prime, above 2**63: the sampled indices must not overflow int64 before the cap
            ["analyze", "--p", "10000000000000000051", "--n", "2", "--depth", "2"],
            "padicdyn analyze: partition of 10000000000000000050 balls exceeds cap 1000000\n",
        ),
    ],
)
def test_huge_primes_exit_two_at_once(capsys, argv, err):
    assert run_cli(capsys, *argv) == (2, "", err)



_ANALYZE = ["analyze", "--p", "3", "--n", "2", "--l", "1", "--depth", "14"]
_ORBIT = ["orbit", "--p", "3", "--n", "2", "--l", "1", "--x0", "4", "--steps", "5", "--depth", "14"]
_PERTURB = ["perturb", "--p", "3", "--n", "2", "--l", "1", "--q", "27", "--depth", "14"]
_BILLION_BALLS = [
    ["analyze", "--p", "1000000007", "--n", "5", "--l", "1", "--depth", "20"],
    ["orbit", "--p", "1000000007", "--n", "5", "--l", "1", "--x0", "1000000008", "--steps", "3",
     "--depth", "1"],
]


@pytest.mark.parametrize(
    "argv, balls",
    [(argv, 1000000006) for argv in _BILLION_BALLS]
    + [(_ORBIT, 1062882), (_PERTURB, 1062882), (_PERTURB + ["--marginal"], 1062882)]
    + [(_ANALYZE, 1062882)],
)
def test_every_ball_walk_refuses_partitions_beyond_the_cap(capsys, argv, balls):
    # At p = 3, depth 13 is the first with more than 10^6 balls. Every depth is
    # enumerated before any is mapped, so the refusal comes before the work.
    err = f"padicdyn {argv[0]}: partition of {balls} balls exceeds cap 1000000\n"
    tracemalloc.start()
    try:
        assert run_cli(capsys, *argv) == (2, "", err)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("argv", _BILLION_BALLS)
def test_the_cap_is_checked_before_anything_the_size_of_the_partition(capsys, argv):
    tracemalloc.start()
    try:
        assert run_cli(capsys, *argv)[0] == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # an int64 array of the 10^9 balls would take 8 GB


def test_parse_failure_is_usage_error(capsys):
    assert main(["analyze", "--p", "three"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_analyze_out_file_matches_stdout(capsys, tmp_path):
    args = ("analyze", "--p", "7", "--n", "3", "--l", "1", "--depth", "3")
    json_out, text_out = tmp_path / "json.json", tmp_path / "text.json"
    code, out, _ = run_cli(capsys, *args, "--format", "json", "--out", str(json_out))
    assert code == 0
    assert json_out.read_bytes() == out.encode("ascii")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    code, _, _ = run_cli(capsys, *args, "--out", str(text_out))
    assert code == 0
    assert text_out.read_bytes() == json_out.read_bytes()


_ints = st.integers(-(2**70), 2**70)
_json_leaves = (
    st.none() | st.booleans() | _ints | st.floats() | st.text()
    | st.lists(_ints) | st.lists(_ints | st.booleans())
)
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4)
    | st.dictionaries(_ints, kids, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_json_trees)
@example([1, True, 2, False, 0])
@example({"\u00e9": [], "a": {}, "b": [[], [3]], "c": (1, 2), "d": "snow \u2603"})
@example({3: [-(2**65), 2**64 + 1], -1: None, 0: [0.5, float("nan"), -0.0]})
@example({False: [True], 1.5: [], 2: {}})  # bool and float keys, as json spells them
@example({None: [1]})
def test_dumps_matches_indented_json_dumps(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


_INT64 = np.iinfo(np.int64)
# 9, 10, 99, 100, ..., 10^18 - 1, 10^18 and their negatives, 0, and the int64 extremes
_DIGIT_STEPS = [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
_EDGES = np.array(
    [0, 1, int(_INT64.min), int(_INT64.max)] + _DIGIT_STEPS + [-v for v in _DIGIT_STEPS],
    dtype=np.int64,
)


@st.composite
def _int64_arrays(draw):
    """1-d int64 arrays around the kernel's 2^16-value blocks, ascending or
    shuffled, of every digit count and sign, with the edges mixed in."""
    size = draw(st.sampled_from([0, 1, 2, 50, 2**16 - 1, 2**16, 2**16 + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = min(10 ** draw(st.integers(0, 19)), int(_INT64.max))
    low = 0 if draw(st.booleans()) else -top - (top == _INT64.max)
    values = rng.integers(low, top, size, dtype=np.int64, endpoint=True)
    edges = rng.permutation(_EDGES)[:size]
    values[rng.choice(size, edges.size, replace=False)] = edges
    if draw(st.booleans()):
        values.sort()
    return values


def _listed(tree):
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {k: _listed(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_listed(v) for v in tree]
    return tree


_array_trees = st.recursive(
    _int64_arrays(),
    lambda kids: st.lists(kids | _json_leaves, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids | _json_leaves, max_size=3),
    max_leaves=4,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_int64_arrays(), _array_trees)
@example(_EDGES, {"ascending": np.sort(_EDGES), "empty": np.array([], dtype=np.int64)})
@example(np.arange(2**16 - 3, 2**16 + 3, dtype=np.int64) * 10**13, [])
# object and 2-d arrays go through tolist and the list path
@example(np.array([2**70, -1], dtype=object), np.arange(6, dtype=np.int64).reshape(2, 3))
def test_dumps_writes_int64_arrays_as_their_lists(array, tree):
    doc = {"array": array, "tree": tree}
    assert _dumps(doc) == json.dumps(_listed(doc), indent=2, sort_keys=True)
    assert _dumps(array) == json.dumps(_listed(array), indent=2)


class _HashingSink:
    """A stdout that keeps only the sha256 and the length of what is written."""

    def __init__(self):
        self.sha, self.chars = hashlib.sha256(), 0

    def write(self, text):
        self.sha.update(text.encode("ascii"))
        self.chars += len(text)


def test_a_million_int_report_streams_in_bounded_memory():
    # The generated set mod 971^2 holds all 941,870 units: 13 MB of JSON.
    argv = ["analyze", "--p", "971", "--n", "6", "--l", "1", "--depth", "2", "--format", "json"]
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params = {"p": 971, "n": 6, "l": 1, "depth": 2}
    envelope = _envelope("analyze", params, _verdict_results(MonomialSystem(971, 6, 1), 2))
    expected = json.dumps(_listed(envelope), indent=2, sort_keys=True) + "\n"
    assert envelope["results"]["generated_mod_p2"].size == 970 * 971
    assert (sink.chars, sink.sha.hexdigest()) == (len(expected), hashlib.sha256(expected.encode()).hexdigest())
    assert peak < 32 * 2**20  # 73.4 MiB when the report was one string of a list of ints


def test_out_file_matches_stdout_past_a_block_of_the_kernel(capsys, tmp_path):
    # 5 generates the units mod 263^2: 68,906 > 2^16 values in generated_mod_p2.
    out_file = tmp_path / "report.json"
    argv = ["analyze", "--p", "263", "--n", "5", "--l", "1", "--depth", "2", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == out.encode("ascii")
    generated = json.loads(out)["results"]["generated_mod_p2"]
    assert generated == [u for u in range(1, 263**2) if u % 263]


def test_json_output_is_byte_identical(capsys):
    args = ("analyze", "--p", "5", "--n", "2", "--l", "1", "--depth", "3")
    code1, out1, _ = run_cli(capsys, *args, "--format", "json")
    code2, out2, _ = run_cli(capsys, *args, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


# -- orbit --------------------------------------------------------------------------


def test_orbit_command(capsys):
    code, doc, _ = run_json(
        capsys, "orbit", "--p", "3", "--n", "2", "--l", "1", "--x0", "4", "--steps", "6"
    )
    assert code == 0
    res = doc["results"]
    assert res["orbit"] == [4, 16, 13, 7, 49, 52]
    assert res["depth1_ball_orbit"] == [4, 7, 4, 7, 4, 7]
    row = res["birkhoff"][0]
    assert row["ball_center"] == 4 and row["average"] == "1/2" and row["haar"] == "1/2"


def test_orbit_trapped_average(capsys):
    code, doc, _ = run_json(
        capsys, "orbit", "--p", "3", "--n", "4", "--l", "1", "--x0", "4", "--steps", "10"
    )
    assert code == 0
    rows = {r["ball_center"]: r for r in doc["results"]["birkhoff"]}
    assert rows[7]["average"] == "0" and rows[7]["haar"] == "1/2"


def test_orbit_zero_steps_is_usage(capsys):
    code, _, err = run_cli(
        capsys, "orbit", "--p", "3", "--n", "2", "--l", "1", "--x0", "4", "--steps", "0"
    )
    assert code == 1


def test_orbit_off_sphere_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "orbit", "--p", "3", "--n", "2", "--l", "1", "--x0", "10", "--steps", "3"
    )
    assert code == 2


@pytest.mark.parametrize(
    "p,n,l,x0,steps,depth",
    [(3, 2, 1, 4, 50, 3), (3, 4, 2, 10, 30, 4), (5, 3, 2, 26, 60, 3), (7, 6, 1, 8, 40, 2)],
)
def test_orbit_rows_match_birkhoff_average(capsys, p, n, l, x0, steps, depth):
    code, doc, _ = run_json(
        capsys, "orbit", "--p", str(p), "--n", str(n), "--l", str(l), "--x0", str(x0),
        "--steps", str(steps), "--depth", str(depth),
    )
    assert code == 0
    sys_ = MonomialSystem(p, n, l)
    start = PadicInt.from_integer(x0, p, doc["parameters"]["precision"])
    expected = []
    for k in range(1, depth + 1):
        for center in sphere_partition(sys_, k).centers().tolist():
            res = birkhoff_average(sys_, start, BallIndicator(center, l + k), steps)
            expected.append(
                {
                    "depth": k,
                    "ball_center": center,
                    "radius_exponent": l + k,
                    "average": str(res.average),
                    "haar": str(res.haar_value),
                    "matches_haar": res.matches_haar,
                }
            )
    results = doc["results"]
    assert results["birkhoff"] == expected
    assert results["depth1_ball_orbit"] == [r % p ** (l + 1) for r in results["orbit"]]


def test_orbit_too_coarse_precision_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "orbit", "--p", "5", "--n", "3", "--l", "1", "--x0", "6", "--steps", "30",
        "--depth", "4", "--precision", "3",
    )
    assert (code, out) == (2, "")
    assert err == "padicdyn orbit: indicator is finer than the point's precision\n"


@pytest.mark.parametrize("precision", ["0", "-1"])
def test_orbit_non_positive_precision_is_domain_error(capsys, precision):
    code, out, err = run_cli(
        capsys, "orbit", "--p", "5", "--n", "3", "--l", "1", "--x0", "6", "--steps", "3",
        "--precision", precision,
    )
    assert (code, out) == (2, "")
    assert err == "padicdyn orbit: precision must be at least 1 digit\n"


# -- verify -------------------------------------------------------------------------


def test_verify_power_scaling_passes(capsys):
    code, doc, _ = run_json(capsys, "verify", "lemma1", "--p", "3", "--K", "4", "--n-max", "9")
    assert code == 0
    certs = doc["results"]["certificates"]
    assert len(certs) == 1 and certs[0]["status"] == "PASS"
    assert certs[0]["claim"] == "power-difference-scaling"


def test_verify_alias_matches_functional_name(capsys):
    code1, doc1, _ = run_json(capsys, "verify", "lemma1", "--p", "3", "--K", "3", "--n-max", "4")
    code2, doc2, _ = run_json(
        capsys, "verify", "power-scaling", "--p", "3", "--K", "3", "--n-max", "4"
    )
    assert code1 == code2 == 0
    assert doc1["results"] == doc2["results"]


def test_verify_minimal_multi_prime(capsys):
    code, doc, _ = run_json(capsys, "verify", "minimal", "--p", "3,5", "--depth", "3")
    assert code == 0
    certs = doc["results"]["certificates"]
    assert [c["parameters"]["p"] for c in certs] == [3, 5]
    assert all(c["status"] == "PASS" for c in certs)


def test_verify_unique_needs_n(capsys):
    code, _, err = run_cli(capsys, "verify", "unique", "--p", "3")
    assert code == 2
    code, doc, _ = run_json(capsys, "verify", "unique", "--p", "3", "--n", "2", "--l", "1", "--k", "2")
    assert code == 0


@pytest.mark.parametrize("k", ["0", "-1"])
def test_verify_unique_rejects_k_below_one(capsys, k):
    code, out, err = run_cli(capsys, "verify", "unique", "--p", "3", "--n", "2", "--k", k)
    assert (code, out, err) == (2, "", "padicdyn verify: k must be at least 1\n")


@pytest.mark.parametrize("n", ["-1", "-2"])
def test_verify_unique_rejects_negative_exponents(capsys, n):
    code, out, err = run_cli(capsys, "verify", "unique", "--p", "3", "--n", n)
    assert (code, out, err) == (2, "", "padicdyn verify: exponent must be at least 1\n")


@pytest.mark.parametrize("claim", [("minimal",), ("unique", "--n", "2", "--k", "1")])
@pytest.mark.parametrize("levels", ["0", "-3", "1,0"])
def test_verify_rejects_sphere_levels_below_one(capsys, claim, levels):
    code, out, err = run_cli(capsys, "verify", *claim, "--p", "3", "--l", levels)
    assert (code, out, err) == (2, "", "padicdyn verify: sphere level must be at least 1\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["minimal", "--p", ""], "need at least one prime"),
        (["power-scaling", "--p", ","], "need at least one prime"),
        (["unique", "--n", "2", "--p", "5", "--l", ","], "need at least one sphere level"),
        (["minimal", "--p", "3", "--l", ""], "need at least one sphere level"),
    ],
)
def test_verify_with_nothing_to_check_exits_two(capsys, argv, err):
    # With no certificate to run, "all claims PASS" would vouch for nothing.
    assert run_cli(capsys, "verify", *argv) == (2, "", f"padicdyn verify: {err}\n")


def test_verify_log_isometry(capsys):
    code, doc, _ = run_json(capsys, "verify", "log-isometry", "--p", "3,5", "--K", "4")
    assert code == 0
    assert len(doc["results"]["certificates"]) == 2


def test_verify_generation(capsys):
    code, doc, _ = run_json(capsys, "verify", "generation", "--p", "3", "--l-max", "4")
    assert code == 0


def test_verify_cap_exceeded_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "lemma1", "--p", "3", "--K", "14", "--n-max", "4")
    assert code == 2


def test_verify_out_writes_certificate_stream(capsys, tmp_path):
    out_file = tmp_path / "certs.jsonl"
    code, _, _ = run_cli(
        capsys, "verify", "minimal", "--p", "3", "--depth", "3", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1
    cert = json.loads(lines[0])
    assert cert["claim"] == "minimality-criterion" and cert["status"] == "PASS"


def test_verify_jobs_deterministic(capsys):
    base = ("verify", "minimal", "--p", "5", "--depth", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *base, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_failure_exit_code(capsys, monkeypatch):
    import padicdyn.cli as cli_mod

    failing = Certificate(
        claim="log-isometry",
        parameters={"p": 3, "K": 4},
        status="FAIL",
        annotations={},
        witness={"kind": "synthetic"},
        digest="0" * 64,
    )
    monkeypatch.setattr(cli_mod, "certify_log_isometry", lambda *a, **k: failing)
    code, _, _ = run_cli(capsys, "verify", "log-isometry", "--p", "3")
    assert code == 3


# -- perturb ------------------------------------------------------------------------


def test_perturb_level_two(capsys):
    code, doc, _ = run_json(
        capsys, "perturb", "--p", "3", "--n", "2", "--l", "2", "--q", "81"
    )
    assert code == 0
    res = doc["results"]
    assert res["congruence"]["asserted"] is True
    assert res["congruence"]["mismatch_count"] == 0
    assert all(row["holds"] for row in res["sphere_invariance"])
    assert res["necessary_condition"]["agree"] is True


def test_perturb_level_one_reports_discrepancies(capsys):
    code, doc, _ = run_json(
        capsys, "perturb", "--p", "3", "--n", "2", "--l", "1", "--q", "27"
    )
    assert code == 0
    res = doc["results"]
    assert res["congruence"]["asserted"] is False
    assert res["congruence"]["mismatch_count"] > 0
    assert all(row["holds"] for row in res["sphere_invariance"])


def test_perturb_gate_names_the_offender(capsys):
    code, _, err = run_cli(capsys, "perturb", "--p", "3", "--n", "2", "--l", "1", "--q", "9")
    assert code == 2
    assert "coefficient 0" in err


def test_perturb_marginal_mode(capsys):
    code, doc, _ = run_json(
        capsys, "perturb", "--p", "3", "--n", "2", "--l", "1", "--q", "9", "--marginal"
    )
    assert code == 0
    assert doc["results"]["note"].startswith("observational")


# -- roots --------------------------------------------------------------------------


def test_roots_in_z7(capsys):
    code, doc, _ = run_json(capsys, "roots", "--p", "7", "--d", "3", "--K", "3")
    assert code == 0
    res = doc["results"]
    assert res["count"] == 3
    assert [r["residue"] for r in res["roots"]] == [1, 18, 324]
    assert res["note"] is None


def test_roots_in_z17_notes_the_gap(capsys):
    code, doc, _ = run_json(capsys, "roots", "--p", "17", "--d", "3", "--K", "3")
    assert code == 0
    res = doc["results"]
    assert res["count"] == 1
    assert "gcd(3, 16) = 1" in res["note"]


def test_roots_plus_minus_one(capsys):
    code, doc, _ = run_json(capsys, "roots", "--p", "5", "--d", "2", "--K", "4")
    assert code == 0
    assert [r["residue"] for r in doc["results"]["roots"]] == [1, 5**4 - 1]


def test_roots_rejects_two(capsys):
    code, _, _ = run_cli(capsys, "roots", "--p", "2", "--d", "3")
    assert code == 2


@pytest.mark.parametrize("p", ["1", "0", "-5"])
def test_roots_rejects_non_primes(capsys, p):
    code, out, err = run_cli(capsys, "roots", "--p", p, "--d", "2")
    assert (code, out, err) == (2, "", f"padicdyn roots: {p} is not prime\n")


# -- module entry point ---------------------------------------------------------------


def test_module_invocation_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "padicdyn", "analyze", "--p", "3", "--n", "2", "--l", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "verdict: minimal=True" in proc.stdout
