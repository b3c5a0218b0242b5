"""The numpy int64 sweep kernels, against plain-Python references, and their guards."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import kernels
from padicdyn.dynamics import MonomialSystem, induced_permutation

BASE = 1 << 16  # the largest partition a verdict enumerates


def _walked_cycles(perm):
    """Cycle starts and lengths of a permutation list, by a plain walk."""
    seen = [False] * len(perm)
    starts, lengths = [], []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        starts.append(i)
        lengths.append(length)
    return starts, lengths


def _valuation_by_division(x, p, cap):
    if x == 0:
        return cap
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def test_power_map_matches_builtin_pow():
    values = np.arange(1, 2000, dtype=np.int64)
    out = kernels.power_map(values, 137, 2401)
    assert [int(v) for v in out] == [pow(int(v), 137, 2401) for v in values]


def test_backends_agree_on_all_kernels():
    """The numpy kernels agree with plain-Python pow, a walked cycle list and
    repeated division on one sweep."""
    rng = np.arange(1, 5000, dtype=np.int64)
    modulus = 912673  # 97^3
    exponent = 97 * 96 + 1
    powers = kernels.power_map(rng, exponent, modulus)
    assert powers.tolist() == [pow(int(v), exponent, modulus) for v in rng]
    order = np.argsort(powers, kind="stable").astype(np.int64)
    starts, lengths = kernels.cycle_info(order)
    assert (starts.tolist(), lengths.tolist()) == _walked_cycles(order.tolist())
    residues = (powers - 1) % modulus
    vals = kernels.valuation_table(residues, 97, 3)
    assert vals.tolist() == [_valuation_by_division(int(x), 97, 3) for x in residues]


def test_power_map_rejects_unsafe_modulus():
    with pytest.raises(ValueError):
        kernels.power_map(np.arange(3, dtype=np.int64), 2, kernels.INT64_SAFE_MODULUS + 1)
    with pytest.raises(ValueError):
        kernels.power_map(np.arange(3, dtype=np.int64), -1, 7)


def test_power_map_any_big_modulus_python_path():
    m = 5**30  # far beyond int64
    values = [1 + 5 * t for t in range(1, 12)]
    out = kernels.power_map_any(values, 3, m)
    assert isinstance(out, np.ndarray) and out.dtype == object
    assert out.tolist() == [pow(v, 3, m) for v in values]


def test_cycle_info_canonical_order():
    perm = np.array([1, 0, 3, 2, 4], dtype=np.int64)
    starts, lengths = kernels.cycle_info(perm)
    assert starts.tolist() == [0, 2, 4]
    assert lengths.tolist() == [2, 2, 1]


def test_cycle_info_rejects_out_of_range():
    with pytest.raises(ValueError):
        kernels.cycle_info(np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        kernels.cycle_info(np.array([-1, 0], dtype=np.int64))


def test_cycle_info_rejects_non_bijections():
    # In range but not bijective: pointer jumping would merge the tail into a cycle.
    for perm in ([0, 0], [1, 1, 0], [1, *range(2, 2 * BASE), 1]):
        with pytest.raises(ValueError):
            kernels.cycle_info(np.array(perm, dtype=np.int64))


def test_cycle_info_leaves_its_input_unchanged():
    # The scans gather into buffers of their own; the caller's array must be none of them.
    big = np.random.default_rng(11).permutation(2 * BASE).tolist()
    for perm in ([1, 2, 3, 4, 0], [4, 3, 2, 1, 0], [*range(1, 257), 0], big):
        arr = np.array(perm, dtype=np.int64)
        kernels.cycle_info(arr)
        assert arr.tolist() == perm
    for bad in ([0, 0], [1, 1, 0]):
        arr = np.array(bad, dtype=np.int64)
        with pytest.raises(ValueError):
            kernels.cycle_info(arr)
        assert arr.tolist() == bad


def _single_cycle(m):
    return [*range(1, m), 0]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(0, 300).flatmap(lambda m: st.permutations(range(m))))
@example([])
@example(list(range(17)))
# A cycle of length 2^k needs exactly k jumping rounds; 2^k + 1 needs one more.
@example(_single_cycle(2))
@example(_single_cycle(3))
@example(_single_cycle(64))
@example(_single_cycle(65))
@example(_single_cycle(256))
@example(_single_cycle(257))
def test_cycle_info_matches_a_walk(perm):
    starts, lengths = kernels.cycle_info(np.array(perm, dtype=np.int64))
    assert (starts.tolist(), lengths.tolist()) == _walked_cycles(perm)


def _scan(perm):
    starts, lengths = kernels.cycle_info(perm)
    return starts.tolist(), lengths.tolist()


def _from_cycles(n, cycles):
    """The permutation of range(n) with the given cycles (rows of equal length)."""
    perm = np.arange(n)
    perm[cycles] = np.roll(cycles, -1, axis=1)
    return perm


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.sampled_from([BASE - 1, BASE, BASE + 1, 3 * BASE]), st.integers(0, 2**32 - 1))
def test_cycle_info_matches_a_walk_on_both_sides_of_the_base_size(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    assert _scan(perm) == _walked_cycles(perm.tolist())


def _structured(kind, n=10**5):
    rng = np.random.default_rng(5)
    index = np.arange(n)
    if kind == "identity":
        return index
    if kind == "few cycles among fixed points":
        return _from_cycles(n, rng.choice(n, 3000, replace=False).reshape(-1, 30))
    if kind == "involution":
        return _from_cycles(n, rng.permutation(n).reshape(-1, 2))
    if kind == "short cycles without a ruler":
        return _from_cycles(n, rng.permutation(n)[: n // 3 * 3].reshape(-1, 3))
    if kind == "rulerless and ruled cycles":
        return _from_cycles(n, rng.permutation(n).reshape(-1, 40))
    assert kind == "one long cycle"
    return _from_cycles(n, rng.permutation(n)[None, :])


@pytest.mark.parametrize("kind", ["identity", "few cycles among fixed points", "involution",
                                  "short cycles without a ruler", "rulerless and ruled cycles",
                                  "one long cycle"])
def test_cycle_info_matches_a_walk_on_structured_permutations(kind):
    perm = _structured(kind)
    assert _scan(perm) == _walked_cycles(perm.tolist())


# Generators and non-generators mod p^2, with 1, 2 and 6 cycles, all above BASE.
@pytest.mark.parametrize("p, n, l, depth", [(3, 4, 2, 11), (7, 2, 1, 6), (31, 2, 1, 4), (97, 5, 1, 3)])
def test_cycle_info_matches_a_walk_on_verdict_permutations(p, n, l, depth):
    mapping = induced_permutation(MonomialSystem(p, n, l), depth).mapping
    assert mapping.size > BASE
    assert _scan(mapping) == _walked_cycles(mapping.tolist())


# The bounds are the peaks of the O(n log n) pointer-jumping scan on the same inputs.
@pytest.mark.parametrize("kind, bound_mb", [("random", 32), ("all fixed", 48)])
def test_cycle_info_peak_memory(kind, bound_mb):
    n = 10**6
    perm = np.random.default_rng(2).permutation(n) if kind == "random" else np.arange(n)
    kernels.cycle_info(perm)
    tracemalloc.start()
    try:
        in_use = tracemalloc.get_traced_memory()[0]
        kernels.cycle_info(perm)
        peak = tracemalloc.get_traced_memory()[1] - in_use
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 10**6


def test_valuation_table_caps():
    vals = np.array([0, 1, 3, 9, 27, 81, 243], dtype=np.int64)
    out = kernels.valuation_table(vals, 3, 4)
    assert out.tolist() == [4, 0, 1, 2, 3, 4, 4]
    with pytest.raises(ValueError):
        kernels.valuation_table(np.array([-3], dtype=np.int64), 3, 4)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda m: st.permutations(range(m))))
@example([2, 0, 1, 4, 3, 5])  # cycles (0 2 1), (3 4), (5)
def test_pair_cycle_info_matches_materialized_product(base):
    m = len(base)
    product = [base[i] * m + base[j] for i in range(m) for j in range(m)]
    _, walked = _walked_cycles(product)
    cycle_type = tuple(sorted(Counter(_walked_cycles(base)[1]).items()))
    pairs = kernels.pair_cycle_info(cycle_type)
    assert pairs == tuple(sorted(Counter(walked).items()))
    assert all(type(a) is int and type(c) is int for a, c in pairs)
    assert sum(a * c for a, c in pairs) == m * m


def test_pair_cycle_info_rejects_out_of_range():
    for cycle_type in (((0, 1), (3, 1)), ((-1, 1),), ((-4, 1), (1, 1), (2, 1))):
        with pytest.raises(ValueError):
            kernels.pair_cycle_info(cycle_type)


_INT64 = np.iinfo(np.int64)
# 9, 10, 99, 100, ..., 10^18 - 1, 10^18: every step in the digit count
_DIGIT_STEPS = [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
_TEXT_EDGES = [0, 1, -1, int(_INT64.min), int(_INT64.max), int(_INT64.min) + 1, int(_INT64.max) - 1]
_TEXT_EDGES += _DIGIT_STEPS + [-v for v in _DIGIT_STEPS]


@pytest.mark.parametrize("separator", [",", ", ", ",\n    "])
def test_json_int_chunks_is_exact_at_every_digit_count_and_sign(separator):
    values = np.array(_TEXT_EDGES, dtype=np.int64)
    assert "".join(kernels.json_int_chunks(values, separator)) == separator.join(map(str, _TEXT_EDGES))
    for v in _TEXT_EDGES:
        assert list(kernels.json_int_chunks(np.array([v], dtype=np.int64), separator)) == [str(v)]


@pytest.mark.parametrize("size", [0, 1, BASE - 1, BASE, BASE + 1, 3 * BASE])
def test_json_int_chunks_yields_one_chunk_per_block(size):
    values = np.random.default_rng(size).integers(_INT64.min, _INT64.max, size, endpoint=True)
    chunks = list(kernels.json_int_chunks(values, ",\n  "))
    assert len(chunks) == -(-size // BASE)
    assert "".join(chunks) == ",\n  ".join(map(str, values.tolist()))


def test_json_int_chunks_scratch_memory_does_not_grow_with_the_array():
    values = np.arange(-(10**6), 10**6, dtype=np.int64) * 4_611_686_018  # 19 digits at the ends
    tracemalloc.start()
    try:
        written = sum(map(len, kernels.json_int_chunks(values, ",\n    ")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 44 * 10**6
    assert peak < 16 * 2**20  # one block's rows, mask and text; 10.5 MiB measured
