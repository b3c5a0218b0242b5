"""The numpy int64 sweep kernels, against plain-Python references, and their guards."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import kernels


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
    assert isinstance(out, list)
    assert out == [pow(v, 3, m) for v in values]


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
    lengths, counts = kernels.pair_cycle_info(_walked_cycles(base)[1])
    assert list(zip(lengths.tolist(), counts.tolist())) == sorted(Counter(walked).items())
    assert int((lengths * counts).sum()) == m * m


def test_pair_cycle_info_rejects_out_of_range():
    for lengths in ([3, 0], [-1], [2, -4, 1]):
        with pytest.raises(ValueError):
            kernels.pair_cycle_info(lengths)
