"""Hot loops for exhaustive residue sweeps: batch modular powers, permutation
cycle scans, and valuation tables, all numpy over int64, plus the cycle
structure of a product permutation from its factor's cycle lengths.

:func:`cycle_info` scans cycles by pointer jumping, O(n log n) vectorized
gathers with no per-element Python loop, and rejects non-permutations; its
gathers reuse two buffers, about 24 bytes per element with the labels.

:func:`power_map` guards ``modulus <= INT64_SAFE_MODULUS`` so products cannot
overflow; :func:`power_map_any` routes larger moduli through ordinary Python
big-int arithmetic.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

# isqrt(2^63 - 1): squares below this cannot overflow a signed 64-bit product.
INT64_SAFE_MODULUS = 3_037_000_499


def get_backend() -> str:
    """Name of the array backend every kernel runs on."""
    return "numpy"


def _check_modulus(modulus: int) -> None:
    if not 1 < modulus <= INT64_SAFE_MODULUS:
        raise ValueError(f"modulus {modulus} outside int64-safe kernel range")


def power_map(values, exponent: int, modulus: int) -> np.ndarray:
    """Elementwise values[i]^exponent mod modulus over an int64 array."""
    _check_modulus(modulus)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    base = np.ascontiguousarray(values, dtype=np.int64) % modulus
    result = np.ones_like(base)
    e = exponent
    while e:
        if e & 1:
            result = (result * base) % modulus
        e >>= 1
        if e:
            base = (base * base) % modulus
    return result


def cycle_info(perm) -> tuple[np.ndarray, np.ndarray]:
    """Cycle starts (least index per cycle, ascending) and lengths of a permutation array.

    Pointer jumping: after r rounds ``label[i]`` is the least of i, perm(i), ...,
    perm^(2^r - 1)(i) and ``jump`` is perm^(2^r), so after ceil(log2 n) rounds of
    vectorized gathers (O(n log n) work) every index carries the least index of
    its cycle. The gathers write into two preallocated buffers that ``jump``
    swaps between; the input is copied once and never written. A
    non-permutation raises ValueError: on a functional graph the labels would
    silently merge a tail into the cycle it runs into.
    """
    jump = np.array(perm, dtype=np.int64)
    n = jump.size
    if n and (jump.min() < 0 or jump.max() >= n or (np.bincount(jump, minlength=n) != 1).any()):
        raise ValueError("not a permutation array: an entry is out of range or repeated")
    label, spare = np.arange(n, dtype=np.int64), np.empty_like(jump)
    for _ in range((n - 1).bit_length()):
        # mode="clip" skips the out-buffering of mode="raise"; indices are checked above
        np.take(label, jump, out=spare, mode="clip")
        np.minimum(label, spare, out=label)
        np.take(jump, jump, out=spare, mode="clip")
        jump, spare = spare, jump
    counts = np.bincount(label, minlength=n)  # nonzero exactly at the cycle starts
    starts = np.flatnonzero(counts)
    return starts, counts[starts]


def valuation_table(values, p: int, cap: int) -> np.ndarray:
    """Elementwise p-adic valuation, with zeros and deep values capped at ``cap``."""
    if cap < 1:
        raise ValueError("cap must be positive")
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError("valuation_table expects non-negative residues")
    out = np.zeros(arr.shape, dtype=np.int64)
    rem = arr.copy()
    zero = rem == 0
    out[zero] = cap
    active = ~zero
    for _ in range(cap):
        if not active.any():
            break
        divisible = active & (rem % p == 0)
        if not divisible.any():
            break
        rem[divisible] //= p
        out[divisible] += 1
        active = divisible
    np.minimum(out, cap, out=out)
    return out


def pair_cycle_info(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Cycle structure of sigma x sigma, (i, j) -> (sigma(i), sigma(j)), from
    the cycle lengths of sigma alone: ascending distinct product cycle
    lengths, and how many product cycles have each length.

    A pair of sigma-cycles of lengths a and b splits into gcd(a, b) cycles
    of length lcm(a, b), so no pair is ever enumerated; the work is
    quadratic only in the number of distinct lengths.
    """
    values, counts = np.unique(np.asarray(lengths, dtype=np.int64), return_counts=True)
    if values.size and values[0] < 1:
        raise ValueError("cycle lengths must be positive")
    groups = list(zip(values.tolist(), counts.tolist()))
    mult: dict[int, int] = {}
    for a, count_a in groups:
        for b, count_b in groups:
            key = lcm(a, b)
            mult[key] = mult.get(key, 0) + count_a * count_b * gcd(a, b)
    keys = sorted(mult)
    return np.asarray(keys, dtype=np.int64), np.asarray([mult[k] for k in keys], dtype=np.int64)


def power_map_any(values, exponent: int, modulus: int):
    """power_map that transparently falls back to Python big ints when the
    modulus is too large for the int64 kernels. Returns ndarray or list."""
    if modulus <= INT64_SAFE_MODULUS:
        return power_map(values, exponent, modulus)
    return [pow(int(v), exponent, modulus) for v in values]
