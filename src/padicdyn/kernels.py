"""Hot loops for exhaustive residue sweeps: batch modular powers, permutation
cycle scans, and valuation tables, all numpy over int64.

:func:`power_map` guards ``modulus <= INT64_SAFE_MODULUS`` so products cannot
overflow; :func:`power_map_any` routes larger moduli through ordinary Python
big-int arithmetic.
"""

from __future__ import annotations

import numpy as np

# isqrt(2^63 - 1): squares below this cannot overflow a signed 64-bit product.
INT64_SAFE_MODULUS = 3_037_000_499


def get_backend() -> str:
    """Name of the array backend every kernel runs on."""
    return "numpy"


def _check_modulus(modulus: int) -> None:
    if not 1 < modulus <= INT64_SAFE_MODULUS:
        raise ValueError(f"modulus {modulus} outside int64-safe kernel range")


def _check_permutation_range(arr: np.ndarray) -> None:
    if arr.size and (arr.min() < 0 or arr.max() >= arr.size):
        raise ValueError("not a permutation array: an entry indexes out of range")


def _walk_cycles(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = perm.size
    visited = np.zeros(n, dtype=bool)
    starts = []
    lengths = []
    for i in range(n):
        if visited[i]:
            continue
        j = i
        length = 0
        while not visited[j]:
            visited[j] = True
            j = int(perm[j])
            length += 1
        starts.append(i)
        lengths.append(length)
    return np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64)


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
    """Cycle starts (least index per cycle, ascending) and lengths of a permutation array."""
    arr = np.ascontiguousarray(perm, dtype=np.int64)
    _check_permutation_range(arr)
    return _walk_cycles(arr)


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


def pair_cycle_info(base) -> tuple[np.ndarray, np.ndarray]:
    """Cycle starts and lengths of sigma x sigma acting on all index pairs
    (i, j) -> (sigma(i), sigma(j)), flattened as i*len + j.

    The pair permutation is materialized as an int64 array of len^2 entries
    and walked like any other permutation.
    """
    arr = np.ascontiguousarray(base, dtype=np.int64)
    _check_permutation_range(arr)
    m = arr.size
    return _walk_cycles((arr[:, None] * m + arr[None, :]).reshape(-1))


def power_map_any(values, exponent: int, modulus: int):
    """power_map that transparently falls back to Python big ints when the
    modulus is too large for the int64 kernels. Returns ndarray or list."""
    if modulus <= INT64_SAFE_MODULUS:
        return power_map(values, exponent, modulus)
    return [pow(int(v), exponent, modulus) for v in values]
