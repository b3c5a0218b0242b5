"""Hot loops for exhaustive residue sweeps: batch modular powers, permutation
cycle scans, and valuation tables, all numpy over int64, plus the cycle
type of a product permutation from its factor's cycle type.

:func:`cycle_info` labels every index with the least index of its cycle by
pointer jumping, and rejects non-permutations. Verdicts scan only up to 2^16
balls, to check the cycles the order of n gives; other ball maps scan whole.

:func:`power_map` guards ``modulus <= INT64_SAFE_MODULUS`` so products cannot
overflow; :func:`power_map_any` returns an ndarray at any modulus, an object
array of Python big ints above that bound, for the plain and perturbed maps.
:func:`json_int_chunks` writes int64 arrays as JSON text without Python ints.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

# isqrt(2^63 - 1): squares below this cannot overflow a signed 64-bit product.
INT64_SAFE_MODULUS = 3_037_000_499

_TEXT_BLOCK = 1 << 16  # values json_int_chunks formats at a time
_DIGITS3 = np.frombuffer("".join(map("{:03d}".format, range(1000))).encode(), np.uint8)
_DIGITS3 = _DIGITS3.reshape(1000, 3)  # row i: the digits of i, zero-padded
_POW10 = np.array([10**k for k in range(1, 19)], dtype=np.uint64)  # 10 .. 10^18


def get_backend() -> str:
    """Name of the array backend every kernel runs on."""
    return "numpy"


def power_map(values, exponent: int, modulus: int) -> np.ndarray:
    """Elementwise values[i]^exponent mod modulus over an int64 array."""
    if not 1 < modulus <= INT64_SAFE_MODULUS:
        raise ValueError(f"modulus {modulus} outside int64-safe kernel range")
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


def _min_labels(succ: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Overwrite ``label`` with the least label over each cycle of the permutation ``succ``.

    Pointer jumping: after r rounds ``label[i]`` is the least label on i,
    succ(i), ..., succ^(2^r - 1)(i) and ``jump`` is succ^(2^r), so ceil(log2 n)
    rounds cover every cycle. A round that lowers no label ends the loop
    early: each label is then no greater than the one 2^r steps on, so the
    labels are equal along each cycle of succ^(2^r), and the windows of those
    indices together cover their cycle of succ. ``succ`` is only read.
    """
    n = succ.size
    lower = np.empty(n, dtype=bool)
    jump, spare = succ, np.empty_like(succ)
    rounds = (n - 1).bit_length()
    for r in range(rounds):
        # mode="clip" skips the out-buffering of mode="raise"; indices are in range
        label.take(jump, out=spare, mode="clip")
        np.less(spare, label, out=lower)
        if not lower.any():
            break
        np.minimum(label, spare, out=label)
        if r + 1 < rounds:
            jump.take(jump, out=spare, mode="clip")
            jump, spare = spare, (np.empty_like(succ) if jump is succ else jump)
    return label


def cycle_info(perm) -> tuple[np.ndarray, np.ndarray]:
    """Cycle starts (least index per cycle, ascending) and lengths of a permutation array.

    Pointer jumping (:func:`_min_labels`) labels every index with the least
    index of its cycle, and the label counts give the starts and lengths.

    The input is only read. A non-permutation raises ValueError: on a
    functional graph the labels would silently merge a tail into the cycle
    it runs into.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    if n and (perm.min() < 0 or perm.max() >= n or (np.bincount(perm, minlength=n) != 1).any()):
        raise ValueError("not a permutation array: an entry is out of range or repeated")
    label = _min_labels(perm, np.arange(n, dtype=np.int64))
    counts = np.bincount(label, minlength=n)  # nonzero exactly at the cycle starts
    starts = np.flatnonzero(counts)
    return starts, counts[starts]


def valuation_table(values, p: int, cap: int) -> np.ndarray:
    """Elementwise p-adic valuation, with zeros and deep values capped at ``cap``.

    Nothing in the package calls it; it stays while the benchmark still
    traces it, and goes with the benchmark change of ROADMAP item 5.
    """
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


def pair_cycle_info(cycle_type) -> tuple[tuple[int, int], ...]:
    """Cycle type of sigma x sigma, (i, j) -> (sigma(i), sigma(j)), from the
    cycle type of sigma alone: (length, how many cycles have it) pairs in, and
    out, ascending by length.

    A pair of sigma-cycles of lengths a and b splits into gcd(a, b) cycles
    of length lcm(a, b), so no pair is ever enumerated; the work is
    quadratic only in the number of distinct lengths.
    """
    if any(a < 1 for a, _ in cycle_type):
        raise ValueError("cycle lengths must be positive")
    mult: dict[int, int] = {}
    for a, count_a in cycle_type:
        for b, count_b in cycle_type:
            key = lcm(a, b)
            mult[key] = mult.get(key, 0) + count_a * count_b * gcd(a, b)
    return tuple(sorted(mult.items()))


def power_map_any(values, exponent: int, modulus: int) -> np.ndarray:
    """power_map at any modulus: above INT64_SAFE_MODULUS the powers are Python
    big ints, by ``pow``, in an object array."""
    if modulus <= INT64_SAFE_MODULUS:
        return power_map(values, exponent, modulus)
    return np.frompyfunc(pow, 3, 1)(np.asarray(values, dtype=object), exponent, modulus)


def json_int_chunks(values: np.ndarray, separator: str):
    """The items of ``json.dumps(values.tolist())`` joined by ``separator``, one str per
    2^16 values of a 1-d int64 array. Each magnitude's 3-digit groups index the digit
    table into a byte row, digits then separator, masked to the value's text."""
    sep = np.frombuffer(separator.encode("ascii"), np.uint8)
    for start in range(0, values.size, _TEXT_BLOCK):
        block = values[start : start + _TEXT_BLOCK]
        n, neg = block.size, block < 0
        mag = np.abs(block).astype(np.uint64)  # abs keeps -2^63, whose uint64 is 2^63
        first = np.searchsorted(_POW10, mag, side="right")  # digits - 1
        groups = int(first.max() + neg.any()) // 3 + 1  # room for the longest value and a sign
        low = np.empty((n, groups), np.uint16)
        for g in range(groups - 1, -1, -1):
            mag, low[:, g] = np.divmod(mag, np.uint64(1000))
        digits = _DIGITS3.take(low, axis=0).reshape(n, -1)
        rows = np.concatenate((digits, np.broadcast_to(sep, (n, sep.size))), axis=1)
        first = digits.shape[1] - 1 - first - neg  # the column of the first character kept
        rows[neg, first[neg]] = ord("-")
        width = rows.shape[1]
        keep = np.triu(np.ones((width, width), bool)).take(first, axis=0)  # columns first on
        keep[-1, width - sep.size :] &= start + n < values.size  # none after the last value
        yield rows[keep].tobytes().decode("ascii")
