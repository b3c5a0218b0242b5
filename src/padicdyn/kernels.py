"""Hot loops for exhaustive residue sweeps: batch modular powers, permutation
cycle scans, and valuation tables, all numpy over int64, plus the cycle
structure of a product permutation from its factor's cycle lengths.

:func:`cycle_info` labels every index with the least index of its cycle and
rejects non-permutations. Small inputs are pointer jumped; larger ones are
first contracted through a sparse ruling set (list ranking after Reid-Miller
and Helman-JaJa), so that the scan costs O(n) element gathers instead of
O(n log n), with no per-element Python loop. On a random permutation its
working memory peaks at about 17 bytes per element.

:func:`power_map` guards ``modulus <= INT64_SAFE_MODULUS`` so products cannot
overflow; :func:`power_map_any` returns an ndarray at any modulus, an object
array of Python big ints above that bound, for the plain and perturbed maps.
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


# Inputs up to this size go straight to pointer jumping: below it the walk's
# per-step overhead costs more than the log2(n) gathers it saves.
_BASE_SIZE = 1 << 16
# An index is a ruler when the top _RULER_BITS bits of its Fibonacci hash are
# zero, about one index in 2**_RULER_BITS.
_RULER_BITS = 5
_RULER_HASH = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd
# Steps a walk may take before cycle_info gives it up for pointer jumping.
# A gap between consecutive rulers on a cycle exceeds it with probability
# (1 - 2**-_RULER_BITS)**_STEP_LIMIT, about e^-32.
_STEP_LIMIT = 1 << 10


def _ruler_mask(index: np.ndarray) -> np.ndarray:
    """Which of these indices are rulers: a fixed multiplicative hash, no RNG."""
    h = index.astype(np.uint64)
    h *= _RULER_HASH
    h >>= np.uint64(64 - _RULER_BITS)
    return h == 0


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


def _walk(perm: np.ndarray, rulers: np.ndarray, owner: np.ndarray):
    """Walk from every ruler along perm to the next ruler on its cycle.

    Every node passed on the way is tagged in ``owner``, which holds -1
    everywhere on entry, with the position of its walker's ruler in
    ``rulers`` (the rulers themselves are tagged first).
    Returns, per ruler, the position of the next ruler and the least index
    of the segment from the ruler up to it; or None when a walk is still
    live after _STEP_LIMIT steps.

    A walker that reaches the next ruler parks on its last node: each step
    it rereads the same ruler and retags that node with its own ruler, so it
    needs no bookkeeping until a quarter of the slots are parked. Then the
    parked walkers are recorded and the live ones packed, in order, into the
    spare buffers. Every step writes only into buffers made before the first
    one: small temporaries made per step fragmented the malloc heap and
    raised the peak RSS of long verdict runs by 6-16%.
    """
    r = rulers.size
    owner[rulers] = np.arange(r)
    # Slot r of these buffers takes the writes that go nowhere.
    succ, seg_min, slot = np.empty((3, r + 1), dtype=np.int64)
    pos, wid, low, spare_pos, spare_wid, spare_low = np.empty((6, r + 1), dtype=np.int64)
    nxt, hit = np.empty((2, r), dtype=np.int64)
    move, halt = np.empty((2, r), dtype=bool)
    pos[:r], wid[:r], low[:r] = rulers, np.arange(r), rulers
    w = r  # slots in use, live or parked
    for _ in range(_STEP_LIMIT):
        perm.take(pos[:w], out=nxt[:w], mode="clip")
        owner.take(nxt[:w], out=hit[:w], mode="clip")
        np.less(hit[:w], 0, out=move[:w])  # only rulers are tagged ahead of a walker
        live = np.count_nonzero(move[:w])
        np.copyto(pos[:w], nxt[:w], where=move[:w])
        if not live or 4 * live < 3 * w:
            # Record the parked walkers.
            np.copyto(slot[:w], wid[:w])
            np.copyto(slot[:w], r, where=move[:w])
            succ.put(slot[:w], hit[:w], mode="clip")
            seg_min.put(slot[:w], low[:w], mode="clip")
            # Pack the live ones into the spare buffers.
            np.cumsum(move[:w], out=slot[:w])
            slot[:w] -= 1
            np.logical_not(move[:w], out=halt[:w])
            np.copyto(slot[:w], r, where=halt[:w])
            spare_pos.put(slot[:w], pos[:w], mode="clip")
            spare_wid.put(slot[:w], wid[:w], mode="clip")
            spare_low.put(slot[:w], low[:w], mode="clip")
            pos, spare_pos, wid, spare_wid, low, spare_low = spare_pos, pos, spare_wid, wid, spare_low, low
            w = live
            if not w:
                return succ[:r], seg_min[:r]
        owner[pos[:w]] = wid[:w]
        np.minimum(low[:w], pos[:w], out=low[:w])
    return None


def _ruled_labels(perm: np.ndarray) -> np.ndarray:
    """The least index on each cycle of perm, at every index, by the ruler contraction.

    Each n-element temporary is deleted as soon as it is spent, which keeps
    the peak near two such arrays (``owner`` and the labels).
    """
    n = perm.size
    rulers = np.flatnonzero(_ruler_mask(np.arange(n, dtype=np.int64)))
    rulers = rulers[perm[rulers] != rulers]
    owner = np.full(n, -1, dtype=np.int64)
    walked = _walk(perm, rulers, owner)
    if walked is None:
        del owner
        return _min_labels(perm, np.arange(n, dtype=np.int64))
    untagged = np.flatnonzero(owner < 0)  # fixed points and cycles without a ruler
    if rulers.size:
        label = np.take(_min_labels(*walked), owner, mode="clip")
    else:
        label = np.empty(n, dtype=np.int64)
    del owner
    label[untagged] = untagged
    rulerless = untagged[np.take(perm, untagged) != untagged]
    del untagged
    if rulerless.size:
        # Number the rulerless nodes 0..m-1 in their own label slots; ascending,
        # so the least number on a cycle marks its least index.
        local = np.arange(rulerless.size, dtype=np.int64)
        label[rulerless] = local
        succ = np.take(label, np.take(perm, rulerless))
        label[rulerless] = np.take(rulerless, _min_labels(succ, local))
    return label


def cycle_info(perm) -> tuple[np.ndarray, np.ndarray]:
    """Cycle starts (least index per cycle, ascending) and lengths of a permutation array.

    Every index is labelled with the least index of its cycle, and the label
    counts give the starts and lengths. Inputs of up to _BASE_SIZE elements
    are labelled by pointer jumping (:func:`_min_labels`). Larger ones are
    contracted through a sparse ruling set: about one index in 32, picked
    by a fixed hash, is a ruler; fixed points are never rulers and never
    walked. Walkers step from all rulers together, one gather of perm per
    step, tagging each node with its ruler, until they reach the next ruler.
    The rulers, each sent to the next ruler on its cycle and labelled with
    its segment's least index, form a permutation of about n/32 nodes, which
    :func:`_min_labels` solves; one gather spreads its labels back to the
    tagged nodes. Cycles without a ruler form a closed subset that
    :func:`_min_labels` solves on its own. That is O(n) element gathers plus
    O((n/32) log n) for the contraction. When a gap between rulers exceeds
    _STEP_LIMIT steps, the walk is dropped and the whole input is pointer
    jumped instead, which bounds the worst case by the pointer-jumping cost
    plus that many steps.

    The input is only read. A non-permutation raises ValueError: on a
    functional graph the labels would silently merge a tail into the cycle
    it runs into.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    if n and (perm.min() < 0 or perm.max() >= n or (np.bincount(perm, minlength=n) != 1).any()):
        raise ValueError("not a permutation array: an entry is out of range or repeated")
    if n <= _BASE_SIZE:
        label = _min_labels(perm, np.arange(n, dtype=np.int64))
    else:
        label = _ruled_labels(perm)
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


def power_map_any(values, exponent: int, modulus: int) -> np.ndarray:
    """power_map at any modulus: above INT64_SAFE_MODULUS the powers are Python
    big ints, by ``pow``, in an object array."""
    if modulus <= INT64_SAFE_MODULUS:
        return power_map(values, exponent, modulus)
    return np.frompyfunc(pow, 3, 1)(np.asarray(values, dtype=object), exponent, modulus)
