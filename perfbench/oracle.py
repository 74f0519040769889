"""The benchmark's own GF(2) reference, written apart from anflat's kernels.

Output checks evaluate functions with these plain sum-of-monomials loops,
so a defect in anflat's packed evaluation kernel cannot hide itself in the
check that is meant to catch it. Vectors are Python ints with bit j holding
coordinate x_{j+1}, the convention of anflat's text formats.
"""
from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np


def evaluate(masks, x: int) -> int:
    """Value at x of the sum of the monomials given as variable masks."""
    return sum(1 for m in masks if x & m == m) & 1


def truth_table(masks, n: int) -> np.ndarray:
    """All 2^n values of a sum of monomials, one monomial at a time."""
    xs = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n, dtype=np.uint8)
    for m in masks:
        values ^= ((xs & m) == m).astype(np.uint8)
    return values


def matvec(rows, x: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        out |= ((r & x).bit_count() & 1) << i
    return out


def invert(rows, n: int) -> list[int]:
    """Rows of the inverse of an invertible n x n GF(2) matrix."""
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if (work[i] >> c) & 1), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[c], work[pivot] = work[pivot], work[c]
        for i in range(n):
            if i != c and (work[i] >> c) & 1:
                work[i] ^= work[c]
    return [w >> n for w in work]


def span_point(offset: int, basis, index: int) -> int:
    """The flat point selecting basis[j] for each set bit j of index."""
    x = offset
    j = 0
    while index:
        if index & 1:
            x ^= basis[j]
        index >>= 1
        j += 1
    return x


def stable_seed(master_seed: int, index: int) -> int:
    """The documented per-trial seed: first 8 bytes of SHA-256, little-endian."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _random_bits(n: int, rng: np.random.Generator) -> int:
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


def replay_disperser_flats(master_seed: int, trials: int, flats: int, n: int, k: int,
                           p: float) -> list[tuple[int, int, int]]:
    """(seed, sparsity, constant flats) per trial of a disperser-flats run.

    Replays the documented stream of each trial: the degree-3 draw, one
    uniform number per monomial in lexicographic order, then per flat k
    independent uniform vectors and a uniform offset.
    """
    combos = [(1 << a) | (1 << b) | (1 << c) for a, b, c in combinations(range(n), 3)]
    rows = []
    for i in range(trials):
        seed = stable_seed(master_seed, i)
        rng = np.random.Generator(np.random.PCG64(seed))
        draws = rng.random(len(combos))
        masks = [m for m, u in zip(combos, draws) if u < p]
        table = truth_table(masks, n)
        constant = 0
        for _ in range(flats):
            basis: list[int] = []
            pivots: dict[int, int] = {}
            while len(basis) < k:
                v = reduced = _random_bits(n, rng)
                while reduced:
                    top = reduced.bit_length() - 1
                    if top not in pivots:
                        pivots[top] = reduced
                        basis.append(v)
                        break
                    reduced ^= pivots[top]
            offset = _random_bits(n, rng)
            values = {int(table[span_point(offset, basis, j)]) for j in range(1 << k)}
            constant += len(values) == 1
        rows.append((seed, len(masks), constant))
    return rows
