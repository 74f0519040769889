"""Concrete function families used by tests, oracles, and experiments.

The randomized families draw from numpy's PCG64 so that a given seed
produces the same ANF on every platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .anf_core import MAX_TERMS, MAX_VARS, Anf, parse_anf, truth_table_to_anf, DEFAULT_TABLE_CAP
from .errors import InconsistentError, TooLargeError


def majority(n: int) -> Anf:
    """ANF of the threshold function: 1 iff at least half the inputs are 1.

    "At least half" is read as popcount >= n/2, so for even n the
    threshold is n/2 (some texts use the strict majority n/2 + 1 instead).
    """
    if n < 1:
        raise InconsistentError("majority needs at least one variable")
    if n > DEFAULT_TABLE_CAP:
        raise TooLargeError(f"n = {n} exceeds table cap {DEFAULT_TABLE_CAP}")
    threshold = (n + 1) // 2
    xs = np.arange(1 << n, dtype=np.uint64)
    values = (np.bitwise_count(xs) >= threshold).astype(np.uint8)
    return truth_table_to_anf(values)


def all_ones_indicator(n: int) -> Anf:
    """Expansion of the product of (1 + x_i): 1 iff every input is 0.

    The ANF contains every one of the 2^n monomials with coefficient 1.
    """
    if not 1 <= n <= 20:
        raise TooLargeError(f"n = {n} outside [1, 20]")
    return Anf(n, frozenset(range(1 << n)))


def prop6_base() -> Anf:
    """The 4-term cubic on 6 variables whose greedy restriction is optimal.

    Every variable occurs in exactly two terms, so two well-chosen zeroes
    kill the whole function and no single zero can do better.
    """
    return parse_anf("x1*x2*x3 + x1*x4*x5 + x2*x4*x6 + x3*x5*x6", 6)


def prop6_family(m: int) -> Anf:
    """Block sum of 5m disjoint copies of the base cubic: n = 30m, 20m terms.

    Block i occupies variables 6(i-1)+1 .. 6i.
    """
    if m < 1:
        raise InconsistentError("m must be at least 1")
    if 30 * m > MAX_VARS:
        raise TooLargeError(f"n = {30 * m} exceeds the cap of {MAX_VARS} variables")
    base = prop6_base()
    masks = []
    for block in range(5 * m):
        shift = 6 * block
        masks.extend(mask << shift for mask in base.terms)
    return Anf(30 * m, frozenset(masks))


def complete_degree3(n: int) -> Anf:
    """All C(n, 3) monomials of degree exactly 3."""
    if n < 3:
        raise InconsistentError("need at least 3 variables")
    _check_terms(n, 1.0)
    masks = [
        (1 << i) | (1 << j) | (1 << k) for i, j, k in combinations(range(n), 3)
    ]
    return Anf(n, frozenset(masks))


DEFAULT_SCALE = 0.5  # see Degree3SamplerConfig
# (s, scale) of rand3-half, which keeps every monomial with probability 1/2
RAND3_HALF = (3.0, 0.5)


def _check_terms(n: int, p: float) -> None:
    """Refuse a degree-3 draw on n variables whose expected C(n, 3) p terms pass MAX_TERMS."""
    expected = math.comb(n, 3) * p
    if expected > MAX_TERMS:
        raise TooLargeError(
            f"{expected:.0f} degree-3 terms expected at n = {n}, over the cap of {MAX_TERMS}"
        )


def inclusion_probability(n: int, s: float, scale: float) -> float:
    """scale / n^(3-s), the sparse degree-3 inclusion probability, in (0, 1/2]; refused when
    it makes more terms expected than MAX_TERMS."""
    p = scale / (n ** (3.0 - s))
    if not 0.0 < p <= 0.5:
        raise InconsistentError(f"inclusion probability {p} outside (0, 1/2]")
    _check_terms(n, p)
    return p


@dataclass(frozen=True)
class Degree3SamplerConfig:
    """Sparse degree-3 sampler: inclusion probability scale / n^(3-s).

    The default scale 1/2 matches the flat-disperser construction; scale 1
    matches the 0-restriction variant. Reports must state which scale was
    in force. The boundary s = 2 (inclusion probability 1/(2n)) is allowed
    for thickness-n^2 inputs even though the disperser statements start
    above it.
    """

    n: int
    s: float
    seed: int
    inclusion_scale: float = DEFAULT_SCALE
    p: float = field(init=False)

    def __post_init__(self):
        if not 2.0 <= self.s <= 3.0:
            raise InconsistentError(f"s = {self.s} outside [2, 3]")
        if self.n < 3:
            raise InconsistentError("need at least 3 variables")
        object.__setattr__(self, "p", inclusion_probability(self.n, self.s, self.inclusion_scale))


def random_degree3_sparse(cfg: Degree3SamplerConfig) -> Anf:
    """Seeded draw from the sparse degree-3 distribution."""
    return sample_degree3_with_rng(cfg.n, cfg.p, np.random.Generator(np.random.PCG64(cfg.seed)))


def sample_degree3_with_rng(n: int, p: float, rng: np.random.Generator) -> Anf:
    """Each degree-3 monomial kept independently with probability p.

    One uniform number per triple i < j < k in lexicographic order, drawn in
    one block per first variable; PCG64 gives the same numbers as one call.
    Memory is O(n^2 + terms), time is C(n, 3) draws.
    """
    if not 0.0 < p <= 1.0:
        raise InconsistentError(f"inclusion probability {p} outside (0, 1]")
    # pairs a < b for x_{a+2} x_{b+2}; those completing x_{i+1} are the last C(n-1-i, 2)
    m = n - 1
    first, second = np.nonzero(np.arange(m)[:, None] < np.arange(m))
    masks = []
    for i in range(n - 2):
        size = math.comb(n - 1 - i, 2)
        hits = first.size - size + (rng.random(size) < p).nonzero()[0]
        pairs = zip(first[hits].tolist(), second[hits].tolist())
        masks += [(1 << i) | (2 << a) | (2 << b) for a, b in pairs]
    return Anf(n, frozenset(masks))
