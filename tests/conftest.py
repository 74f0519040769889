"""Shared helpers and independent slow oracles for the test suite."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from anflat.anf_core import Anf

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def slow_anf_masks(values) -> set[int]:
    """ANF coefficients straight from the definition: c_S = XOR over T subset S."""
    size = len(values)
    masks = set()
    for s in range(size):
        acc = 0
        t = s
        while True:
            acc ^= int(values[t])
            if t == 0:
                break
            t = (t - 1) & s
        if acc:
            masks.add(s)
    return masks


def slow_evaluate(f: Anf, point_bits: int) -> int:
    """Direct sum-of-products evaluation, independent of Anf.evaluate."""
    acc = 0
    for m in f.terms:
        prod = 1
        mm = m
        while mm:
            j = (mm & -mm).bit_length() - 1
            prod &= (point_bits >> j) & 1
            mm &= mm - 1
        acc ^= prod
    return acc


def slow_rank(vectors) -> int:
    """Rank over GF(2) from the span size: enumerate every subset XOR."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return len(span).bit_length() - 1


def random_anf(n: int, rng: np.random.Generator, term_rate: float = 0.3) -> Anf:
    """Uniform-ish random ANF: each of the 2^n monomials kept with term_rate."""
    masks = [m for m in range(1 << n) if rng.random() < term_rate]
    return Anf(n, frozenset(masks))


def random_quadratic(n: int, rng: np.random.Generator) -> Anf:
    """Random polynomial of degree at most 2."""
    masks = []
    if rng.random() < 0.5:
        masks.append(0)
    for i in range(n):
        if rng.random() < 0.4:
            masks.append(1 << i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                masks.append((1 << i) | (1 << j))
    return Anf(n, frozenset(masks))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)
