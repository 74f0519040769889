"""Shared helpers and independent slow oracles for the test suite."""
from __future__ import annotations

import json
import shutil
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from anflat.anf_core import Anf, FunctionInput
from anflat.errors import DimensionMismatchError
from anflat.f2_linalg import AffineMap, BitMatrix, BitVec, Flat, bit_indices
from anflat.quadratic import DicksonForm
from anflat.restriction import UntilCrucialAtMostThirdOfAlive

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def pytest_configure(config):
    """Give Hypothesis a temporary home: it caches constants read from source there
    at collection, even with no example database, and the checkout stays clean."""
    home = tempfile.mkdtemp(prefix="anflat-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


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
    """Direct sum-of-products evaluation, independent of the packed kernel."""
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


def slow_evaluate_f(func: FunctionInput, point: BitVec) -> int:
    """f(point) for f = g o A^-1: g at A^-1(point), by slow_evaluate."""
    if func.bijection is not None:
        point = func.bijection.inverse().apply(point)
    return slow_evaluate(func.g, point.bits)


def flat_points(flat: Flat) -> list[BitVec]:
    """All 2^k points of the flat, in point_at order."""
    return [flat.point_at(i) for i in range(1 << flat.dimension)]


def slow_rank(vectors) -> int:
    """Rank over GF(2) from the span size: enumerate every subset XOR."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return len(span).bit_length() - 1


def slow_thickness(f: Anf) -> int:
    """Least sparsity of x -> f(Mx + b) over every n x n matrix M of full slow_rank
    and every offset b: the table by slow_evaluate, the sparsity by slow_anf_masks."""
    n = f.num_vars
    size = 1 << n
    values = [slow_evaluate(f, x) for x in range(size)]
    best = size
    for bits in range(1 << (n * n)):
        rows = [(bits >> (n * i)) & (size - 1) for i in range(n)]
        if slow_rank(rows) < n:
            continue
        # image[x] = Mx, bit i being the parity of row i and x
        image = [sum(((r & x).bit_count() & 1) << i for i, r in enumerate(rows))
                 for x in range(size)]
        for b in range(size):
            best = min(best, len(slow_anf_masks([values[y ^ b] for y in image])))
    return best


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


def slow_sample_degree3(n: int, p: float, rng: np.random.Generator) -> Anf:
    """Each degree-3 monomial kept with probability p: all C(n, 3) triples
    listed in lexicographic order, then one rng.random call for all of them."""
    combos = list(combinations(range(n), 3))
    draws = rng.random(len(combos))
    masks = [
        (1 << i) | (1 << j) | (1 << k)
        for (i, j, k), u in zip(combos, draws)
        if u < p
    ]
    return Anf(n, frozenset(masks))


def slow_greedy(f: Anf, rule) -> tuple[list[tuple[int, int, int]], set[int], Anf]:
    """Greedy 0-restriction recounted from scratch at every step.

    Returns the (var, crucial_before, occ) steps, the alive variables and
    the residual. Each step counts every alive variable's crucial terms
    anew and zeroes the lowest-index variable of the largest count. The
    stop rules are restated here, not read off `rule.done`.
    """
    terms = set(f.terms)
    alive = set(range(1, f.num_vars + 1))
    trace = []
    third = isinstance(rule, UntilCrucialAtMostThirdOfAlive)
    while True:
        crucial = [m for m in terms if m.bit_count() >= 3]
        if not crucial or (third and 3 * len(crucial) <= len(alive)):
            break
        counts = {v: sum(m >> (v - 1) & 1 for m in crucial) for v in alive}
        top = max(counts.values())
        v = min(u for u in alive if counts[u] == top)
        trace.append((v, len(crucial), top))
        terms = {m for m in terms if not m >> (v - 1) & 1}
        alive.remove(v)
    return trace, alive, Anf(f.num_vars, frozenset(terms))


def matrix_of_rows(rows, cols: int) -> BitMatrix:
    """The matrix with these packed rows."""
    return BitMatrix(len(rows), cols, tuple(rows))


def identity_matrix(n: int) -> BitMatrix:
    return matrix_of_rows([1 << i for i in range(n)], n)


def identity_map(n: int) -> AffineMap:
    return AffineMap(identity_matrix(n), BitVec(n))


def compose_affine(f: Anf, a: AffineMap) -> Anf:
    """ANF of x -> f(a(x)), by expanding each monomial's product of forms.

    Every x_i inside a monomial becomes the affine form given by row i of
    the matrix plus the offset bit; products are expanded term by term with
    eager GF(2) cancellation. Worst-case growth is exponential, so it is a
    slow oracle for small inputs only.
    """
    if a.dimension != f.num_vars:
        raise DimensionMismatchError("map dimension does not match variable count")
    forms = [(a.matrix.row_bits[i], a.offset.bits >> i & 1) for i in range(f.num_vars)]
    result: set[int] = set()
    for term in f.terms:
        partial: set[int] = {0}
        for i in bit_indices(term):
            row, const = forms[i]
            nxt: set[int] = set()
            for p in partial:
                if const:
                    nxt ^= {p}
                for j in bit_indices(row):
                    nxt ^= {p | (1 << j)}
            partial = nxt
        result ^= partial
    return Anf(f.num_vars, frozenset(result))


def canonical_anf(d: DicksonForm) -> Anf:
    """The ANF sum of y_{2i-1} y_{2i} plus the tail, on variables y_1..y_n."""
    masks = [(1 << k) | (1 << (k + 1)) for k in range(0, d.t, 2)]
    if d.form_type == "II":
        masks.append(1 << d.t)
    elif d.c:
        masks.append(0)
    return Anf(d.num_vars, frozenset(masks))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)
