from itertools import combinations

import pytest

from anflat.anf_core import (
    Anf,
    FunctionInput,
    anf_to_truth_table,
    compose_affine,
    parse_anf,
)
from anflat.errors import TooLargeError
from anflat.f2_linalg import BitVec, Flat, random_affine_map
from anflat.generators import prop6_base, random_degree3_half
from anflat.pipeline import (
    VERDICT_CONSTANT,
    VERDICT_NOT_CONSTANT,
    VERDICT_SAMPLED_OK,
    brute_force_normality,
    brute_force_thickness,
    find_constant_flat,
    guaranteed_dimension,
    verify_flat,
)
from conftest import random_anf, random_quadratic


def all_flats_brute_force(n: int):
    """Oracle: every affine subspace of F2^n as a frozenset of points.

    A nonempty point set S is a flat iff it is closed under a + b + c.
    Exponential in 2^n; fine for n <= 3.
    """
    points = range(1 << n)
    out = []
    for size in (1 << k for k in range(n + 1)):
        for subset in combinations(points, size):
            s = set(subset)
            if all(a ^ b ^ c in s for a in s for b in s for c in s):
                out.append(frozenset(s))
    return out


def oracle_normality(f: Anf) -> int:
    table = anf_to_truth_table(f).values
    best = 0
    for flat in all_flats_brute_force(f.num_vars):
        vals = {int(table[p]) for p in flat}
        if len(vals) == 1:
            best = max(best, len(flat).bit_length() - 1)
    return best


def test_find_constant_flat_base_cubic():
    report = find_constant_flat(FunctionInput(prop6_base()))
    assert report.flat.dimension == 4
    assert report.constant == 0
    assert [s.var for s in report.trace.steps] == [1, 6]
    # exhaustive check over all 16 points
    for p in report.flat.points():
        assert prop6_base().evaluate(p) == 0


def test_find_constant_flat_simple_cases():
    r = find_constant_flat(FunctionInput(parse_anf("x1*x2", 2)))
    assert r.flat.dimension == 1 and r.constant == 0
    r = find_constant_flat(FunctionInput(parse_anf("x1 + x4", 5)))
    assert r.flat.dimension == 4
    assert r.dickson.form_type == "II" and r.dickson.t == 0


def test_stagewise_embedding_invariant(rng):
    """Every point of the reported flat has x_v = 0 for every traced v."""
    for _ in range(30):
        n = int(rng.integers(4, 11))
        f = random_anf(n, rng, term_rate=0.2)
        report = find_constant_flat(FunctionInput(f))
        traced = report.trace.variables()
        for p in report.flat.points():
            assert [p.bit(v - 1) for v in traced] == [0] * len(traced)
            assert f.evaluate(p) == report.constant


def test_find_constant_flat_dimension_accounting(rng):
    for _ in range(40):
        n = int(rng.integers(2, 12))
        f = random_anf(n, rng, term_rate=0.15)
        report = find_constant_flat(FunctionInput(f))
        type_two = 1 if report.dickson.form_type == "II" else 0
        assert (
            report.flat.dimension
            == n - len(report.trace) - report.dickson.t // 2 - type_two
        )
        assert report.verification["mode"] == "exhaustive"


def test_find_constant_flat_with_bijection(rng):
    f = prop6_base()
    for _ in range(10):
        a = random_affine_map(6, rng)
        func = FunctionInput(f, a)
        report = find_constant_flat(func)
        inv = a.inverse()
        for p in report.flat.points():
            assert f.evaluate(inv.apply(p)) == report.constant


def test_find_constant_flat_epsilon_bound(rng):
    f = random_degree3_half(10, 4)
    report = find_constant_flat(FunctionInput(f), epsilon=1.0)
    assert report.bound_epsilon == 1.0
    assert report.guaranteed_dim == guaranteed_dimension(10, 1.0)
    assert report.flat.dimension >= report.guaranteed_dim


def test_guaranteed_dimension_clamped():
    assert guaranteed_dimension(16, 1.0) == 0.0
    big = guaranteed_dimension(10, 2.0)  # n^eps = 100 still below the knee
    assert big == 0.0
    assert guaranteed_dimension(1000, 1.5) > 0.0


def test_verify_flat_verdicts():
    func = FunctionInput(parse_anf("x1*x2", 2))
    flat = Flat(2, BitVec(2), (BitVec.from_string("01"),))
    v = verify_flat(func, flat)
    assert v.kind == VERDICT_CONSTANT and v.value == 0

    linear = FunctionInput(parse_anf("x1", 2))
    full = Flat(2, BitVec(2), (BitVec.from_string("10"), BitVec.from_string("01")))
    v = verify_flat(linear, full)
    assert v.kind == VERDICT_NOT_CONSTANT
    a, b = v.witness
    assert linear.evaluate(a) != linear.evaluate(b)

    point = Flat(2, BitVec.from_string("11"), ())
    v = verify_flat(func, point)
    assert v.kind == VERDICT_CONSTANT and v.value == 1


def test_verify_flat_sampled_mode(rng):
    n = 24
    f = random_degree3_half(n, 11)
    report = find_constant_flat(FunctionInput(f))
    if report.flat.dimension < 3:
        pytest.skip("trace left too small a flat for a sampled check")
    v = verify_flat(
        FunctionInput(f), report.flat, claimed=report.constant, sample_cap=1 << (report.flat.dimension - 1)
    )
    assert v.kind == VERDICT_SAMPLED_OK
    assert v.samples == 1 << (report.flat.dimension - 1)
    # sampled rejection: the full space is not constant for this f
    full = Flat(n, BitVec(n), tuple(BitVec(n, 1 << i) for i in range(n)))
    v = verify_flat(FunctionInput(f), full, sample_cap=512)
    assert v.kind == VERDICT_NOT_CONSTANT


def test_brute_force_normality_examples():
    value, flat = brute_force_normality(parse_anf("x1*x2", 2))
    assert value == 1 and flat.dimension == 1
    value, _ = brute_force_normality(parse_anf("x1 + x2 + x3 + 1", 4))
    assert value == 3
    value, flat = brute_force_normality(parse_anf("1", 3))
    assert value == 3 and flat.dimension == 3
    with pytest.raises(TooLargeError):
        brute_force_normality(Anf.zero(9))


def test_brute_force_normality_witness_is_constant(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        f = random_anf(n, rng)
        value, flat = brute_force_normality(f)
        assert flat.dimension == value
        vals = {f.evaluate(p) for p in flat.points()}
        assert len(vals) == 1


def test_brute_force_normality_matches_point_set_oracle(rng):
    for _ in range(15):
        n = int(rng.integers(1, 4))
        f = random_anf(n, rng)
        value, _ = brute_force_normality(f)
        assert value == oracle_normality(f)


def test_all_affine_nonconstant_have_normality_n_minus_1():
    n = 4
    for linear in range(1, 1 << n):
        for const in (0, 1):
            masks = [1 << j for j in range(n) if (linear >> j) & 1]
            if const:
                masks.append(0)
            value, _ = brute_force_normality(Anf(n, frozenset(masks)))
            assert value == n - 1


def test_pipeline_dimension_never_beats_normality(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        f = random_anf(n, rng)
        report = find_constant_flat(FunctionInput(f))
        value, _ = brute_force_normality(f)
        assert report.flat.dimension <= value


def test_brute_force_thickness_examples():
    assert brute_force_thickness(parse_anf("x1 + x2", 3)) == 1
    assert brute_force_thickness(parse_anf("x1*x2 + x1", 2)) == 1
    assert brute_force_thickness(parse_anf("0", 2)) == 0
    assert brute_force_thickness(parse_anf("1", 2)) == 1
    with pytest.raises(TooLargeError):
        brute_force_thickness(Anf.zero(5))


def test_thickness_via_symbolic_composition_oracle(rng):
    # cross-check the truth-table route against explicit composition at n = 2
    from anflat.f2_linalg import AffineMap, BitMatrix, BitVec as BV

    n = 2
    matrices = []
    for bits in range(1 << (n * n)):
        rows = [(bits >> (n * i)) & ((1 << n) - 1) for i in range(n)]
        m = BitMatrix.from_rows(rows, n)
        from anflat.f2_linalg import rank as f2rank

        if f2rank(m) == n:
            matrices.append(m)
    for _ in range(10):
        f = random_quadratic(n, rng)
        best = None
        for m in matrices:
            for off in range(1 << n):
                a = AffineMap(m, BV(n, off))
                sparsity = compose_affine(f, a).sparsity()
                best = sparsity if best is None or sparsity < best else best
        assert brute_force_thickness(f) == best


def test_thickness_at_most_sparsity(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        f = random_anf(n, rng)
        assert brute_force_thickness(f) <= f.sparsity()


def test_thickness_of_single_monomial_equals_sparsity():
    assert brute_force_thickness(parse_anf("x1*x2*x3", 3)) == 1
    assert brute_force_thickness(parse_anf("x1*x2", 4)) == 1
