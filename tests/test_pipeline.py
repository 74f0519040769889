import math
from itertools import combinations

import numpy as np
import pytest

from anflat.anf_core import (
    Anf,
    FunctionInput,
    anf_to_truth_table,
    parse_anf,
)
from anflat.errors import TooLargeError
from anflat.experiments import random_flat
from anflat.f2_linalg import BitVec, Flat, random_affine_map, rank
from anflat.generators import Degree3SamplerConfig, prop6_base, random_degree3_sparse
from anflat.pipeline import (
    VERIFY_SEED,
    _invertible_matrices,
    VERDICT_CONSTANT,
    VERDICT_CONSTANT_LOW_DEGREE,
    VERDICT_NOT_CONSTANT,
    VERDICT_SAMPLED_OK,
    brute_force_normality,
    brute_force_thickness,
    find_constant_flat,
    guaranteed_dimension,
    verify_flat,
)
from conftest import (
    compose_affine,
    flat_points,
    matrix_of_rows,
    random_anf,
    random_quadratic,
    slow_evaluate,
    slow_evaluate_f,
    slow_rank,
)


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
    table = anf_to_truth_table(f)
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
    for p in flat_points(report.flat):
        assert slow_evaluate(prop6_base(), p.bits) == 0


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
        traced = [s.var for s in report.trace.steps]
        for p in flat_points(report.flat):
            assert [p.bits >> (v - 1) & 1 for v in traced] == [0] * len(traced)
            assert slow_evaluate(f, p.bits) == report.constant


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
        for p in flat_points(report.flat):
            assert slow_evaluate_f(func, p) == report.constant


def test_find_constant_flat_epsilon_bound(rng):
    f = random_degree3_sparse(Degree3SamplerConfig(n=10, s=3.0, seed=4))
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
    assert slow_evaluate_f(linear, a) != slow_evaluate_f(linear, b)

    point = Flat(2, BitVec.from_string("11"), ())
    v = verify_flat(func, point)
    assert v.kind == VERDICT_CONSTANT and v.value == 1


def ball_rank_and_radius(func: FunctionInput, flat: Flat) -> tuple[int, int]:
    """(r, d) such that the low-degree check evaluates the Hamming ball of
    radius d in F2^r, from first principles."""
    support = 0
    for m in func.g.terms:
        support |= m
    g_flat = flat if func.bijection is None else flat.map_through(func.bijection.inverse())
    r = rank(matrix_of_rows([b.bits & support for b in g_flat.basis], flat.ambient))
    return r, min(func.g.degree(), r)


def ball_size(func: FunctionInput, flat: Flat) -> int:
    """Points of the Hamming ball the low-degree check evaluates."""
    r, d = ball_rank_and_radius(func, flat)
    return sum(math.comb(r, w) for w in range(d + 1))


def test_verify_flat_sampled_mode(rng):
    n = 24
    f = random_degree3_sparse(Degree3SamplerConfig(n=n, s=3.0, seed=11))
    func = FunctionInput(f)
    report = find_constant_flat(func)
    cap = ball_size(func, report.flat) - 1  # below the ball: only sampling fits the cap
    if cap < 1 or cap >= 1 << report.flat.dimension:
        pytest.skip("flat too small for a sampled check below the ball")
    v = verify_flat(func, report.flat, claimed=report.constant, sample_cap=cap)
    assert v.kind == VERDICT_SAMPLED_OK
    assert v.samples == cap
    # sampled rejection: the full space is not constant for this f
    full = Flat(n, BitVec(n), tuple(BitVec(n, 1 << i) for i in range(n)))
    assert ball_size(func, full) > 512
    v = verify_flat(func, full, sample_cap=512)
    assert v.kind == VERDICT_NOT_CONSTANT and v.seed is not None


def expected_sampled_verdict(func: FunctionInput, flat: Flat, cap: int, claimed):
    """(kind, value, witness) of the sampled check, rebuilt from its seeded draws.

    Sample i is the flat point whose basis combination is bit 7 - i % 8 of
    byte i // 8 of each drawn column; its value comes from the slow evaluator.
    """
    rng = np.random.Generator(np.random.PCG64(VERIFY_SEED))
    zcols = rng.integers(0, 256, size=((cap + 7) // 8, flat.dimension), dtype=np.uint8)
    combos = np.unpackbits(zcols, axis=0)[:cap]
    points = [flat.point_at(sum(1 << int(j) for j in np.flatnonzero(c))) for c in combos]
    values = [slow_evaluate_f(func, p) for p in points]
    reference = values[0] if claimed is None else claimed
    same = [p for p, v in zip(points, values) if v == reference]
    differ = [p for p, v in zip(points, values) if v != reference]
    if not differ:
        return VERDICT_SAMPLED_OK, reference, None
    return VERDICT_NOT_CONSTANT, None, (same[0], differ[0]) if same else (differ[0],)


def test_verify_flat_sampled_witness_shapes(rng):
    """sampled_ok, a (good, bad) pair, and a lone bad point when no sample matches the claim."""
    n, cap = 12, 64
    # every term holds x1, so f = 0 on x1 = 0, and the terms cover all 12 variables
    g = Anf(n, frozenset(1 | (1 << a) | (1 << b) for a, b in combinations(range(1, n), 2)
                         if (a + b) % 3 == 0))
    zero_flat = Flat(n, BitVec(n), tuple(BitVec(n, 1 << i) for i in range(1, n)))
    full = Flat(n, BitVec(n), tuple(BitVec(n, 1 << i) for i in range(n)))
    cases = [(FunctionInput(g), zero_flat, claimed) for claimed in (None, 0, 1)]
    cases += [(FunctionInput(g), full, claimed) for claimed in (None, 0, 1)]
    bijection = random_affine_map(n, rng)
    cases += [(FunctionInput(g, bijection), zero_flat.map_through(bijection), c) for c in (0, 1)]
    shapes = set()
    for func, flat, claimed in cases:
        assert ball_size(func, flat) > cap and 1 << flat.dimension > cap
        v = verify_flat(func, flat, claimed=claimed, sample_cap=cap)
        assert (v.kind, v.value, v.witness) == expected_sampled_verdict(func, flat, cap, claimed)
        assert v.samples == cap and v.seed == VERIFY_SEED
        shapes.add(v.kind if v.witness is None else len(v.witness))
    assert shapes == {VERDICT_SAMPLED_OK, 1, 2}


def check_low_degree_against_exhaustive(func: FunctionInput, flat: Flat):
    """None when the ball exceeds 2^k - 1 points, else whether f is constant
    on the flat and the radius of the ball.

    The exhaustive verdict is checked against the slow evaluator first;
    the low-degree check, forced by a cap of 2^k - 1, must then agree with
    it, and a witness pair must really disagree.
    """
    points = flat_points(flat)
    values = [slow_evaluate_f(func, p) for p in points]
    exact = verify_flat(func, flat)
    if len(set(values)) == 1:
        assert exact.kind == VERDICT_CONSTANT and exact.value == values[0]
    else:
        first_other = next(i for i, v in enumerate(values) if v != values[0])
        assert exact.kind == VERDICT_NOT_CONSTANT
        assert exact.witness == (points[0], points[first_other])

    ball = ball_size(func, flat)
    _, radius = ball_rank_and_radius(func, flat)
    low = verify_flat(func, flat, sample_cap=(1 << flat.dimension) - 1)
    if ball >= 1 << flat.dimension:
        assert low.seed is not None  # the sampled fallback ran instead
        return None
    assert low.seed is None and low.samples == ball
    if exact.kind == VERDICT_CONSTANT:
        assert low.kind == VERDICT_CONSTANT_LOW_DEGREE and low.value == exact.value
        return True, radius
    assert low.kind == VERDICT_NOT_CONSTANT
    a, b = low.witness
    assert a == points[0] and slow_evaluate_f(func, a) != slow_evaluate_f(func, b)
    return False, radius


def test_low_degree_verification_matches_exhaustive(rng):
    """Hamming-ball verification agrees with exhaustive evaluation on every flat it
    checks, for g of degree up to 3 and up to 5."""
    outcomes = []
    for trial in range(200):
        n = int(rng.integers(1, 11))
        rate = (0.03, 0.1, 0.2)[trial % 3]
        # every other pair of trials adds terms of degree 4 and 5, four times sparser
        degree = (3, 5)[trial // 2 % 2]
        g = Anf(n, frozenset(
            m for m in range(1 << n) if m.bit_count() <= degree
            and rng.random() < (rate if m.bit_count() <= 3 else rate / 4)
        ))
        bijection = random_affine_map(n, rng) if trial % 2 else None
        func = FunctionInput(g, bijection)
        flats = [find_constant_flat(func).flat]
        flats += [random_flat(n, k, rng) for k in range(1, n + 1) for _ in range(3)]
        for flat in flats:
            if flat.dimension == 0:
                continue
            outcome = check_low_degree_against_exhaustive(func, flat)
            outcomes.append(outcome)
            if outcome and outcome[0]:
                # one flipped term of degree <= 3 usually breaks constancy on the flat
                for _ in range(3):
                    term = 0
                    for j in rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False):
                        term |= 1 << int(j)
                    flipped = FunctionInput(Anf(n, g.terms ^ {term}), bijection)
                    outcomes.append(check_low_degree_against_exhaustive(flipped, flat))
    ran = [c for c in outcomes if c is not None]
    constant = [c for c, _ in ran]
    assert len(ran) >= 3000
    assert constant.count(True) >= 800 and constant.count(False) >= 2000
    assert max(radius for _, radius in ran) >= 4


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
        vals = {slow_evaluate(f, p.bits) for p in flat_points(flat)}
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


def test_invertible_matrices_are_gl_n_in_row_order():
    for n, order in ((1, 1), (2, 6), (3, 168), (4, 20160)):
        matrices = list(_invertible_matrices(n))
        assert len(matrices) == order  # |GL(n, 2)|
        assert all(a < b for a, b in zip(matrices, matrices[1:]))
        assert all(slow_rank(m) == n for m in matrices)


def test_thickness_via_symbolic_composition_oracle(rng):
    # cross-check the truth-table route against explicit composition at n = 2
    from anflat.f2_linalg import AffineMap, BitVec as BV

    n = 2
    matrices = []
    for bits in range(1 << (n * n)):
        rows = [(bits >> (n * i)) & ((1 << n) - 1) for i in range(n)]
        m = matrix_of_rows(rows, n)
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
