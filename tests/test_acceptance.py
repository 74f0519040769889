"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance and budget is pinned here; the suite is the exit gate for
the build.
"""
import math
import time

import numpy as np
import pytest

from anflat.anf_core import (
    Anf,
    FunctionInput,
    anf_to_truth_table,
    evaluate_on_points,
    parse_anf,
    truth_table_to_anf,
)
from anflat.cli import main
from anflat.experiments import KIND_FLATS, ExperimentConfig, run_experiment
from anflat.f2_linalg import random_affine_map
from anflat.generators import (
    Degree3SamplerConfig,
    majority,
    prop6_base,
    prop6_family,
    random_degree3_sparse,
)
from anflat.pipeline import (
    VERDICT_CONSTANT,
    VERDICT_CONSTANT_LOW_DEGREE,
    brute_force_normality,
    brute_force_thickness,
    find_constant_flat,
    guaranteed_dimension,
    verify_flat,
)
from anflat.quadratic import dickson_decompose
from anflat.restriction import (
    UntilCrucialAtMostThirdOfAlive,
    UntilNoCrucial,
    exhaustive_hitting_set,
    greedy_restrict,
    occurrence_counts,
)
from conftest import (
    canonical_anf,
    compose_affine,
    random_anf,
    random_quadratic,
    slow_anf_masks,
)


@pytest.fixture
def report(capsys):
    """Emit one pass line per criterion, past pytest's output capture."""

    def _report(number: int, budget: float, elapsed: float, message: str) -> None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.1f}s < {budget:g}s): {message}")

    return _report


def test_criterion_01_transform_round_trip(report):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for n in range(1, 11):
        inputs = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(
            np.uint8
        )
        for _ in range(100):
            table = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            f = truth_table_to_anf(table)
            assert np.array_equal(anf_to_truth_table(f), table)
            assert truth_table_to_anf(anf_to_truth_table(f)) == f
            assert np.array_equal(evaluate_on_points(f, inputs), table)
            checked += 1
    report(
        1,
        10.0,
        time.perf_counter() - start,
        f"transform round trip and pointwise agreement on {checked} functions, n 1..10",
    )


def test_criterion_02_base_cubic_exactness(report):
    start = time.perf_counter()
    f = prop6_base()
    assert occurrence_counts(f) == {v: 2 for v in range(1, 7)}
    state = greedy_restrict(f, UntilNoCrucial())
    assert len(state.trace) == 2
    assert state.current == Anf.zero(6)
    optimum = exhaustive_hitting_set(f)
    assert optimum is not None and len(optimum) == 2
    report(
        2,
        1.0,
        time.perf_counter() - start,
        "greedy kills the base cubic in exactly 2 steps; exact optimum 2; all occurrences 2",
    )


def test_criterion_03_block_family_tightness(report):
    start = time.perf_counter()
    for m in (1, 2, 3):
        state = greedy_restrict(prop6_family(m), UntilCrucialAtMostThirdOfAlive())
        assert len(state.trace) == 6 * m, m
        assert len(state.alive) == 24 * m, m
        assert state.crucial_count == 8 * m, m
    report(
        3,
        5.0,
        time.perf_counter() - start,
        "third-of-alive rule stops at exactly 6m steps, 24m alive, 8m crucial for m in 1..3",
    )


def test_criterion_04_trace_invariants(report):
    start = time.perf_counter()
    functions = []
    for i in range(100):
        n = 8 + (i % 7)  # 8..14
        # rand3-half: every monomial kept with probability 1/2
        functions.append(random_degree3_sparse(Degree3SamplerConfig(n=n, s=3.0, seed=1000 + i)))
    for i in range(100):
        n = (24, 32, 48, 64)[i % 4]
        s = (2.0, 2.25, 2.5)[i % 3]
        cfg = Degree3SamplerConfig(n=n, s=s, seed=2000 + i)
        functions.append(random_degree3_sparse(cfg))
    steps_checked = 0
    for f in functions:
        n = f.num_vars
        total = f.crucial_count()
        state = greedy_restrict(f, UntilNoCrucial())
        alive = n
        for k, step in enumerate(state.trace.steps):
            assert step.occ >= -(-3 * step.crucial_before // alive)
            after = (
                state.trace.steps[k + 1].crucial_before
                if k + 1 < len(state.trace.steps)
                else 0
            )
            # cubic decay in exact integer arithmetic
            assert after * n**3 <= total * (n - k - 1) ** 3
            alive -= 1
            steps_checked += 1
        assert state.crucial_count == 0
    report(
        4,
        60.0,
        time.perf_counter() - start,
        f"pigeonhole floor and cubic decay on {steps_checked} steps over 200 traces",
    )


def test_criterion_05_quadratic_recomposition(report):
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for i in range(1000):
        n = 2 + (i % 15)  # 2..16
        f = random_quadratic(n, rng)
        d = dickson_decompose(f)
        assert compose_affine(canonical_anf(d), d.map) == f
        for _ in range(5):
            a = random_affine_map(n, rng)
            assert dickson_decompose(compose_affine(f, a)).t == d.t
    report(
        5,
        60.0,
        time.perf_counter() - start,
        "1000 exact recompositions; t stable under 5 random bijections each",
    )


def test_criterion_06_end_to_end_flats(report):
    start = time.perf_counter()
    modes = {VERDICT_CONSTANT: 0, VERDICT_CONSTANT_LOW_DEGREE: 0}
    for n in (16, 32, 64):
        floor = guaranteed_dimension(n, 1.0)
        assert floor == max(0.0, (4 / 15) * math.sqrt(2 * n / 3) - 3)
        for i in range(50):
            cfg = Degree3SamplerConfig(n=n, s=2.0, seed=6000 + i)
            f = random_degree3_sparse(cfg)
            assert f.crucial_count() <= n * n
            func = FunctionInput(f)
            rep = find_constant_flat(func, epsilon=1.0)
            type_two = 1 if rep.dickson.form_type == "II" else 0
            assert (
                rep.flat.dimension
                == n - len(rep.trace) - rep.dickson.t // 2 - type_two
            )
            assert rep.flat.dimension >= rep.guaranteed_dim == floor
            verdict = verify_flat(func, rep.flat, rep.constant, sample_cap=1 << 20)
            assert verdict.kind in modes
            assert verdict.value == rep.constant
            modes[verdict.kind] += 1
    report(
        6,
        120.0,
        time.perf_counter() - start,
        f"150 pipeline runs verified exactly ({modes[VERDICT_CONSTANT]} exhaustively, "
        f"{modes[VERDICT_CONSTANT_LOW_DEGREE]} on the Hamming ball of radius deg g); "
        "dimension floor and accounting exact",
    )


def test_criterion_07_oracle_consistency(report):
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    for i in range(200):
        n = 2 + (i % 5)  # 2..6
        f = random_anf(n, rng, term_rate=0.25)
        rep = find_constant_flat(FunctionInput(f))
        normality, _ = brute_force_normality(f)
        assert rep.flat.dimension <= normality
    for n in range(2, 7):
        for linear in range(1, 1 << n):
            for const in (0, 1):
                masks = [1 << j for j in range(n) if (linear >> j) & 1]
                if const:
                    masks.append(0)
                value, _ = brute_force_normality(Anf(n, frozenset(masks)))
                assert value == n - 1
    for n in range(1, 4):
        for linear in range(1, 1 << n):
            for const in (0, 1):
                masks = [1 << j for j in range(n) if (linear >> j) & 1]
                if const:
                    masks.append(0)
                assert brute_force_thickness(Anf(n, frozenset(masks))) == 1
    assert brute_force_thickness(parse_anf("x1*x2 + x1", 2)) == 1
    report(
        7,
        300.0,
        time.perf_counter() - start,
        "pipeline never beats exact normality on 200 inputs; affine oracles exact",
    )


def test_criterion_08_sampler_statistics(report):
    start = time.perf_counter()
    n, s = 20, 2.5
    p = 1.0 / (2.0 * n**0.5)
    total = math.comb(n, 3)
    sparsities = [
        random_degree3_sparse(Degree3SamplerConfig(n=n, s=s, seed=seed)).sparsity()
        for seed in range(2000)
    ]
    mean = sum(sparsities) / len(sparsities)
    sigma = math.sqrt(p * (1 - p) * total / len(sparsities))
    assert abs(mean - p * total) <= 4 * sigma, (mean, p * total, sigma)

    half = [
        random_degree3_sparse(Degree3SamplerConfig(n=10, s=3.0, seed=seed)).sparsity()
        for seed in range(2000)
    ]
    mean_half = sum(half) / len(half)
    sigma_half = math.sqrt(0.25 * math.comb(10, 3) / len(half))
    assert abs(mean_half - 60.0) <= 4 * sigma_half, (mean_half, sigma_half)
    report(
        8,
        30.0,
        time.perf_counter() - start,
        f"sparse mean {mean:.2f} within 4 sigma of {p * total:.2f}; "
        f"half mean {mean_half:.2f} within 4 sigma of 60",
    )


def test_criterion_09_asymptotic_disclosure(report):
    start = time.perf_counter()
    # (a) every experiment report is flagged as evidence, not proof
    from anflat.experiments import KIND_RESTRICTIONS, KIND_SAMPLER

    flats_cfg = dict(
        kind=KIND_FLATS, n=12, trials=500, master_seed=909, s=2.5, k=3, flats_per_trial=50
    )
    rep_flats = run_experiment(ExperimentConfig(**flats_cfg))
    rep_restr = run_experiment(
        ExperimentConfig(
            kind=KIND_RESTRICTIONS,
            n=16,
            trials=20,
            master_seed=909,
            s=2.5,
            restrictions_per_trial=10,
        )
    )
    rep_sampler = run_experiment(
        ExperimentConfig(kind=KIND_SAMPLER, n=10, trials=20, master_seed=909, family="rand3-half")
    )
    for rep in (rep_flats, rep_restr, rep_sampler):
        assert rep.to_json_dict()["asymptotic_claim"] is True

    # (b) the desk-scale disperser run reports a rate with a Wilson CI and
    # is byte-stable under its master seed
    assert rep_flats.aggregate["pairs"] == 500 * 50
    assert 0.0 <= rep_flats.aggregate["constancy_rate"] <= 1.0
    low, high = rep_flats.aggregate["wilson_ci_95"]
    assert low <= rep_flats.aggregate["constancy_rate"] <= high
    again = run_experiment(ExperimentConfig(**flats_cfg))
    assert again.to_json_text() == rep_flats.to_json_text()

    # (c) majority sparsity against the subset-sum transform oracle
    for n in range(1, 13):
        f = majority(n)
        table = anf_to_truth_table(f)
        assert f.terms == frozenset(slow_anf_masks(table))
    report(
        9,
        120.0,
        time.perf_counter() - start,
        f"asymptotic_claim on all reports; disperser rate "
        f"{rep_flats.aggregate['constancy_rate']:.4f} in CI [{low:.4f}, {high:.4f}], "
        "byte-stable; majority ANF matches the oracle for n 1..12",
    )


def test_criterion_10_cli_determinism(capsys, report):
    start = time.perf_counter()

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, argv
        return captured.out

    from pathlib import Path

    fixture = Path(__file__).resolve().parent / "data" / "base_cubic.anf"
    reruns = [
        ("gen", "rand3-sparse", "--n", "20", "--s", "2.5", "--seed", "7"),
        ("gen", "rand3-half", "--n", "12", "--seed", "0xBEEF"),
        (
            "experiment", "sampler-stats", "--n", "10", "--family", "rand3-half",
            "--trials", "25", "--master-seed", "10",
        ),
        (
            "experiment", "disperser-flats", "--n", "12", "--s", "2.5", "--k", "3",
            "--trials", "5", "--flats-per-trial", "10", "--master-seed", "10",
        ),
        (
            "experiment", "disperser-restrictions", "--n", "16", "--s", "2.5",
            "--trials", "5", "--restrictions-per-trial", "10", "--master-seed", "10",
        ),
        ("find-flat", "--json", "--epsilon", "1.0", str(fixture)),
    ]
    for argv in reruns:
        first = run(*argv)
        second = run(*argv)
        assert first == second, argv
        threaded = run(*argv, "--threads", "3") if argv[0] == "experiment" else None
        if threaded is not None:
            assert threaded == first, argv
    report(
        10,
        60.0,
        time.perf_counter() - start,
        f"{len(reruns)} randomized commands rerun byte-identically, thread count varied",
    )
