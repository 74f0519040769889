import json
import math

import numpy as np
import pytest

import anflat.experiments as experiments
from anflat.anf_core import Anf
from anflat.errors import InconsistentError, TooLargeError
from anflat.experiments import (
    KIND_FLATS,
    KIND_RESTRICTIONS,
    KIND_SAMPLER,
    ExperimentConfig,
    random_flat,
    run_experiment,
    stable_seed,
    wilson_interval,
)
from anflat.f2_linalg import rank
from anflat.generators import sample_degree3_with_rng
from conftest import matrix_of_rows, slow_evaluate


def test_stable_seed_is_order_free_and_fixed():
    assert stable_seed(1, 0) == stable_seed(1, 0)
    assert stable_seed(1, 0) != stable_seed(1, 1)
    assert stable_seed(2, 0) != stable_seed(1, 0)
    # frozen reference so cross-version drift would be caught
    assert stable_seed(0, 0) == 13913987977269637804


def test_wilson_interval_reference():
    # frozen references computed with an independent implementation
    low, high = wilson_interval(1, 10)
    assert low == pytest.approx(0.01787621309507, abs=1e-10)
    assert high == pytest.approx(0.40415002679524, abs=1e-10)
    low, high = wilson_interval(0, 20)
    assert low == 0.0
    assert high == pytest.approx(0.16112515805282, abs=1e-10)
    with pytest.raises(InconsistentError):
        wilson_interval(0, 0)


def test_random_flat_dimension_and_distribution():
    rng = np.random.default_rng(3)
    for k in (0, 1, 3):
        flat = random_flat(6, k, rng)
        assert flat.dimension == k
        mat = matrix_of_rows([b.bits for b in flat.basis], 6)
        assert rank(mat) == k
    with pytest.raises(InconsistentError):
        random_flat(4, 5, rng)


def test_config_validation():
    with pytest.raises(InconsistentError):
        ExperimentConfig(kind="nope", n=10, trials=1, master_seed=0)
    with pytest.raises(InconsistentError):
        ExperimentConfig(kind=KIND_FLATS, n=12, trials=1, master_seed=0, s=3.5, k=3)
    with pytest.raises(InconsistentError):
        ExperimentConfig(kind=KIND_FLATS, n=12, trials=0, master_seed=0, s=2.5, k=3)
    with pytest.raises(TooLargeError):
        ExperimentConfig(kind=KIND_FLATS, n=64, trials=1, master_seed=0, s=2.5, k=30)
    with pytest.raises(InconsistentError, match="flats per trial"):
        ExperimentConfig(kind=KIND_FLATS, n=12, trials=1, master_seed=0, s=2.5, k=3,
                         flats_per_trial=0)
    with pytest.raises(InconsistentError, match="restrictions per trial"):
        ExperimentConfig(kind=KIND_RESTRICTIONS, n=12, trials=1, master_seed=0, s=2.5, k=3,
                         restrictions_per_trial=-1)
    # a count the kind does not use is not checked
    ExperimentConfig(kind=KIND_FLATS, n=12, trials=1, master_seed=0, s=2.5, k=3,
                     restrictions_per_trial=0)
    cfg = ExperimentConfig(kind=KIND_SAMPLER, n=10, trials=5, master_seed=0, family="rand3-half")
    assert cfg.echo()["family"] == "rand3-half"
    assert cfg.inclusion_probability() == 0.5  # rand3-half is s = 3 at scale 1/2


def test_default_dimension_formulas():
    cfg = ExperimentConfig(
        kind=KIND_RESTRICTIONS, n=16, trials=1, master_seed=0, s=2.5
    )
    expected = round(3.0 * math.sqrt(math.log(16)) * 16 ** 0.25)
    assert cfg.k == expected == 10


def test_default_dimension_out_of_range_raises():
    # the default flat dimension formula exceeds n at desk scale
    with pytest.raises((InconsistentError, TooLargeError)):
        ExperimentConfig(kind=KIND_FLATS, n=4, trials=1, master_seed=0, s=2.1)


def test_sampler_stats_report():
    cfg = ExperimentConfig(
        kind=KIND_SAMPLER, n=10, trials=100, master_seed=42, family="rand3-half"
    )
    report = run_experiment(cfg)
    assert len(report.outcomes) == 100
    agg = report.aggregate
    assert agg["possible_terms"] == 120
    assert agg["expected_mean"] == pytest.approx(60.0)
    assert agg["within_4_sigma"]
    assert report.asymptotic_claim is True
    single = ExperimentConfig(
        kind=KIND_SAMPLER, n=10, trials=1, master_seed=7, family="rand3-half"
    )
    small = run_experiment(single)
    assert small.aggregate["mean_sparsity"] == small.outcomes[0]["sparsity"]


def test_report_byte_determinism():
    cfg = dict(kind=KIND_FLATS, n=12, trials=4, master_seed=9, s=2.5, k=3, flats_per_trial=8)
    a = run_experiment(ExperimentConfig(**cfg)).to_json_text()
    b = run_experiment(ExperimentConfig(**cfg)).to_json_text()
    assert a == b
    # wall clock never appears in the canonical document
    assert "wall_clock" not in a


def test_trial_seeds_are_positional():
    cfg = ExperimentConfig(
        kind=KIND_SAMPLER, n=10, trials=3, master_seed=5, family="rand3-half"
    )
    report = run_experiment(cfg)
    seeds = [row["seed"] for row in report.outcomes]
    assert seeds == [stable_seed(5, 0), stable_seed(5, 1), stable_seed(5, 2)]


def test_disperser_flats_trivial_cases():
    # k = n with a nonzero function: the full space cannot be constant
    cfg = ExperimentConfig(
        kind=KIND_FLATS, n=8, trials=3, master_seed=1, s=2.5, k=8, flats_per_trial=2
    )
    report = run_experiment(cfg)
    for row in report.outcomes:
        if row["sparsity"] > 0:
            assert row["constant_flats"] == 0
    assert report.aggregate["pairs"] == 6


def test_disperser_restrictions_trivial_cases():
    # k below 3 kills degree 3 always
    cfg = ExperimentConfig(
        kind=KIND_RESTRICTIONS,
        n=10,
        trials=3,
        master_seed=2,
        s=2.5,
        k=2,
        restrictions_per_trial=4,
    )
    report = run_experiment(cfg)
    assert report.aggregate["degenerate"] == report.aggregate["restrictions"]
    # k = n keeps everything: degree 3 survives whenever terms exist
    cfg = ExperimentConfig(
        kind=KIND_RESTRICTIONS,
        n=10,
        trials=3,
        master_seed=2,
        s=2.5,
        k=10,
        restrictions_per_trial=2,
    )
    report = run_experiment(cfg)
    for row in report.outcomes:
        if row["sparsity"] > 0:
            assert row["degenerate"] == 0


def test_constancy_rate_monotone_under_nesting():
    """Dropping one basis vector from each sampled flat cannot lower the rate."""
    rng = np.random.default_rng(77)
    from anflat.anf_core import evaluate_on_points, flat_points_matrix
    from anflat.f2_linalg import Flat
    from anflat.generators import sample_degree3_with_rng

    n, k = 10, 3
    constant_small = 0
    constant_big = 0
    pairs = 200
    f = sample_degree3_with_rng(n, 0.05, rng)
    for _ in range(pairs):
        big = random_flat(n, k + 1, rng)
        small = Flat(n, big.offset, big.basis[:k])
        vb = evaluate_on_points(f, flat_points_matrix(big))
        vs = evaluate_on_points(f, flat_points_matrix(small))
        big_const = int(vb.min()) == int(vb.max())
        small_const = int(vs.min()) == int(vs.max())
        constant_big += big_const
        constant_small += small_const
        if big_const:
            assert small_const  # nesting makes this an implication
    assert constant_small >= constant_big


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(
        kind=KIND_SAMPLER, n=10, trials=2, master_seed=0, family="rand3-half"
    )
    report = run_experiment(cfg)
    assert report.config["kind"] == KIND_SAMPLER
    csv_text = report.to_csv_text()
    assert csv_text.splitlines()[0] == "trial,seed,sparsity"
    assert len(csv_text.splitlines()) == 3
    parsed = json.loads(report.to_json_text())
    assert parsed["asymptotic_claim"] is True


def _slow_constant(f, flat) -> bool:
    """Whether f is constant on the flat, walking its points in point_at order."""
    values = (slow_evaluate(f, flat.point_at(i).bits) for i in range(1 << flat.dimension))
    first = next(values)
    return all(v == first for v in values)


@pytest.mark.parametrize(
    "n, k, flats, f, table",
    [
        pytest.param(12, 3, 50, None, True, id="n12-k3-table"),
        pytest.param(16, 0, 50, None, True, id="n16-k0-table"),
        pytest.param(21, 18, 8, None, True, id="n21-k18-table-by-flat-points"),
        pytest.param(22, 3, 50, None, False, id="n22-k3-kernel"),
        pytest.param(26, 2, 50, None, False, id="n26-k2-over-table-cap"),
        pytest.param(12, 3, 50, Anf(12, frozenset({0, 1, 1 << 5})), True, id="affine-table"),
        pytest.param(22, 3, 50, Anf(22, frozenset({0, 1, 1 << 5})), False, id="affine-kernel"),
        pytest.param(12, 3, 20, Anf.zero(12), True, id="zero-table"),
        pytest.param(22, 3, 20, Anf.zero(22), False, id="zero-kernel"),
    ],
)
def test_constant_flats_matches_slow_replay(monkeypatch, n, k, flats, f, table):
    """Both constancy paths count what a slow replay of the same flats counts,
    use the table exactly where the rule says, and draw nothing else."""
    cfg = ExperimentConfig(kind=KIND_FLATS, n=n, trials=1, master_seed=0, s=2.5, k=k,
                           flats_per_trial=flats)
    if f is None:
        f = sample_degree3_with_rng(n, cfg.inclusion_probability(), np.random.default_rng(n))
    kernel_calls = []
    kernel = experiments.evaluate_on_points

    def counted_kernel(*args):
        kernel_calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(experiments, "evaluate_on_points", counted_kernel)
    rng = np.random.default_rng(1000 + n)
    row = experiments._constant_flats(cfg, f, rng)
    assert len(kernel_calls) == (0 if table else flats)

    replay_rng = np.random.default_rng(1000 + n)
    expected = sum(_slow_constant(f, random_flat(n, k, replay_rng)) for _ in range(flats))
    assert row == {"flats": flats, "constant_flats": expected}
    assert rng.bit_generator.state == replay_rng.bit_generator.state
