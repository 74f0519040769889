import math
import tracemalloc

import numpy as np
import pytest

from anflat.anf_core import DEFAULT_TABLE_CAP, Anf, anf_to_truth_table, parse_anf
from anflat.errors import InconsistentError, TooLargeError
from anflat.generators import (
    Degree3SamplerConfig,
    all_ones_indicator,
    complete_degree3,
    majority,
    prop6_base,
    prop6_family,
    random_degree3_sparse,
    sample_degree3_with_rng,
)
from anflat.restriction import UntilNoCrucial, exhaustive_hitting_set, greedy_restrict

from conftest import slow_sample_degree3


def test_majority_small_cases():
    assert majority(1) == parse_anf("x1", 1)
    assert majority(3) == parse_anf("x1*x2 + x1*x3 + x2*x3", 3)
    # threshold at n/2 for even n: majority(2) is OR
    assert majority(2) == parse_anf("x1 + x2 + x1*x2", 2)


def test_majority_agrees_with_threshold_definition():
    for n in range(1, 13):
        table = anf_to_truth_table(majority(n))
        for x in range(1 << n):
            expected = 1 if bin(x).count("1") >= n / 2 else 0
            assert int(table[x]) == expected


def test_majority_caps():
    with pytest.raises(TooLargeError):
        majority(DEFAULT_TABLE_CAP + 1)
    with pytest.raises(InconsistentError):
        majority(0)


def test_all_ones_indicator():
    assert all_ones_indicator(1) == parse_anf("1 + x1", 1)
    assert all_ones_indicator(2) == parse_anf("1 + x1 + x2 + x1*x2", 2)
    for n in range(1, 11):
        assert all_ones_indicator(n).sparsity() == 1 << n
    with pytest.raises(TooLargeError):
        all_ones_indicator(21)


def test_base_cubic_metrics():
    f = prop6_base()
    assert f.crucial_count() == 4
    assert f.degree() == 3
    from anflat.restriction import occurrence_counts

    assert occurrence_counts(f) == {v: 2 for v in range(1, 7)}


def test_family_shape():
    for m in (1, 2):
        g = prop6_family(m)
        assert g.num_vars == 30 * m
        assert g.sparsity() == 20 * m
    # blocks are variable-disjoint
    g = prop6_family(2)
    block_masks = [((1 << 6) - 1) << (6 * i) for i in range(10)]
    for term in g.terms:
        assert sum(1 for b in block_masks if term & b) == 1
    with pytest.raises(InconsistentError):
        prop6_family(0)


def test_family_greedy_two_steps_per_block():
    g = prop6_family(2)
    state = greedy_restrict(g, UntilNoCrucial())
    assert len(state.trace) == 2 * 10  # two steps in each of the 5m = 10 blocks
    assert exhaustive_hitting_set(prop6_base()) is not None
    assert len(exhaustive_hitting_set(prop6_base())) == 2


def test_complete_degree3():
    assert complete_degree3(3) == parse_anf("x1*x2*x3", 3)
    assert complete_degree3(4).sparsity() == 4
    f = complete_degree3(6)
    # any 0-restriction to k alive variables keeps all C(k, 3) terms
    g = Anf(6, frozenset(m for m in f.terms if not m & 0b1001))  # x1 = x4 = 0
    assert g.crucial_count() == math.comb(4, 3)
    with pytest.raises(InconsistentError):
        complete_degree3(2)


def test_sampler_stream_matches_single_call_oracle():
    """Blocked draws give the oracle's Anf and leave the generator in its end state."""
    for n in range(1, 41):
        for p in (1e-3, 0.05, 0.5, 1.0):
            for seed in range(3):
                fast_rng = np.random.Generator(np.random.PCG64(seed))
                slow_rng = np.random.Generator(np.random.PCG64(seed))
                fast = sample_degree3_with_rng(n, p, fast_rng)
                assert fast == slow_sample_degree3(n, p, slow_rng)
                assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_sampler_memory_is_below_the_triple_count():
    """n = 120 has 280,840 triples; listing them all peaks near 23 MB."""
    rng = np.random.Generator(np.random.PCG64(0))
    tracemalloc.start()
    try:
        f = sample_degree3_with_rng(120, 0.5 / 120**0.5, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.sparsity() > 0
    assert peak < 6 * 2**20, peak


def test_half_sampler_determinism_and_degree():
    assert Degree3SamplerConfig(n=12, s=3.0, seed=777).p == 0.5  # rand3-half
    a = random_degree3_sparse(Degree3SamplerConfig(n=12, s=3.0, seed=777))
    b = random_degree3_sparse(Degree3SamplerConfig(n=12, s=3.0, seed=777))
    c = random_degree3_sparse(Degree3SamplerConfig(n=12, s=3.0, seed=778))
    assert a == b
    assert a != c
    assert a.degree() <= 3
    assert all(m.bit_count() == 3 for m in a.terms)


def test_half_sampler_mean_near_half(rng):
    n = 10
    total = math.comb(n, 3)
    sparsities = [
        random_degree3_sparse(Degree3SamplerConfig(n=n, s=3.0, seed=seed)).sparsity()
        for seed in range(400)
    ]
    mean = sum(sparsities) / len(sparsities)
    sigma = math.sqrt(total * 0.25 / len(sparsities))
    assert abs(mean - total / 2) <= 4 * sigma


def test_sparse_sampler_config_validation():
    cfg = Degree3SamplerConfig(n=20, s=2.5, seed=1)
    assert cfg.p == pytest.approx(1.0 / (2.0 * 20**0.5))
    with pytest.raises(InconsistentError):
        Degree3SamplerConfig(n=20, s=3.5, seed=1)
    with pytest.raises(InconsistentError):
        Degree3SamplerConfig(n=20, s=1.9, seed=1)
    with pytest.raises(InconsistentError):
        # scale 1 at s = 3 would give inclusion probability 1
        Degree3SamplerConfig(n=20, s=3.0, seed=1, inclusion_scale=1.0)
    # the s = 2 boundary is valid: inclusion probability 1/(2n)
    assert Degree3SamplerConfig(n=20, s=2.0, seed=1).p == pytest.approx(1 / 40)


def test_sparse_sampler_determinism_and_mean():
    cfg = Degree3SamplerConfig(n=16, s=2.5, seed=5)
    assert random_degree3_sparse(cfg) == random_degree3_sparse(cfg)
    total = math.comb(16, 3)
    sparsities = [
        random_degree3_sparse(Degree3SamplerConfig(n=16, s=2.5, seed=seed)).sparsity()
        for seed in range(400)
    ]
    mean = sum(sparsities) / len(sparsities)
    p = 0.5 / 16**0.5
    sigma = math.sqrt(p * (1 - p) * total / len(sparsities))
    assert abs(mean - p * total) <= 4 * sigma


def test_sparse_sampler_scale_variants():
    half = Degree3SamplerConfig(n=16, s=2.5, seed=9)
    full = Degree3SamplerConfig(n=16, s=2.5, seed=9, inclusion_scale=1.0)
    assert full.p == pytest.approx(2 * half.p)
    assert full.p * math.comb(16, 3) == pytest.approx(2 * half.p * math.comb(16, 3))
