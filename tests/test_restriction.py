from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anflat.anf_core import Anf, parse_anf
from anflat.errors import InconsistentError, NoCrucialTermsError, TooLargeError, VerificationError
from anflat.generators import (
    Degree3SamplerConfig,
    complete_degree3,
    prop6_base,
    prop6_family,
    random_degree3_sparse,
)
from anflat.restriction import (
    RestrictionState,
    UntilCrucialAtMostThirdOfAlive,
    UntilNoCrucial,
    exhaustive_hitting_set,
    greedy_restrict,
    greedy_step,
    occurrence_counts,
)
from conftest import slow_greedy


def brute_force_min_hitting_set(f: Anf) -> int:
    """Oracle: smallest variable subset meeting every crucial term."""
    crucial = [m for m in f.terms if m.bit_count() >= 3]
    if not crucial:
        return 0
    used = 0
    for m in f.terms:
        used |= m
    variables = [j + 1 for j in range(f.num_vars) if used >> j & 1]
    for size in range(len(variables) + 1):
        for subset in combinations(variables, size):
            mask = 0
            for v in subset:
                mask |= 1 << (v - 1)
            if all(t & mask for t in crucial):
                return size
    return len(variables)


def test_occurrence_counts_examples():
    assert occurrence_counts(prop6_base()) == {v: 2 for v in range(1, 7)}
    assert occurrence_counts(complete_degree3(4)) == {v: 3 for v in range(1, 5)}
    quad = parse_anf("x1*x2 + x3", 3)
    assert occurrence_counts(quad) == {1: 0, 2: 0, 3: 0}


def test_greedy_step_trace_on_base_cubic():
    state = RestrictionState(prop6_base())
    greedy_step(state)
    assert state.trace.steps[-1].var == 1  # all tied at 2; lowest index wins
    assert state.current == parse_anf("x2*x4*x6 + x3*x5*x6", 6)
    greedy_step(state)
    assert state.trace.steps[-1].var == 6  # occurrence 2 beats the others at 1
    assert state.crucial_count == 0
    with pytest.raises(NoCrucialTermsError):
        greedy_step(state)


def test_greedy_step_requires_crucial_terms():
    with pytest.raises(NoCrucialTermsError):
        greedy_step(RestrictionState(parse_anf("x1*x2", 2)))


def test_greedy_step_pigeonhole_check_raises(monkeypatch):
    # prop6 has 4 crucial terms on 6 variables, so the floor is 2
    state = RestrictionState(prop6_base())
    monkeypatch.setattr(state, "_occ", {1: 1})
    with pytest.raises(VerificationError, match="pigeonhole"):
        greedy_step(state)
    assert len(state.trace) == 0


@st.composite
def small_anfs(draw):
    """An ANF on up to 14 variables with up to 30 terms of degree 0 to 5."""
    n = draw(st.integers(1, 14))
    term = st.sets(st.integers(0, n - 1), max_size=5).map(lambda js: sum(1 << j for j in js))
    return Anf(n, frozenset(draw(st.sets(term, max_size=30))))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_anfs(), st.sampled_from([UntilNoCrucial(), UntilCrucialAtMostThirdOfAlive()]))
def test_greedy_restrict_matches_recount_from_scratch(f, rule):
    state = greedy_restrict(f, rule)
    trace, alive, residual = slow_greedy(f, rule)
    assert [(s.var, s.crucial_before, s.occ) for s in state.trace.steps] == trace
    assert state.alive == alive
    assert state.current == residual
    assert state.crucial_count == residual.crucial_count()


def test_greedy_restrict_base_cubic():
    state = greedy_restrict(prop6_base(), UntilNoCrucial())
    assert len(state.trace) == 2
    assert len(state.alive) == 4
    assert state.current == Anf.zero(6)


def test_greedy_restrict_family_third_rule():
    state = greedy_restrict(prop6_family(1), UntilCrucialAtMostThirdOfAlive())
    assert len(state.trace) == 6
    assert len(state.alive) == 24
    assert state.crucial_count == 8


def test_greedy_restrict_quadratic_noop():
    for rule in (UntilNoCrucial(), UntilCrucialAtMostThirdOfAlive()):
        state = greedy_restrict(parse_anf("x1*x2 + x1", 2), rule)
        assert len(state.trace) == 0


def test_trace_invariants_on_random_inputs(rng):
    for trial in range(40):
        n = int(rng.integers(6, 13))
        cfg = Degree3SamplerConfig(n=n, s=3.0, seed=int(rng.integers(0, 2**32)))
        f = random_degree3_sparse(cfg)
        start_crucial = f.crucial_count()
        state = greedy_restrict(f, UntilNoCrucial())
        alive = n
        for k, step in enumerate(state.trace.steps):
            # pigeonhole floor at every step
            assert step.occ >= -(-3 * step.crucial_before // alive)
            alive -= 1
            # cubic decay prefix bound, in exact integer arithmetic
            after = (
                state.trace.steps[k + 1].crucial_before
                if k + 1 < len(state.trace.steps)
                else 0
            )
            assert after * n**3 <= start_crucial * (n - k - 1) ** 3
        assert state.current.crucial_count() == 0


def test_stop_rule_step_bound_in_regime(rng):
    # crucial density c in (1/3, 2/3]: the third-of-alive rule stops
    # within ceil((3c-1)/5 * n) steps
    for trial in range(25):
        n = int(rng.integers(9, 16))
        low = n // 3 + 1
        high = (2 * n) // 3
        if low > high:
            continue
        target = int(rng.integers(low, high + 1))
        all_masks = [
            (1 << i) | (1 << j) | (1 << k) for i, j, k in combinations(range(n), 3)
        ]
        chosen = rng.choice(len(all_masks), size=target, replace=False)
        f = Anf(n, frozenset(all_masks[i] for i in chosen))
        assert f.crucial_count() == target
        c = target / n
        state = greedy_restrict(f, UntilCrucialAtMostThirdOfAlive())
        assert 3 * state.crucial_count <= len(state.alive)
        assert len(state.trace) <= -(-((3 * c - 1) * n) // 5)


def test_determinism_identical_traces():
    f = random_degree3_sparse(Degree3SamplerConfig(n=10, s=3.0, seed=99))
    t1 = greedy_restrict(f, UntilNoCrucial()).trace.to_json_list()
    t2 = greedy_restrict(f, UntilNoCrucial()).trace.to_json_list()
    assert t1 == t2


def test_exhaustive_hitting_set_examples():
    assert exhaustive_hitting_set(prop6_base()) == {1, 6} or len(
        exhaustive_hitting_set(prop6_base())
    ) == 2
    assert exhaustive_hitting_set(parse_anf("x1*x2", 2)) == set()
    result = exhaustive_hitting_set(complete_degree3(4))
    assert len(result) == 2


def test_hitting_set_solution_is_feasible_and_optimal(rng):
    for trial in range(20):
        n = int(rng.integers(5, 9))
        cfg = Degree3SamplerConfig(n=n, s=3.0, seed=int(rng.integers(0, 2**32)))
        f = random_degree3_sparse(cfg)
        result = exhaustive_hitting_set(f)
        crucial = [m for m in f.terms if m.bit_count() >= 3]
        mask = 0
        for v in result:
            mask |= 1 << (v - 1)
        assert all(t & mask for t in crucial)
        assert len(result) == brute_force_min_hitting_set(f)


def test_hitting_set_budget():
    f = complete_degree3(5)  # optimum 3: zeroing any 2 leaves a term
    assert exhaustive_hitting_set(f, budget=2) is None
    assert len(exhaustive_hitting_set(f, budget=3)) == 3
    assert exhaustive_hitting_set(f, budget=0) is None
    with pytest.raises(InconsistentError, match="budget"):
        exhaustive_hitting_set(f, budget=-1)


def test_hitting_set_node_limit():
    f = complete_degree3(9)
    with pytest.raises(TooLargeError):
        exhaustive_hitting_set(f, node_limit=5)
    with pytest.raises(InconsistentError, match="node limit"):
        exhaustive_hitting_set(f, node_limit=0)


def test_greedy_dominates_never_beats_exact(rng):
    for trial in range(15):
        n = int(rng.integers(5, 10))
        cfg = Degree3SamplerConfig(n=n, s=3.0, seed=int(rng.integers(0, 2**32)))
        f = random_degree3_sparse(cfg)
        exact = exhaustive_hitting_set(f)
        greedy_len = len(greedy_restrict(f, UntilNoCrucial()).trace)
        assert len(exact) <= greedy_len


def test_state_alive_accounting():
    f = prop6_family(1)
    state = greedy_restrict(f, UntilNoCrucial())
    assert len(state.alive) + len(state.trace) == f.num_vars
    dead = {s.var for s in state.trace.steps}
    for m in state.current.terms:
        for v_bit in range(f.num_vars):
            if (m >> v_bit) & 1:
                assert (v_bit + 1) not in dead
