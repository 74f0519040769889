"""Greedy 0-restriction engine and an exact branch-and-bound hitting-set oracle.

The greedy loop repeatedly zeroes the variable occurring in the most
crucial terms (terms of degree >= 3), breaking ties toward the lowest
index. Occurrence counts are kept in count buckets and updated only for
variables that shared a term with the zeroed one, so a full run costs time
proportional to the total size of the deleted terms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .anf_core import Anf
from .errors import NoCrucialTermsError, TooLargeError, VerificationError
from .f2_linalg import bit_indices

DEFAULT_NODE_LIMIT = 1_000_000


@dataclass(frozen=True)
class RestrictionStep:
    var: int
    crucial_before: int
    occ: int


@dataclass
class RestrictionTrace:
    steps: list[RestrictionStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def to_json_list(self) -> list[dict]:
        return [
            {"var": s.var, "crucial_before": s.crucial_before, "occ": s.occ}
            for s in self.steps
        ]


class StopRule:
    """Marker base for greedy stop rules."""


@dataclass(frozen=True)
class UntilNoCrucial(StopRule):
    """Run until no term of degree >= 3 remains."""


@dataclass(frozen=True)
class UntilCrucialAtMostThirdOfAlive(StopRule):
    """Run until the crucial count is at most a third of the alive count."""


def occurrence_counts(f: Anf, alive: set[int]) -> dict[int, int]:
    """For each alive variable, the number of crucial terms containing it."""
    counts = {v: 0 for v in alive}
    for m in f.terms:
        if m.bit_count() < 3:
            continue
        for j in bit_indices(m):
            var = j + 1
            if var in counts:
                counts[var] += 1
    return counts


class RestrictionState:
    """Working state of a greedy run; owned and mutated by a single caller."""

    def __init__(self, f: Anf):
        self.num_vars = f.num_vars
        self.trace = RestrictionTrace()
        self._terms: set[int] = set(f.terms)
        self._alive: set[int] = set(range(1, f.num_vars + 1))
        self._crucial_count = f.crucial_count()
        # var -> all current terms containing it
        self._var_terms: dict[int, set[int]] = {v: set() for v in self._alive}
        for m in self._terms:
            for j in bit_indices(m):
                self._var_terms[j + 1].add(m)
        # occurrence counts over crucial terms, kept in max buckets
        self._occ: dict[int, int] = occurrence_counts(f, self._alive)
        self._buckets: dict[int, set[int]] = {}
        for v, c in self._occ.items():
            self._buckets.setdefault(c, set()).add(v)
        self._max_occ = max(self._buckets) if self._buckets else 0
        self._cached_current: Optional[Anf] = Anf(f.num_vars, frozenset(self._terms))

    @property
    def alive(self) -> frozenset[int]:
        return frozenset(self._alive)

    @property
    def crucial_count(self) -> int:
        return self._crucial_count

    @property
    def current(self) -> Anf:
        if self._cached_current is None:
            self._cached_current = Anf(self.num_vars, frozenset(self._terms))
        return self._cached_current

    def _move_bucket(self, v: int, old: int, new: int) -> None:
        self._buckets[old].discard(v)
        if not self._buckets[old]:
            del self._buckets[old]
        self._buckets.setdefault(new, set()).add(v)

    def _pick_variable(self) -> tuple[int, int]:
        while self._max_occ > 0 and self._max_occ not in self._buckets:
            self._max_occ -= 1
        occ = self._max_occ
        return min(self._buckets[occ]), occ

    def kill_variable(self, v: int) -> None:
        """Zero variable v, removing its terms and updating counts."""
        for m in list(self._var_terms[v]):
            crucial = m.bit_count() >= 3
            if crucial:
                self._crucial_count -= 1
            self._terms.discard(m)
            for j in bit_indices(m):
                u = j + 1
                if u == v:
                    continue
                self._var_terms[u].discard(m)
                if crucial:
                    old = self._occ[u]
                    self._occ[u] = old - 1
                    self._move_bucket(u, old, old - 1)
        occ_v = self._occ.pop(v)
        self._buckets[occ_v].discard(v)
        if not self._buckets[occ_v]:
            del self._buckets[occ_v]
        del self._var_terms[v]
        self._alive.discard(v)
        self._cached_current = None


def greedy_step(state: RestrictionState) -> RestrictionState:
    """Zero the variable hit by the most crucial terms (lowest index wins)."""
    m = state.crucial_count
    if m == 0:
        raise NoCrucialTermsError("no crucial terms remain")
    v, occ = state._pick_variable()
    n_alive = len(state._alive)
    if occ < -(-3 * m // n_alive):
        raise VerificationError(f"greedy pick x{v} occurs {occ} times, below the pigeonhole floor")
    state.trace.steps.append(RestrictionStep(var=v, crucial_before=m, occ=occ))
    state.kill_variable(v)
    return state


def _stop(state: RestrictionState, rule: StopRule) -> bool:
    if state.crucial_count == 0:
        return True
    if isinstance(rule, UntilNoCrucial):
        return False
    if isinstance(rule, UntilCrucialAtMostThirdOfAlive):
        return 3 * state.crucial_count <= len(state._alive)
    raise TypeError(f"unknown stop rule: {rule!r}")


def greedy_restrict(f: Anf, rule: StopRule) -> RestrictionState:
    """Iterate greedy steps until the rule holds; always terminates."""
    state = RestrictionState(f)
    while not _stop(state, rule):
        greedy_step(state)
    return state


def exhaustive_hitting_set(
    f: Anf,
    budget: Optional[int] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Optional[set[int]]:
    """Minimum-cardinality variable set whose zeroing kills all crucial terms.

    Branch and bound over the crucial terms, branching on the variables of
    the highest-degree uncovered term. Returns None when the optimum
    exceeds the budget; raises TooLargeError past node_limit search nodes.
    """
    crucial = sorted((m for m in f.terms if m.bit_count() >= 3), key=lambda m: (-m.bit_count(), m))
    if not crucial:
        return set()
    cap = budget if budget is not None else len(crucial)
    best_size = cap + 1
    best: Optional[list[int]] = None
    nodes = 0

    def lower_bound(uncovered: list[int]) -> int:
        used = 0
        count = 0
        for t in uncovered:
            if not t & used:
                used |= t
                count += 1
        return count

    def search(uncovered: list[int], chosen: list[int]) -> None:
        nonlocal best_size, best, nodes
        nodes += 1
        if nodes > node_limit:
            raise TooLargeError(f"hitting-set search exceeded {node_limit} nodes")
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        if len(chosen) + lower_bound(uncovered) >= best_size:
            return
        branch = max(uncovered, key=lambda t: (t.bit_count(), -t))
        for j in bit_indices(branch):
            bit = 1 << j
            rest = [t for t in uncovered if not t & bit]
            chosen.append(j + 1)
            search(rest, chosen)
            chosen.pop()

    search(crucial, [])
    if best is None:
        return None
    return set(best)
