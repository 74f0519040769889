"""Greedy 0-restriction engine and an exact branch-and-bound hitting-set oracle.

The greedy loop repeatedly zeroes the variable occurring in the most
crucial terms (terms of degree >= 3), breaking ties toward the lowest
index. Zeroing a variable deletes its terms and lowers the counts of the
variables that shared a deleted crucial term with it; each pick scans the
nonzero counts once. A full run costs time proportional to the total size
of the deleted terms plus one scan of the nonzero counts per step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .anf_core import Anf
from .errors import InconsistentError, NoCrucialTermsError, TooLargeError, VerificationError
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


@dataclass(frozen=True)
class UntilNoCrucial:
    """Run until no term of degree >= 3 remains."""

    def done(self, state: RestrictionState) -> bool:
        return state.crucial_count == 0


@dataclass(frozen=True)
class UntilCrucialAtMostThirdOfAlive:
    """Run until the crucial count is at most a third of the alive count."""

    def done(self, state: RestrictionState) -> bool:
        return 3 * state.crucial_count <= len(state.alive)


def occurrence_counts(f: Anf) -> dict[int, int]:
    """For each variable x1..xn, the number of crucial terms containing it."""
    counts = dict.fromkeys(range(1, f.num_vars + 1), 0)
    for m in f.terms:
        if m.bit_count() >= 3:
            for j in bit_indices(m):
                counts[j + 1] += 1
    return counts


class RestrictionState:
    """Working state of a greedy run; owned and mutated by a single caller."""

    def __init__(self, f: Anf):
        self.num_vars = f.num_vars
        self.trace = RestrictionTrace()
        self.crucial_count = f.crucial_count()
        self._terms: set[int] = set(f.terms)
        # alive variable -> the current terms containing it
        self._var_terms: dict[int, set[int]] = {v: set() for v in range(1, f.num_vars + 1)}
        for m in self._terms:
            for j in bit_indices(m):
                self._var_terms[j + 1].add(m)
        # alive variable -> its crucial occurrence count; nonzero counts only, in
        # ascending variable order, since counts only fall and zeros are deleted
        self._occ: dict[int, int] = {v: c for v, c in occurrence_counts(f).items() if c}

    @property
    def alive(self) -> frozenset[int]:
        return frozenset(self._var_terms)

    @property
    def current(self) -> Anf:
        return Anf(self.num_vars, frozenset(self._terms))


def greedy_step(state: RestrictionState) -> RestrictionState:
    """Zero the variable hit by the most crucial terms (lowest index wins)."""
    m, counts = state.crucial_count, state._occ
    if m == 0:
        raise NoCrucialTermsError("no crucial terms remain")
    v = max(counts, key=counts.get)  # the first maximum: the lowest index wins a tie
    occ = counts[v]
    if occ < -(-3 * m // len(state._var_terms)):
        raise VerificationError(f"greedy pick x{v} occurs {occ} times, below the pigeonhole floor")
    state.trace.steps.append(RestrictionStep(var=v, crucial_before=m, occ=occ))
    del counts[v]
    for t in state._var_terms.pop(v):
        state._terms.remove(t)
        crucial = t.bit_count() >= 3
        state.crucial_count -= crucial
        for j in bit_indices(t ^ (1 << (v - 1))):
            u = j + 1
            state._var_terms[u].discard(t)
            if crucial:
                counts[u] -= 1
                if not counts[u]:
                    del counts[u]
    return state


def greedy_restrict(
    f: Anf, rule: UntilNoCrucial | UntilCrucialAtMostThirdOfAlive
) -> RestrictionState:
    """Iterate greedy steps until the rule holds; always terminates."""
    state = RestrictionState(f)
    while not rule.done(state):
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
    exceeds the budget; raises TooLargeError past node_limit search nodes,
    and InconsistentError on a negative budget or a node limit below 1.
    """
    if budget is not None and budget < 0:
        raise InconsistentError(f"hitting-set budget must be nonnegative, not {budget}")
    if node_limit < 1:
        raise InconsistentError(f"hitting-set node limit must be at least 1, not {node_limit}")
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
