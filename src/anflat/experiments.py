"""Seed-deterministic Monte Carlo harness for the random degree-3 families.

The dimension guarantees these experiments probe are asymptotic statements
about large n; desk-scale runs cannot reproduce them and every report says
so via an "asymptotic_claim": true field. What the harness does provide is
reproducible empirical evidence: trial i always uses the seed
stable_seed(master_seed, i), so reports are byte-identical across runs,
platforms, and any trial execution order. Wall-clock time is kept out of
the canonical JSON document for the same reason.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .anf_core import (
    DEFAULT_TABLE_CAP,
    MAX_VARS,
    Anf,
    anf_to_truth_table,
    evaluate_on_points,
    flat_points_matrix,
)
from .errors import InconsistentError, TooLargeError
from .f2_linalg import BitVec, Flat, insert_independent, random_bits, span_ints
from .generators import DEFAULT_SCALE, RAND3_HALF, inclusion_probability, sample_degree3_with_rng

Z95 = 1.959963984540054  # two-sided 95% normal quantile

KIND_FLATS = "disperser-flats"
KIND_RESTRICTIONS = "disperser-restrictions"
KIND_SAMPLER = "sampler-stats"
DEFAULT_PER_TRIAL = 50

RESTRICTION_DIMENSION_CONSTANT = 3.0
MAX_FLAT_DIMENSION = 20


def stable_seed(master_seed: int, index: int) -> int:
    """Order-independent per-trial seed derived via SHA-256."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise InconsistentError("interval needs at least one observation")
    z = Z95
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def random_flat(n: int, k: int, rng: np.random.Generator) -> Flat:
    """Uniform flat of dimension exactly k.

    Draws uniform vectors until k independent ones arrive, then a uniform
    offset. The draw distribution is invariant under GL(n, 2), which maps
    executions spanning one subspace bijectively onto executions spanning
    any other, so every k-subspace is equally likely; the uniform offset
    then makes every coset equally likely.
    """
    if not 0 <= k <= n:
        raise InconsistentError(f"dimension {k} outside [0, {n}]")
    basis: list[int] = []
    reduced: dict[int, int] = {}
    while len(basis) < k:
        v = random_bits(n, rng)
        if insert_independent(reduced, v):
            basis.append(v)
    offset = random_bits(n, rng)
    return Flat(n, BitVec(n, offset), tuple(BitVec(n, b) for b in basis))


@dataclass
class ExperimentConfig:
    """One experiment: what to run, at which sizes, under which master seed."""

    kind: str
    n: int
    trials: int
    master_seed: int
    s: Optional[float] = None
    k: Optional[int] = None
    flats_per_trial: Optional[int] = None
    restrictions_per_trial: Optional[int] = None
    family: Optional[str] = None
    inclusion_scale: Optional[float] = None

    def __post_init__(self):
        """Check the fields the run reads and fill in their defaults; the others
        are left as given, unchecked and out of the report."""
        if self.kind not in KINDS:
            raise InconsistentError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise InconsistentError("trials must be at least 1")
        if self.n < 3:
            raise InconsistentError("need at least 3 variables")
        if self.n > MAX_VARS:
            raise TooLargeError(f"n = {self.n} exceeds the cap of {MAX_VARS} variables")
        families = KINDS[self.kind].families
        if self.family is None or len(families) == 1:  # a kind with one family reads none
            self.family = next(iter(families))
        elif self.family not in families:
            raise InconsistentError(f"unknown sampler family {self.family!r}")
        if self.family == "rand3-half":
            self.s, self.inclusion_scale = RAND3_HALF
        reads = families[self.family]
        for field, default in reads.items():
            if default is None and getattr(self, field) is None:  # s, or k (family is set)
                raise InconsistentError(f"{self.kind} needs {field}: pass --{field}")
        if "s" in reads and not 2.0 < self.s <= 3.0:
            raise InconsistentError(f"s = {self.s} outside (2, 3]")
        defaulted = [field for field in reads if getattr(self, field) is None]
        for field in defaulted:
            default = reads[field]
            setattr(self, field, default(self) if callable(default) else default)
        self.inclusion_probability()  # refuses p outside (0, 1/2] or too many terms
        for field in ("flats_per_trial", "restrictions_per_trial"):
            if field in reads and getattr(self, field) < 1:
                raise InconsistentError(f"{field.replace('_', ' ')} must be at least 1")
        if "k" in reads and not 0 <= self.k <= self.n:
            if "k" in defaulted:
                raise InconsistentError(f"default k = {self.k} outside [0, {self.n}]; pass --k")
            raise InconsistentError(f"dimension k = {self.k} outside [0, {self.n}]")
        if self.kind == KIND_FLATS and self.k > MAX_FLAT_DIMENSION:
            raise TooLargeError(
                f"k = {self.k} exceeds the exhaustive flat cap {MAX_FLAT_DIMENSION}"
            )

    def inclusion_probability(self) -> float:
        return inclusion_probability(self.n, self.s, self.inclusion_scale)

    def echo(self) -> dict:
        out = {
            "kind": self.kind,
            "n": self.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
        }
        out.update((field, getattr(self, field)) for field in fields_read(self.kind, self.family))
        return out


@dataclass
class ExperimentReport:
    """Config echo, per-trial rows, and aggregate statistics."""

    config: dict
    outcomes: list[dict]
    aggregate: dict
    asymptotic_claim: bool = True
    wall_clock: float = 0.0

    def to_json_dict(self) -> dict:
        # wall_clock stays out so identical configs serialize identically
        return {
            "config": self.config,
            "outcomes": self.outcomes,
            "aggregate": self.aggregate,
            "asymptotic_claim": self.asymptotic_claim,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        if not self.outcomes:
            return ""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.outcomes[0].keys()))
        writer.writeheader()
        for row in self.outcomes:
            writer.writerow(row)
        return buf.getvalue()


def _trial_rng(cfg: ExperimentConfig, index: int) -> tuple[int, np.random.Generator]:
    seed = stable_seed(cfg.master_seed, index)
    return seed, np.random.Generator(np.random.PCG64(seed))


def _constant_flats(cfg: ExperimentConfig, f: Anf, rng: np.random.Generator) -> dict:
    """Draw flats_per_trial uniform k-flats; count those f is constant on.

    Constancy is checked exhaustively over each flat's points. When f's
    truth table is no bigger than one flat at the flat cap, or than the
    points the trial evaluates anyway, it is built once and each flat's
    points are looked up in it; otherwise each flat is evaluated term by
    term.
    """
    n, k = cfg.n, cfg.k
    use_table = n <= MAX_FLAT_DIMENSION or (
        n <= DEFAULT_TABLE_CAP and 1 << n <= cfg.flats_per_trial << k
    )
    table = anf_to_truth_table(f) if use_table else None
    constant = 0
    for _ in range(cfg.flats_per_trial):
        flat = random_flat(n, k, rng)
        if table is None:
            values = evaluate_on_points(f, flat_points_matrix(flat))
        else:
            values = table[span_ints(flat.offset.bits, [b.bits for b in flat.basis])]
        if int(values.min()) == int(values.max()):
            constant += 1
    return {"flats": cfg.flats_per_trial, "constant_flats": constant}


def _degenerate_restrictions(cfg: ExperimentConfig, f: Anf, rng: np.random.Generator) -> dict:
    """Zero all but k uniform variables, restrictions_per_trial times; count
    the restrictions that kill degree 3."""
    degenerate = 0
    for _ in range(cfg.restrictions_per_trial):
        keep_mask = sum(1 << int(j) for j in rng.permutation(cfg.n)[: cfg.k])
        residual_degree = max(
            (m.bit_count() for m in f.terms if m & ~keep_mask == 0), default=0
        )
        if residual_degree < 3:
            degenerate += 1
    return {"restrictions": cfg.restrictions_per_trial, "degenerate": degenerate}


def _restriction_dimension(cfg: ExperimentConfig) -> int:
    return round(
        RESTRICTION_DIMENSION_CONSTANT * math.sqrt(math.log(cfg.n)) * cfg.n ** ((3.0 - cfg.s) / 2.0)
    )


class Kind(NamedTuple):
    """What an experiment kind reads and counts.

    families: each family the kind samples (the default first) -> the config
    fields a run on it reads -> each field's default: a value, a function of
    the config, or None if it has none. A rate kind also has its per-trial
    counter, the (tries, hits) keys of its rows and the (tries, hits, rate)
    names of its aggregate.
    """

    families: dict
    count: Optional[Callable] = None
    row_keys: tuple = ()
    names: tuple = ()


KINDS = {
    KIND_SAMPLER: Kind({
        "rand3-sparse": {"family": None, "s": None, "inclusion_scale": DEFAULT_SCALE},
        "rand3-half": {"family": None},  # s and the scale are RAND3_HALF
    }),
    KIND_FLATS: Kind(
        {"rand3-sparse": {"s": None, "k": None, "inclusion_scale": DEFAULT_SCALE,
                          "flats_per_trial": DEFAULT_PER_TRIAL}},
        _constant_flats, ("flats", "constant_flats"), ("pairs", "constant_pairs", "constancy_rate"),
    ),
    KIND_RESTRICTIONS: Kind(
        {"rand3-sparse": {"s": None, "k": _restriction_dimension, "inclusion_scale": 1.0,
                          "restrictions_per_trial": DEFAULT_PER_TRIAL}},
        _degenerate_restrictions,
        ("restrictions", "degenerate"),
        ("restrictions", "degenerate", "degenerate_rate"),
    ),
}


def fields_read(kind: str, family: Optional[str]) -> dict:
    """The fields a run of kind on family reads, with their defaults; a family
    the kind does not sample, or None, stands for the default one."""
    families = KINDS[kind].families
    return families.get(family, next(iter(families.values())))


def _wilson_rate(outcomes: list[dict], row_keys: tuple, names: tuple) -> dict:
    """Hit rate pooled over all trials, with its 95% Wilson interval."""
    tries, hits = (sum(row[key] for row in outcomes) for key in row_keys)
    low, high = wilson_interval(hits, tries)
    tries_name, hits_name, rate_name = names
    rate = hits / tries
    return {tries_name: tries, hits_name: hits, rate_name: rate, "wilson_ci_95": [low, high]}


def _sparsity_moments(cfg: ExperimentConfig, p: float, outcomes: list[dict]) -> dict:
    """Empirical sparsity moments against the binomial predictions."""
    total_terms = math.comb(cfg.n, 3)
    sparsities = [row["sparsity"] for row in outcomes]
    mean = sum(sparsities) / len(sparsities)
    if len(sparsities) > 1:
        variance = sum((x - mean) ** 2 for x in sparsities) / (len(sparsities) - 1)
    else:
        variance = 0.0
    expected_mean = p * total_terms
    expected_var = p * (1.0 - p) * total_terms
    sigma_of_mean = math.sqrt(expected_var / cfg.trials)
    deviation = abs(mean - expected_mean) / sigma_of_mean if sigma_of_mean else 0.0
    return {
        "inclusion_probability": p,
        "possible_terms": total_terms,
        "mean_sparsity": mean,
        "sample_variance": variance,
        "expected_mean": expected_mean,
        "expected_variance": expected_var,
        "sigma_of_mean": sigma_of_mean,
        "deviation_sigmas": deviation,
        "within_4_sigma": deviation <= 4.0,
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every trial of cfg in index order, then aggregate the rows.

    Trial i seeds its generator with stable_seed(master_seed, i), samples
    f from it and records {trial, seed, sparsity}. The disperser kinds then
    draw their flats or restrictions from the same generator and add their
    counts to the row; their aggregate is a rate with a Wilson interval.
    sampler-stats aggregates the sparsity moments.
    """
    start = time.perf_counter()
    p = cfg.inclusion_probability()
    kind = KINDS[cfg.kind]
    outcomes = []
    for i in range(cfg.trials):
        seed, rng = _trial_rng(cfg, i)
        f = sample_degree3_with_rng(cfg.n, p, rng)
        row = {"trial": i, "seed": seed, "sparsity": f.sparsity()}
        if kind.count is not None:
            row.update(kind.count(cfg, f, rng))
        outcomes.append(row)
    if kind.count is None:
        aggregate = _sparsity_moments(cfg, p, outcomes)
    else:
        aggregate = _wilson_rate(outcomes, kind.row_keys, kind.names)
    return ExperimentReport(
        config=cfg.echo(),
        outcomes=outcomes,
        aggregate=aggregate,
        wall_clock=time.perf_counter() - start,
    )
