"""End-to-end constant-flat search plus exhaustive small-n oracles.

The pipeline runs the greedy 0-restriction until no term of degree >= 3
remains, decomposes the quadratic (possibly zero) residual on the alive
variables into its canonical form, and fixes one coordinate per product
pair. The resulting flat is built on the alive variables and scattered
back to all n, with every restricted variable held at 0. Flats are mapped
between coordinate systems instead of composing polynomials symbolically,
which avoids term blowup.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Optional

import numpy as np

from .anf_core import (
    Anf,
    FunctionInput,
    anf_to_truth_table,
    bitvec_rows,
    evaluate_packed_columns,
    reindex,
    xor_transform,
)
from .errors import (
    DimensionMismatchError,
    InconsistentError,
    TooLargeError,
    VerificationError,
)
from .f2_linalg import BitVec, Flat, bit_indices, insert_independent, span_ints
from .quadratic import DicksonForm, dickson_decompose, flat_from_dickson
from .restriction import RestrictionTrace, UntilNoCrucial, greedy_restrict

DEFAULT_SAMPLE_CAP = 1 << 20
VERIFY_SEED = 271828
DEFAULT_NORMALITY_CAP = 8
DEFAULT_THICKNESS_CAP = 4


VERDICT_CONSTANT = "constant"
VERDICT_CONSTANT_LOW_DEGREE = "constant_low_degree"
VERDICT_NOT_CONSTANT = "not_constant"
VERDICT_SAMPLED_OK = "sampled_ok"


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking a flat: exact constancy, a witness, or sampled.

    samples is the number of points the low-degree or the sampled check
    evaluated; seed is set by the sampled check only.
    """

    kind: str
    value: Optional[int] = None
    witness: Optional[tuple[BitVec, ...]] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.kind, "value": self.value}
        if self.witness is not None:
            out["witness"] = [w.to_string() for w in self.witness]
        if self.seed is not None:
            out["samples"] = self.samples
            out["seed"] = self.seed
        elif self.samples is not None:
            out["points"] = self.samples
        return out


# bit j of t for the points t = 0..7 of one packed byte, point 0 in the top bit
_COUNTING_LOW_BYTES = (0x55, 0x33, 0x0F)


def _counting_columns(k: int) -> np.ndarray:
    """Packed flat coordinates of all 2^k combinations; point i is combination i."""
    nbytes = max(1, (1 << k) >> 3)
    byte = np.arange(nbytes)
    zcols = np.empty((nbytes, k), dtype=np.uint8)
    for j in range(k):
        zcols[:, j] = _COUNTING_LOW_BYTES[j] if j < 3 else ((byte >> (j - 3)) & 1) * 0xFF
    return zcols


def _ball_columns(r: int, d: int) -> np.ndarray:
    """Packed coordinates of the Hamming ball of radius d in F2^r.

    Points go by weight, then in itertools.combinations order, so point 0
    is the zero combination.
    """
    total = sum(math.comb(r, w) for w in range(d + 1))
    zcols = np.zeros(((total + 7) // 8, r), dtype=np.uint8)
    start = 1
    for w in range(1, d + 1):
        size = math.comb(r, w)
        coords = np.fromiter(
            chain.from_iterable(combinations(range(r), w)), dtype=np.intp, count=size * w
        )
        points = np.repeat(np.arange(start, start + size), w)
        masks = (0x80 >> (points & 7)).astype(np.uint8)
        np.bitwise_or.at(zcols, (points >> 3, coords), masks)
        start += size
    return zcols


def verify_flat(
    func: FunctionInput,
    flat: Flat,
    claimed: Optional[int] = None,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> Verdict:
    """Check that f is constant on the flat, evaluating at most sample_cap points.

    Points are evaluated as g at the preimage coordinates, so no symbolic
    composition happens regardless of the bijection. g depends only on
    its support S (the union of its monomials), so every check works on
    the flat projected onto S. In order:

    - exhaustive when the flat has at most sample_cap points;
    - otherwise exact on the low-degree information set: the basis
      vectors J whose projections are independent parametrise the
      projected flat, f on the flat has degree d <= min(deg g, |J|) in
      those coordinates, and such a function is constant iff it is
      constant on the Hamming ball of radius d (docs/design-notes.md);
    - when that ball has more than sample_cap points, sample_cap uniform
      points drawn from a seeded generator, compared with claimed.

    The reference value is the claimed one in the sampled check when
    given, else that of the first point. A witness is the first point equal to the reference and
    the first that differs, or the differing point alone.
    """
    if flat.ambient != func.num_vars:
        raise DimensionMismatchError("flat ambient does not match the function")
    if sample_cap < 1:
        raise InconsistentError("sample cap must be positive")
    if sample_cap > DEFAULT_SAMPLE_CAP:
        raise InconsistentError(f"sample cap must be at most {DEFAULT_SAMPLE_CAP}")
    g = func.g
    k = flat.dimension
    # f = g o A^-1, so g is evaluated on the flat mapped through A^-1
    g_flat = flat if func.bijection is None else flat.map_through(func.bijection.inverse())
    support_mask = 0
    for m in g.terms:
        support_mask |= m
    support = bit_indices(support_mask)
    rows = bitvec_rows([g_flat.offset, *g_flat.basis], flat.ambient)[:, support]

    # column j of zcols packs, for every point, the bit of basis vector indices[j]
    reference = seed = samples = None
    if (1 << k) <= sample_cap:
        kind, indices, zcols, count = VERDICT_CONSTANT, range(k), _counting_columns(k), 1 << k
    else:
        reduced: dict[int, int] = {}
        indices = [j for j, b in enumerate(g_flat.basis)
                   if insert_independent(reduced, b.bits & support_mask)]
        r = len(indices)
        d = min(g.degree(), r)
        count = sum(math.comb(r, w) for w in range(d + 1))
        if count <= sample_cap:
            kind, zcols = VERDICT_CONSTANT_LOW_DEGREE, _ball_columns(r, d)
        else:
            kind, indices, count = VERDICT_SAMPLED_OK, range(k), sample_cap
            reference, seed = claimed, VERIFY_SEED
            rng = np.random.Generator(np.random.PCG64(VERIFY_SEED))
            zcols = rng.integers(0, 256, size=((sample_cap + 7) // 8, k), dtype=np.uint8)
        samples = count

    # the points on S: the projected offset plus the projected basis vectors
    # their combinations select, one XOR of packed columns per basis vector
    cols = np.zeros((zcols.shape[0], len(support)), dtype=np.uint8)
    for j, i in enumerate(indices):
        cols[:, np.flatnonzero(rows[1 + i])] ^= zcols[:, j : j + 1]
    cols[:, np.flatnonzero(rows[0])] ^= np.uint8(0xFF)
    h = reindex(g, [s + 1 for s in support])
    values = np.unpackbits(evaluate_packed_columns(h, cols), count=count)
    if reference is None:
        reference = int(values[0])
    differ = np.flatnonzero(values != reference)
    if differ.size == 0:
        return Verdict(kind=kind, value=reference, samples=samples, seed=seed)

    def point(p: int) -> BitVec:
        coords = np.flatnonzero((zcols[p >> 3] >> (7 - (p & 7))) & 1)
        return flat.point_at(sum(1 << indices[j] for j in coords))

    same = np.flatnonzero(values == reference)
    witness = tuple(point(int(p)) for p in (*same[:1], differ[0]))
    return Verdict(kind=VERDICT_NOT_CONSTANT, witness=witness, samples=samples, seed=seed)


# the verdicts find_constant_flat accepts, and the report mode each becomes
_REPORT_MODES = {
    VERDICT_CONSTANT: "exhaustive",
    VERDICT_CONSTANT_LOW_DEGREE: "low_degree",
    VERDICT_SAMPLED_OK: "sampled",
}


def guaranteed_dimension(n: int, epsilon: float) -> float:
    """Dimension floor (4/15) sqrt((2/3) n^eps) - 3, clamped at zero.

    The raw expression only turns positive once n^eps is large (about 190),
    so small instances report 0 rather than a negative promise.
    """
    return max(0.0, (4.0 / 15.0) * math.sqrt((2.0 / 3.0) * n**epsilon) - 3.0)


@dataclass
class FlatReport:
    """Everything find_constant_flat learned: the flat, its constant, and how."""

    flat: Flat
    constant: int
    trace: RestrictionTrace
    dickson: DicksonForm
    bound_epsilon: Optional[float] = None
    guaranteed_dim: Optional[float] = None
    verification: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = self.flat.to_json_dict()
        out["constant"] = self.constant
        out["trace"] = self.trace.to_json_list()
        out["dickson"] = self.dickson.to_json_dict()
        if self.bound_epsilon is not None:
            out["epsilon"] = self.bound_epsilon
            out["guaranteed_dim"] = self.guaranteed_dim
        if self.verification is not None:
            out["verification"] = self.verification
        return out


def find_constant_flat(
    func: FunctionInput,
    epsilon: Optional[float] = None,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
) -> FlatReport:
    """Find and verify a flat on which the represented function f is constant.

    Greedy 0-restrictions remove every term of degree >= 3 from g. The
    residual, rewritten on the alive variables, decomposes into its
    quadratic canonical form, whose flat (one coordinate fixed per pair)
    is built by flat_from_dickson. Alive coordinate j is scattered to
    x_{alive[j]}, so the restricted variables stay 0, and the result is
    mapped through the bijection when one is present so the report
    concerns f.
    """
    g = func.g
    n = g.num_vars
    state = greedy_restrict(g, UntilNoCrucial())
    alive = sorted(state.alive)
    form = dickson_decompose(reindex(state.current, alive))
    flat_alive, constant = flat_from_dickson(form)

    def scatter(v: BitVec) -> BitVec:
        bits = 0
        for j in bit_indices(v.bits):
            bits |= 1 << (alive[j] - 1)
        return BitVec(n, bits)

    flat_g = Flat(n, scatter(flat_alive.offset), tuple(scatter(b) for b in flat_alive.basis))
    flat = flat_g if func.bijection is None else flat_g.map_through(func.bijection)

    verdict = verify_flat(func, flat, constant, sample_cap=sample_cap)
    if verdict.kind not in _REPORT_MODES:
        raise VerificationError("constructed flat failed verification")
    if verdict.value != constant:
        raise VerificationError("flat is constant with an unexpected value")
    verification = verdict.to_json_dict()
    verification["mode"] = _REPORT_MODES[verification.pop("verdict")]

    report = FlatReport(
        flat=flat,
        constant=constant,
        trace=state.trace,
        dickson=form,
        verification=verification,
    )
    if epsilon is not None:
        report.bound_epsilon = epsilon
        report.guaranteed_dim = guaranteed_dimension(n, epsilon)
    return report


def brute_force_normality(f: Anf) -> tuple[int, Flat]:
    """Exact largest flat dimension on which f is constant, with a witness.

    Enumerates every flat of F2^n, highest dimension first, via reduced
    echelon bases and coset representatives supported off the pivots. A
    pivot set's bases are the product of its row spans: row r is its pivot
    plus any combination of the later non-pivot unit vectors. The witness
    is the first hit in that fixed order (pivot sets in lexicographic
    order, then bases with row 0 varying fastest, then offsets ascending),
    so the result is deterministic. Constant functions report n.
    """
    n = f.num_vars
    if n > DEFAULT_NORMALITY_CAP:
        raise TooLargeError(f"n = {n} exceeds normality cap {DEFAULT_NORMALITY_CAP}")
    table = anf_to_truth_table(f)
    full_basis = tuple(BitVec(n, 1 << i) for i in range(n))
    if int(table.min()) == int(table.max()):
        return n, Flat(n, BitVec(n), full_basis)
    for k in range(n - 1, 0, -1):
        for pivots in combinations(range(n), k):
            free = [c for c in range(n) if c not in pivots]
            # coset representatives: every combination of the non-pivot unit vectors
            reps = span_ints(0, [1 << c for c in free])
            choices = [span_ints(1 << p, [1 << c for c in free if c > p]).tolist()
                       for p in pivots]
            for chosen in product(*reversed(choices)):
                rows = chosen[::-1]
                values = table[reps[:, None] ^ span_ints(0, rows)[None, :]]
                hits = np.flatnonzero(values.min(axis=1) == values.max(axis=1))
                if hits.size:
                    basis = tuple(BitVec(n, r) for r in rows)
                    return k, Flat(n, BitVec(n, int(reps[hits[0]])), basis)
    return 0, Flat(n, BitVec(n), ())


def brute_force_thickness(f: Anf) -> int:
    """Exact minimum sparsity over every affine bijection of the inputs.

    Permuting the inputs keeps the sparsity, so only the invertible M with
    increasing columns are visited (840 at the cap, n = 4): each costs one
    gather of the truth table at x -> Mx and one batched XOR transform
    over all offsets. Stops early at sparsity 1, the least for any nonzero
    function.
    """
    n = f.num_vars
    if n > DEFAULT_THICKNESS_CAP:
        raise TooLargeError(f"n = {n} exceeds thickness cap {DEFAULT_THICKNESS_CAP}")
    table = anf_to_truth_table(f)
    if not table.any():
        return 0
    offsets = np.arange(1 << n, dtype=np.int64)[:, None]
    best = (1 << n) + 1
    for columns in combinations(range(1, 1 << n), n):
        reduced: dict[int, int] = {}
        if not all(insert_independent(reduced, c) for c in columns):
            continue
        # row b of values is the truth table of x -> f(Mx + b)
        values = table[span_ints(0, columns)[None, :] ^ offsets]
        coeffs = xor_transform(values, n)
        low = int(coeffs.sum(axis=1).min())
        if low < best:
            best = low
            if best <= 1:
                return best
    return best
