"""Constructive canonical form for quadratic GF(2) functions.

Every function of degree at most 2 equals, after an invertible affine
change of variables y = Ax + b, either

    y1*y2 + y3*y4 + ... + y_{t-1}*y_t + c        (type I), or
    y1*y2 + y3*y4 + ... + y_{t-1}*y_t + y_{t+1}  (type II),

where t counts the paired variables (t is even; note that some authors
instead use t for the number of pairs). The construction:

1. Collect the degree-2 coefficients into the symmetric zero-diagonal
   matrix B of the associated bilinear form f(x+y)+f(x)+f(y)+f(0).
2. Symplectic elimination: take the first basis vector u. If B u = 0 it
   joins the radical basis; otherwise pair it with the first later vector
   w with u^T B w = 1 and project the rest of the basis onto the
   B-orthogonal complement of the pair. Each basis vector carries its
   image B w, so every form value is one parity and the projection
   updates vector and image together (docs/design-notes.md).
3. In the new coordinates z = P^-1 x (the columns of P are the pairs in
   order, radical last) the function is sum z_{2i-1} z_{2i} plus an
   affine part. The rows of P^-1 come out of step 2: B v and B u for a
   pair (u, v), and the unit row at the top bit of a radical vector. Each
   pair absorbs its linear coefficients via
   z_u z_v + a z_u + b z_v = (z_u + b)(z_v + a) + a*b.
4. The leftover affine part lives on the radical. If it is nonconstant it
   becomes y_{t+1} (type II, constant absorbed by translating y_{t+1});
   otherwise the accumulated constant is c (type I).
5. The form is checked against f coefficient by coefficient: quadratic
   rows, linear part and constant of the canonical shape through
   y = Ax + b must equal those of f.
"""
from __future__ import annotations

from dataclasses import dataclass

from .anf_core import Anf
from .errors import DegreeTooHighError, InconsistentError, VerificationError
from .f2_linalg import (
    AffineMap,
    BitMatrix,
    BitVec,
    Flat,
    bit_indices,
    parity,
)


@dataclass(frozen=True)
class DicksonForm:
    """Result of the decomposition: t, tail kind, constant, and y = Ax + b."""

    t: int
    form_type: str  # "I" or "II"
    c: int
    map: AffineMap

    def __post_init__(self):
        n = self.map.dimension
        if self.t % 2 or not 0 <= self.t <= n:
            raise InconsistentError(f"t = {self.t} must be even and within [0, {n}]")
        if self.form_type not in ("I", "II"):
            raise InconsistentError(f"unknown form type {self.form_type!r}")
        if self.form_type == "II" and self.t + 1 > n:
            raise InconsistentError("type II needs a free coordinate after the pairs")
        if self.c not in (0, 1):
            raise InconsistentError("constant must be a bit")

    @property
    def num_vars(self) -> int:
        return self.map.dimension

    def to_json_dict(self) -> dict:
        out = {"t": self.t, "type": self.form_type, "c": self.c}
        out.update(self.map.to_json_dict())
        return out


def _bilinear_rows(f: Anf) -> list[int]:
    """Row i holds the quadratic coefficients c_{i,j} (zero diagonal)."""
    n = f.num_vars
    rows = [0] * n
    for m in f.terms:
        if m.bit_count() == 2:
            i, j = bit_indices(m)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def _columns(rows: tuple[int, ...], n: int) -> list[int]:
    """Column j of the n-column matrix with the given rows, as a bitmask."""
    columns = [0] * n
    for i, row in enumerate(rows):
        for j in bit_indices(row):
            columns[j] |= 1 << i
    return columns


def dickson_decompose(f: Anf) -> DicksonForm:
    """Canonical form of a degree <= 2 function; raises DegreeTooHighError.

    The result is checked before returning: the canonical shape through
    the change of variables must have the quadratic, linear and constant
    coefficients of f (docs/design-notes.md).
    """
    if f.degree() > 2:
        raise DegreeTooHighError(f"degree {f.degree()} > 2")
    n = f.num_vars
    rows = _bilinear_rows(f)
    lin = sum(m for m in f.terms if m.bit_count() == 1)
    c0 = 1 if 0 in f.terms else 0

    # each basis entry is (w, B w), so u^T B w = parity(B u & w)
    basis = [(1 << i, rows[i]) for i in range(n)]
    pairs: list[tuple[int, int]] = []
    radical: list[int] = []
    # rows of P^-1, read off as the elimination runs (docs/design-notes.md)
    pair_rows: list[int] = []
    radical_rows: list[int] = []
    while basis:
        u, bu = basis.pop(0)
        if not bu:
            radical.append(u)
            radical_rows.append(1 << (u.bit_length() - 1))
            continue
        partner = next((j for j, (w, _) in enumerate(basis) if parity(bu & w)), None)
        if partner is None:
            raise VerificationError("B u is nonzero but u has no partner; decomposition bug")
        v, bv = basis.pop(partner)
        for idx, (w, bw) in enumerate(basis):
            coeff_u, coeff_v = parity(bv & w), parity(bu & w)
            if coeff_u:
                w, bw = w ^ u, bw ^ bu
            if coeff_v:
                w, bw = w ^ v, bw ^ bv
            basis[idx] = (w, bw)
        pairs.append((u, v))
        pair_rows += [bv, bu]

    t = 2 * len(pairs)
    columns = [vec for pair in pairs for vec in pair] + radical

    # linear coefficient of z_m in f(P z) is f(x) + c0 at x = column m, which
    # is parity(lin & x) plus parity(upper_i & x) for every i in x
    upper = [row >> (i + 1) << (i + 1) for i, row in enumerate(rows)]
    lam = []
    for col in columns:
        acc = lin
        for i in bit_indices(col):
            acc ^= upper[i]
        lam.append(parity(acc & col))

    offset_bits = 0
    const = c0
    for k in range(0, t, 2):
        a, b = lam[k], lam[k + 1]  # coefficients of z_{k+1}, z_{k+2}
        offset_bits |= b << k | a << (k + 1)
        const ^= a & b

    radical_lams = lam[t:]
    if any(radical_lams):
        form_type = "II"
        # y_{t+1} is the sum of the radical coordinates with lambda = 1; the
        # other radical coordinates follow in order (distinct unit rows)
        tail_row = sum(row for row, bit in zip(radical_rows, radical_lams) if bit)
        star = radical_lams.index(1)
        radical_rows = [tail_row] + radical_rows[:star] + radical_rows[star + 1:]
        # the residual constant is absorbed by translating y_{t+1}
        offset_bits |= const << t
    else:
        form_type = "I"

    a_matrix = BitMatrix(n, n, tuple(pair_rows + radical_rows))
    form = DicksonForm(
        t=t,
        form_type=form_type,
        c=const if form_type == "I" else 0,
        map=AffineMap(a_matrix, BitVec(n, offset_bits)),
    )
    _check_coefficients(form, rows, lin, c0)
    return form


def _check_coefficients(form: DicksonForm, rows: list[int], lin: int, c0: int) -> None:
    """Raise VerificationError unless Q(Ax + b) has quadratic rows `rows`,
    linear mask `lin` and constant c0, where Q is the canonical shape.

    Two quadratics are equal exactly when these coefficients agree.
    """
    a_rows = form.map.matrix.row_bits
    got = [0] * form.num_vars
    for k in range(0, form.t, 2):
        # (a_k x)(a_{k+1} x) adds a_k[r] a_{k+1}[s] + a_k[s] a_{k+1}[r] to
        # entry (r, s); the two diagonal contributions cancel
        for r in bit_indices(a_rows[k]):
            got[r] ^= a_rows[k + 1]
        for r in bit_indices(a_rows[k + 1]):
            got[r] ^= a_rows[k]
    pair_mask = sum(1 << i for i in range(0, form.t, 2))
    tail = 1 << form.t if form.form_type == "II" else 0
    const = form.c if form.form_type == "I" else 0

    def q(y: int) -> int:
        return parity((y & (y >> 1) & pair_mask) ^ (y & tail)) ^ const

    b = form.map.offset.bits
    q_b = q(b)
    columns = _columns(a_rows, form.num_vars)
    got_lin = sum(1 << r for r, col in enumerate(columns) if q(col ^ b) != q_b)
    if got != rows or got_lin != lin or q_b != c0:
        raise VerificationError("canonical form does not reproduce f; decomposition bug")


def flat_from_dickson(d: DicksonForm) -> tuple[Flat, int]:
    """A flat of dimension >= floor(n/2) on which the decomposed f is constant.

    In y-coordinates fix y1 = y3 = ... = y_{t-1} = 0, plus y_{t+1} = 0 for
    type II. Since x = A^-1 y + A^-1 b, the flat is the offset A^-1 b plus
    column j of A^-1 for every free y_j, in ascending j.
    """
    n = d.num_vars
    fixed = set(range(0, d.t, 2))
    if d.form_type == "II":
        fixed.add(d.t)
    inv = d.map.inverse_matrix
    columns = _columns(inv.row_bits, n)
    basis = tuple(BitVec(n, columns[j]) for j in range(n) if j not in fixed)
    constant = d.c if d.form_type == "I" else 0
    return Flat(n, inv.mul_vec(d.map.offset), basis), constant
