"""Bit-packed GF(2) vectors, matrices, affine maps, and flats.

Coordinates live in Python ints: bit j holds coordinate j (0-based
internally, 1-based in all user-facing text, so bit 0 is "x1" and is the
first character of the string form). Matrices are row-major tuples of such
ints, which makes row elimination a single XOR.

All values are immutable after construction; mutation never escapes a
function, so everything here is safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InconsistentError, SingularMatrixError


def parity(x: int) -> int:
    return x.bit_count() & 1


def bit_indices(mask: int) -> list[int]:
    """0-based indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def load_json(text: str, what: str):
    """Decoded JSON text; InconsistentError instead of a decode error."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also ints past 4300 digits
        raise InconsistentError(f"{what} is not valid JSON: {exc}") from None


_JSON_TYPE = {int: "integer", str: "string", list: "array"}


def json_field(obj, key: str, kind: type, what: str):
    """obj[key] from a decoded JSON object; InconsistentError if absent or mistyped."""
    if not isinstance(obj, dict):
        raise InconsistentError(f"{what} must be a JSON object")
    if key not in obj:
        raise InconsistentError(f"{what} has no {key!r} field")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InconsistentError(f"{what} field {key!r} must be a JSON {_JSON_TYPE[kind]}")
    return value


def refuse_unknown_fields(obj: dict, known: str, what: str) -> None:
    """InconsistentError if obj has a field outside the space-separated `known`."""
    unknown = sorted(set(obj) - set(known.split()))
    if unknown:
        raise InconsistentError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}")


@dataclass(frozen=True)
class BitVec:
    """A vector in F2^length packed into one int."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise DimensionMismatchError("negative vector length")
        if self.bits < 0 or self.bits >> self.length:
            raise DimensionMismatchError(
                f"bits 0x{self.bits:x} do not fit in {self.length} coordinates"
            )

    @classmethod
    def from_string(cls, text: str) -> "BitVec":
        if not isinstance(text, str):
            raise InconsistentError(f"vector must be a string of '0'/'1' characters: {text!r}")
        text = text.strip()
        if not set(text) <= {"0", "1"}:
            raise InconsistentError(f"vector text must be '0'/'1' characters: {text!r}")
        # the first character is bit 0, so reversed text is the binary numeral
        return cls(len(text), int(text[::-1], 2) if text else 0)

    def to_string(self) -> str:
        if self.length == 0:
            return ""
        return format(self.bits, f"0{self.length}b")[::-1]

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise DimensionMismatchError("XOR of vectors of different lengths")
        return BitVec(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2); each row is one packed int."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.row_bits) != self.rows:
            raise DimensionMismatchError("matrix shape does not match row data")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise DimensionMismatchError("row does not fit in column count")

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BitMatrix":
        vecs = [BitVec.from_string(line) for line in lines]
        if not vecs:
            return cls(0, 0, ())
        cols = vecs[0].length
        if any(v.length != cols for v in vecs):
            raise InconsistentError("matrix rows have different lengths")
        return cls(len(vecs), cols, tuple(v.bits for v in vecs))

    def to_strings(self) -> list[str]:
        return [BitVec(self.cols, r).to_string() for r in self.row_bits]

    def mul_vec(self, v: BitVec) -> BitVec:
        if v.length != self.cols:
            raise DimensionMismatchError("matrix/vector dimension mismatch")
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= parity(r & v.bits) << i
        return BitVec(self.rows, bits)


def insert_independent(reduced: dict[int, int], v: int) -> bool:
    """XOR-basis insertion: whether v is independent of the vectors in reduced.

    reduced maps the top bit of each kept vector, already reduced by the
    earlier ones, to that vector. v is reduced by them and, if something
    remains, kept under its top bit.
    """
    while v:
        top = v.bit_length() - 1
        if top not in reduced:
            reduced[top] = v
            return True
        v ^= reduced[top]
    return False


def rank(m: BitMatrix) -> int:
    reduced: dict[int, int] = {}
    return sum(insert_independent(reduced, r) for r in m.row_bits)


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix; raises SingularMatrixError otherwise.

    Gauss-Jordan on [M | I]: once the left half is reduced to I, the right
    half is M^-1.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be inverted")
    n = m.rows
    rows = [m.row_bits[i] | (1 << (n + i)) for i in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if (rows[i] >> c) & 1), None)
        if pivot is None:
            raise SingularMatrixError(f"matrix has rank {rank(m)} < {n}")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for i in range(n):
            if i != c and (rows[i] >> c) & 1:
                rows[i] ^= rows[c]
    return BitMatrix(n, n, tuple(r >> n for r in rows))


@dataclass(frozen=True)
class AffineMap:
    """An invertible affine bijection x -> matrix*x + offset on F2^n.

    Invertibility is checked eagerly at construction; the inverse matrix is
    cached so applying the inverse map costs one multiply.
    """

    matrix: BitMatrix
    offset: BitVec
    _inv_matrix: BitMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise DimensionMismatchError("affine map matrix must be square")
        if self.offset.length != self.matrix.rows:
            raise DimensionMismatchError("offset length must equal matrix dimension")
        object.__setattr__(self, "_inv_matrix", invert(self.matrix))

    @property
    def dimension(self) -> int:
        return self.matrix.rows

    @property
    def inverse_matrix(self) -> BitMatrix:
        """The cached M^-1; reading it costs nothing."""
        return self._inv_matrix

    def apply(self, x: BitVec) -> BitVec:
        return self.matrix.mul_vec(x) ^ self.offset

    def inverse(self) -> "AffineMap":
        # y = Mx + b  <=>  x = M^-1 y + M^-1 b. Both matrices are known and M
        # inverts M^-1, so the inverse map skips __post_init__'s elimination.
        inv = object.__new__(AffineMap)
        object.__setattr__(inv, "matrix", self._inv_matrix)
        object.__setattr__(inv, "offset", self._inv_matrix.mul_vec(self.offset))
        object.__setattr__(inv, "_inv_matrix", self.matrix)
        return inv

    def to_json_dict(self) -> dict:
        return {"matrix": self.matrix.to_strings(), "offset": self.offset.to_string()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AffineMap":
        matrix = json_field(obj, "matrix", list, "bijection")
        offset = json_field(obj, "offset", str, "bijection")
        refuse_unknown_fields(obj, "matrix offset", "bijection")
        return cls(BitMatrix.from_strings(matrix), BitVec.from_string(offset))


@dataclass(frozen=True)
class Flat:
    """An affine subspace of F2^ambient: offset plus an independent basis."""

    ambient: int
    offset: BitVec
    basis: tuple[BitVec, ...]

    def __post_init__(self):
        if self.offset.length != self.ambient:
            raise DimensionMismatchError("flat offset has wrong length")
        for b in self.basis:
            if b.length != self.ambient:
                raise DimensionMismatchError("flat basis vector has wrong length")
        reduced: dict[int, int] = {}
        if not all(insert_independent(reduced, b.bits) for b in self.basis):
            raise InconsistentError("flat basis vectors are not independent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def point_at(self, index: int) -> BitVec:
        """Point for a basis-combination index (bit j selects basis[j])."""
        bits = self.offset.bits
        for j in bit_indices(index):
            bits ^= self.basis[j].bits
        return BitVec(self.ambient, bits)

    def map_through(self, a: AffineMap) -> "Flat":
        """Image of the flat under an affine bijection."""
        if a.dimension != self.ambient:
            raise DimensionMismatchError("map dimension does not match flat ambient")
        return Flat(
            self.ambient,
            a.apply(self.offset),
            tuple(a.matrix.mul_vec(b) for b in self.basis),
        )

    @classmethod
    def from_text(cls, text: str) -> "Flat":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InconsistentError("empty flat text")
        offset = BitVec.from_string(lines[0])
        basis = tuple(BitVec.from_string(ln) for ln in lines[1:])
        return cls(offset.length, offset, basis)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "offset": self.offset.to_string(),
            "basis": [b.to_string() for b in self.basis],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Flat":
        offset = BitVec.from_string(json_field(obj, "offset", str, "flat"))
        basis = tuple(BitVec.from_string(s) for s in json_field(obj, "basis", list, "flat"))
        return cls(offset.length, offset, basis)


def span_ints(offset: int, vectors: Sequence[int]) -> np.ndarray:
    """offset plus every combination of vectors, as int64, in Flat.point_at order:
    entry i adds vectors[j] for each bit j of i. The ints must fit in 63 bits."""
    points = np.empty(1 << len(vectors), dtype=np.int64)
    points[0] = offset
    size = 1
    for v in vectors:
        np.bitwise_xor(points[:size], v, out=points[size : 2 * size])
        size *= 2
    return points


def random_bits(n: int, rng: np.random.Generator) -> int:
    """n uniform bits as an int, drawn from rng's byte stream."""
    if n == 0:
        return 0
    raw = int.from_bytes(rng.bytes((n + 7) // 8), "little")
    return raw & ((1 << n) - 1)


def random_invertible_matrix(n: int, rng: np.random.Generator) -> BitMatrix:
    """Uniform invertible matrix by rejection over uniform matrices.

    The acceptance probability prod_{i>=1}(1 - 2^-i) exceeds 0.288 for
    every n, so the expected number of draws is below 3.5.
    """
    while True:
        m = BitMatrix(n, n, tuple(random_bits(n, rng) for _ in range(n)))
        if rank(m) == n:
            return m


def random_affine_map(n: int, rng: np.random.Generator) -> AffineMap:
    return AffineMap(random_invertible_matrix(n, rng), BitVec(n, random_bits(n, rng)))
