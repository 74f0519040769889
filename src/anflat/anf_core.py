"""Multilinear GF(2) polynomials: parsing, evaluation, transforms, reindexing.

An Anf stores its monomials as bitmasks (bit j corresponds to x_{j+1}), so
a term set is a frozenset of ints and substitution is mask arithmetic. The
empty mask is the constant term 1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AnfSyntaxError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InconsistentError,
    TooLargeError,
)
from .f2_linalg import (AffineMap, BitVec, Flat, bit_indices, json_field, load_json,
                        refuse_unknown_fields)

DEFAULT_TABLE_CAP = 24
MAX_VARS = 4096  # most variables an input may declare or index
MAX_INDEX_DIGITS = len(str(MAX_VARS))
MAX_TERMS = 2_000_000  # most terms a generated function may have, or expect to have

# one term of the ANF grammar, and one factor's index inside it
_TERM = re.compile(r"\s*(?:1|x\d+(?:\s*\*\s*x\d+)*)\s*")
_INDEX = re.compile(r"x(\d+)")


@dataclass(frozen=True)
class Anf:
    """A multilinear polynomial over GF(2) on num_vars variables."""

    num_vars: int
    terms: frozenset[int]

    def __post_init__(self):
        if self.num_vars < 0:
            raise DimensionMismatchError("negative variable count")
        for m in self.terms:
            if m < 0 or m >> self.num_vars:
                raise IndexOutOfRangeError(
                    f"monomial 0x{m:x} uses variables beyond x{self.num_vars}"
                )

    @classmethod
    def zero(cls, num_vars: int) -> "Anf":
        return cls(num_vars, frozenset())

    def sparsity(self) -> int:
        """Number of monomials."""
        return len(self.terms)

    def degree(self) -> int:
        """Largest monomial size; 0 for the zero polynomial."""
        return max((m.bit_count() for m in self.terms), default=0)

    def crucial_count(self) -> int:
        """Number of monomials of degree >= 3."""
        return sum(1 for m in self.terms if m.bit_count() >= 3)

    def __str__(self) -> str:
        return format_anf(self)


def _term_sort_key(mask: int) -> tuple:
    return (mask.bit_count(), tuple(bit_indices(mask)))


def format_anf(f: Anf) -> str:
    """Canonical text: terms sorted by (degree, index sequence)."""
    if not f.terms:
        return "0"
    parts = []
    for m in sorted(f.terms, key=_term_sort_key):
        if m == 0:
            parts.append("1")
        else:
            parts.append("*".join(f"x{j + 1}" for j in bit_indices(m)))
    return " + ".join(parts)


def _index(digits: str, at: int) -> int:
    """The i of the x<i> at offset `at`; a digit run longer than the cap's is refused unread."""
    if len(digits) > MAX_INDEX_DIGITS:
        raise TooLargeError(
            f"index of {len(digits)} digits exceeds the cap of {MAX_VARS} variables "
            f"(at position {at})"
        )
    return int(digits)


def infer_num_vars(text: str) -> int:
    """The largest index i of an x<i> in the text; 1 when there is none."""
    return max((_index(m[1], m.start()) for m in _INDEX.finditer(text)), default=1)


def parse_anf(text: str, num_vars: int) -> Anf:
    """Parse `0`, or `term (+ term)*` with each term matching _TERM: `1` or `x<i>(*x<j>)*`.

    Whitespace is free around terms and factors (not inside `x<i>`).
    Repeated identical terms cancel in pairs and repeated variables
    inside a term collapse (x*x = x).
    """
    if num_vars < 0:
        raise DimensionMismatchError("negative variable count")
    if text.strip() == "0":
        return Anf.zero(num_vars)
    masks: set[int] = set()
    pos = 0
    for piece in text.split("+"):
        if not _TERM.fullmatch(piece):
            raise AnfSyntaxError("expected a term '1' or 'x<i>(*x<j>)*'", pos)
        mask = 0
        for match in _INDEX.finditer(piece):
            at = pos + match.start()
            i = _index(match[1], at)
            if not 1 <= i <= num_vars:
                raise IndexOutOfRangeError(f"x{i} outside [1, {num_vars}] (at position {at})")
            mask |= 1 << (i - 1)
        masks ^= {mask}
        pos += len(piece) + 1
    return Anf(num_vars, frozenset(masks))


def xor_transform(values: np.ndarray, n: int) -> np.ndarray:
    """The subset-sum XOR transform along the last axis (length 2^n); self-inverse."""
    out = values.copy()
    for i in range(n):
        step = 1 << i
        view = out.reshape(-1, 2 * step)
        view[:, step:] ^= view[:, :step]
    return out


def _table_vars(size: int) -> int:
    """n for a table of size = 2^n entries, refused past the table cap."""
    if size == 0 or size & (size - 1):
        raise DimensionMismatchError("truth table length must be a power of two")
    n = size.bit_length() - 1
    if n > DEFAULT_TABLE_CAP:
        raise TooLargeError(f"n = {n} exceeds table cap {DEFAULT_TABLE_CAP}")
    return n


def parse_truth_table(text: str) -> np.ndarray:
    """The uint8 table a string of 2^n '0'/'1' characters holds; any other length, an n
    past the table cap or any other character is refused."""
    text = text.strip()
    _table_vars(len(text))
    values = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
    if (values > 1).any():  # every other character, non-ASCII bytes too, lands above 1
        raise AnfSyntaxError("truth table must be '0'/'1' characters", 0)
    return values


def truth_table_to_anf(values: np.ndarray) -> Anf:
    """Unique ANF agreeing with the 2^n table values everywhere; O(n 2^n)."""
    n = _table_vars(len(values))
    coeffs = xor_transform(np.asarray(values, dtype=np.uint8), n)
    return Anf(n, frozenset(int(i) for i in np.nonzero(coeffs)[0]))


def anf_to_truth_table(f: Anf) -> np.ndarray:
    """All 2^n values of f as uint8; entry i is f(x) with bit j of i = x_{j+1}."""
    n = _table_vars(1 << f.num_vars)
    coeffs = np.zeros(1 << n, dtype=np.uint8)
    for m in f.terms:
        coeffs[m] = 1
    return xor_transform(coeffs, n)


def evaluate_packed_columns(f: Anf, packed: np.ndarray) -> np.ndarray:
    """Evaluate f on points bit-packed along the point axis.

    packed has shape (nbytes, num_vars); bit b of packed[r, j] (most
    significant first, as np.packbits produces) holds coordinate j of
    point 8r + 7 - ... in the usual big bit order. Returns the packed
    values, one bit per point, same layout.
    """
    if packed.ndim != 2 or packed.shape[1] != f.num_vars:
        raise DimensionMismatchError("packed points matrix has wrong shape")
    acc = np.zeros(packed.shape[0], dtype=np.uint8)
    for m in f.terms:
        if m == 0:
            acc ^= np.uint8(0xFF)
            continue
        idx = bit_indices(m)
        v = packed[:, idx[0]]
        for j in idx[1:]:
            v = v & packed[:, j]
        acc = acc ^ v
    return acc


def evaluate_on_points(f: Anf, points: np.ndarray) -> np.ndarray:
    """Evaluate f at every row of an (N, num_vars) 0/1 uint8 matrix.

    The points are bit-packed along the point axis (zero-padded to a
    multiple of 8), so each monomial costs a few vector ops on N/8 bytes.
    """
    points = np.asarray(points, dtype=np.uint8)
    if points.ndim != 2 or points.shape[1] != f.num_vars:
        raise DimensionMismatchError("points matrix has wrong shape")
    packed = np.packbits(points, axis=0)
    return np.unpackbits(evaluate_packed_columns(f, packed), count=points.shape[0])


def bitvec_rows(vectors: Sequence[BitVec], length: int) -> np.ndarray:
    """Vectors of the given length as a (len(vectors), length) uint8 coordinate matrix."""
    nbytes = (length + 7) // 8
    raw = b"".join(v.bits.to_bytes(nbytes, "little") for v in vectors)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(vectors), nbytes)
    return np.unpackbits(packed, axis=1, count=length, bitorder="little")


def flat_points_matrix(flat: Flat) -> np.ndarray:
    """All 2^k flat points as a (2^k, n) matrix; row i is flat.point_at(i)."""
    k = flat.dimension
    rows = bitvec_rows([flat.offset, *flat.basis], flat.ambient)
    out = np.empty((1 << k, flat.ambient), dtype=np.uint8)
    out[0] = rows[0]
    size = 1
    for row in rows[1:]:
        out[size : 2 * size] = out[:size] ^ row
        size *= 2
    return out


def reindex(f: Anf, alive: list[int]) -> Anf:
    """Rewrite f on the alive variables only; alive[j] becomes x_{j+1}.

    Every monomial of f must be supported on alive variables.
    """
    position = {var: j for j, var in enumerate(alive)}
    masks = []
    for m in f.terms:
        new = 0
        for j in bit_indices(m):
            var = j + 1
            if var not in position:
                raise IndexOutOfRangeError(f"monomial uses dead variable x{var}")
            new |= 1 << position[var]
        masks.append(new)
    return Anf(len(alive), frozenset(masks))


@dataclass(frozen=True)
class FunctionInput:
    """A function f given as g plus an optional affine bijection with g = f o A.

    All reports concern f. With the bijection present, f(x) = g(A^-1(x))
    and a flat on which g is constant maps to the flat A(E) for f.
    """

    g: Anf
    bijection: Optional[AffineMap] = None

    def __post_init__(self):
        if self.bijection is not None and self.bijection.dimension != self.g.num_vars:
            raise DimensionMismatchError("bijection dimension does not match g")

    @property
    def num_vars(self) -> int:
        return self.g.num_vars

    def to_json_dict(self) -> dict:
        return {
            "n": self.g.num_vars,
            "anf": format_anf(self.g),
            "bijection": None if self.bijection is None else self.bijection.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FunctionInput":
        n = json_field(obj, "n", int, "container")
        refuse_unknown_fields(obj, "n anf bijection comment", "container")
        if not isinstance(obj.get("comment", ""), str):
            raise InconsistentError("container field 'comment' must be a JSON string")
        if n < 0:
            raise InconsistentError("container field 'n' must be a nonnegative integer")
        if n > MAX_VARS:
            raise TooLargeError(f"container field 'n' = {n} exceeds the cap of {MAX_VARS}")
        g = parse_anf(json_field(obj, "anf", str, "container"), n)
        bij = obj.get("bijection")
        bijection = None if bij is None else AffineMap.from_json_dict(bij)
        return cls(g, bijection)

    @classmethod
    def from_json_text(cls, text: str) -> "FunctionInput":
        return cls.from_json_dict(load_json(text, "container"))
