import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anflat.errors import (
    DimensionMismatchError,
    InconsistentError,
    SingularMatrixError,
)
from anflat.f2_linalg import (
    AffineMap,
    BitMatrix,
    BitVec,
    Flat,
    insert_independent,
    invert,
    random_affine_map,
    random_bits,
    random_invertible_matrix,
    rank,
    span_ints,
)
from conftest import flat_points, identity_map, identity_matrix, matrix_of_rows, slow_rank


def test_bitvec_string_roundtrip():
    v = BitVec.from_string("1010")
    assert v.length == 4 and v.bits == 0b0101  # leftmost char is x1 = bit 0
    assert v.to_string() == "1010"


def test_bitvec_string_roundtrip_random_and_short(rng):
    assert BitVec(0).to_string() == ""
    assert BitVec.from_string("").length == 0
    assert BitVec(1, 1).to_string() == "1" and BitVec(1).to_string() == "0"
    for length in (0, 1, 2, 7, 8, 9, 64, 1000):
        for _ in range(5):
            v = BitVec(length, random_bits(length, rng))
            text = v.to_string()
            assert text == "".join(str(v.bits >> j & 1) for j in range(length))
            assert BitVec.from_string(text) == v
            assert BitVec.from_string(f" {text}\n") == v
    for bad in ("012", "1 0", "1_0", "0b1", "x", "+1", "\u0661"):
        with pytest.raises(InconsistentError):
            BitVec.from_string(bad)
    with pytest.raises(InconsistentError):
        BitVec.from_string(101)


def test_bitvec_rejects_overflow():
    with pytest.raises(DimensionMismatchError):
        BitVec(2, 0b100)


def test_rank_identity_and_zero():
    assert rank(identity_matrix(3)) == 3
    assert rank(matrix_of_rows([0, 0, 0], 3)) == 0


def test_rank_dependent_rows():
    # third row is the sum of the first two
    m = BitMatrix.from_strings(["110", "011", "101"])
    assert rank(m) == 2


def assert_inverse(m: BitMatrix, inv: BitMatrix) -> None:
    """M M^-1 = I, checked column by column: M (M^-1 e_j) = e_j for every j."""
    n = m.rows
    for j in range(n):
        unit = BitVec(n, 1 << j)
        assert m.mul_vec(inv.mul_vec(unit)) == unit


def test_invert_identity_and_self_inverse():
    assert invert(identity_matrix(4)) == identity_matrix(4)
    m = BitMatrix.from_strings(["11", "01"])
    inv = invert(m)
    assert inv == m  # self-inverse over GF(2)
    assert_inverse(m, inv)


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert(BitMatrix.from_strings(["11", "11"]))


def test_invert_random_matrices_up_to_64(rng):
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 64]:
        m = random_invertible_matrix(n, rng)
        assert_inverse(m, invert(m))


def test_rank_plus_kernel_dimension(rng):
    for _ in range(50):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        m = matrix_of_rows(
            [int(rng.integers(0, 1 << cols)) for _ in range(rows)], cols
        )
        kernel_size = sum(m.mul_vec(BitVec(cols, x)).bits == 0 for x in range(1 << cols))
        assert 1 << (cols - rank(m)) == kernel_size


def test_apply_affine_examples():
    ident = identity_map(2)
    x = BitVec.from_string("01")
    assert ident.apply(x) == x
    shifted = AffineMap(identity_matrix(2), BitVec.from_string("10"))
    assert shifted.apply(x).to_string() == "11"


def test_compose_identity_and_inverse(rng):
    for n in (1, 3, 6):
        a = random_affine_map(n, rng)
        inv = a.inverse()
        assert inv.matrix == a.inverse_matrix
        assert_inverse(a.matrix, a.inverse_matrix)
        for _ in range(10):
            x = BitVec(n, random_bits(n, rng))
            assert inv.apply(a.apply(x)) == x
            assert a.apply(inv.apply(x)) == x


def test_inverse_reuses_cached_matrices(rng, monkeypatch):
    import anflat.f2_linalg as f2

    a = random_affine_map(8, rng)
    monkeypatch.setattr(f2, "invert", lambda m: pytest.fail("inverse() eliminated again"))
    inv = a.inverse()
    assert inv.inverse_matrix == a.matrix
    assert inv.inverse() == a


def test_insert_independent_keeps_a_basis(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        vectors = [int(rng.integers(0, 1 << n)) for _ in range(int(rng.integers(0, 12)))]
        reduced: dict[int, int] = {}
        kept = [v for v in vectors if insert_independent(reduced, v)]
        assert slow_rank(kept) == len(kept) == slow_rank(vectors)
        assert rank(matrix_of_rows(vectors, n)) == len(kept)


def test_affine_map_rejects_singular():
    with pytest.raises(SingularMatrixError):
        AffineMap(BitMatrix.from_strings(["11", "11"]), BitVec(2))


def test_random_invertible_always_full_rank(rng):
    for _ in range(20):
        n = int(rng.integers(1, 12))
        assert slow_rank(random_invertible_matrix(n, rng).row_bits) == n


def test_flat_independence_checked():
    with pytest.raises(InconsistentError):
        Flat(2, BitVec(2), (BitVec(2, 0b11), BitVec(2, 0b11)))
    with pytest.raises(InconsistentError):  # zero vector
        Flat(3, BitVec(3), (BitVec(3, 0b001), BitVec(3)))
    with pytest.raises(InconsistentError):  # repeated after an independent one
        Flat(3, BitVec(3), (BitVec(3, 0b110), BitVec(3, 0b011), BitVec(3, 0b110)))
    with pytest.raises(InconsistentError):  # third is the sum of the first two
        Flat(3, BitVec(3), (BitVec(3, 0b110), BitVec(3, 0b011), BitVec(3, 0b101)))
    assert Flat(3, BitVec(3), (BitVec(3, 0b110), BitVec(3, 0b011))).dimension == 2


def test_flat_points_and_mapping(rng):
    flat = Flat(3, BitVec.from_string("100"), (BitVec.from_string("010"),))
    pts = {p.to_string() for p in flat_points(flat)}
    assert pts == {"100", "110"}
    a = random_affine_map(3, rng)
    mapped = flat.map_through(a)
    assert {p.to_string() for p in flat_points(mapped)} == {
        a.apply(p).to_string() for p in flat_points(flat)
    }


@st.composite
def flats(draw):
    """A flat of dimension k <= 8 in F2^n, n <= 16: independent vectors drawn at random."""
    n = draw(st.integers(0, 16))
    reduced: dict[int, int] = {}
    basis = [v for v in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
             if insert_independent(reduced, v)][:8]
    offset = draw(st.integers(0, (1 << n) - 1))
    return Flat(n, BitVec(n, offset), tuple(BitVec(n, b) for b in basis))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(flats())
def test_span_ints_is_point_at_order(flat):
    points = span_ints(flat.offset.bits, [b.bits for b in flat.basis])
    assert points.dtype == np.int64
    assert points.tolist() == [p.bits for p in flat_points(flat)]


def test_flat_text_roundtrip():
    flat = Flat(3, BitVec.from_string("001"), (BitVec.from_string("100"),))
    again = Flat.from_text("001\n\n 100\n")
    assert again == flat
