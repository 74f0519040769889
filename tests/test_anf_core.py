import re

import numpy as np
import pytest

from anflat.anf_core import (
    DEFAULT_TABLE_CAP,
    Anf,
    FunctionInput,
    anf_to_truth_table,
    evaluate_on_points,
    flat_points_matrix,
    format_anf,
    infer_num_vars,
    parse_anf,
    parse_truth_table,
    reindex,
    truth_table_to_anf,
)
from anflat.errors import (
    AnfSyntaxError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    TooLargeError,
)
from anflat.f2_linalg import AffineMap, BitVec, Flat, random_affine_map
from conftest import (
    compose_affine,
    identity_map,
    identity_matrix,
    random_anf,
    slow_anf_masks,
    slow_evaluate,
)

PROP6_TEXT = "x1*x2*x3 + x1*x4*x5 + x2*x4*x6 + x3*x5*x6"


def test_parse_cancellation():
    assert parse_anf("x1*x2 + x1*x2", 2) == Anf.zero(2)


def test_parse_multilinear_collapse():
    assert parse_anf("x1*x1", 1) == parse_anf("x1", 1)


def test_parse_four_term_cubic():
    f = parse_anf(PROP6_TEXT, 6)
    assert f.sparsity() == 4 and f.degree() == 3 and f.crucial_count() == 4


def test_parse_errors_carry_position():
    with pytest.raises(AnfSyntaxError) as info:
        parse_anf("x1 + + x2", 2)
    assert "(at position 4)" in str(info.value)
    with pytest.raises(IndexOutOfRangeError, match=r"\(at position 10\)"):
        parse_anf("x1 + x2 * x3", 2)
    with pytest.raises(TooLargeError, match=r"\(at position 5\)"):
        parse_anf("x1 + x12345", 2)
    with pytest.raises(IndexOutOfRangeError):
        parse_anf("x3", 2)
    with pytest.raises(IndexOutOfRangeError):
        parse_anf("x0", 2)
    with pytest.raises(AnfSyntaxError):
        parse_anf("0 + x1", 2)
    with pytest.raises(AnfSyntaxError):
        parse_anf("", 2)
    with pytest.raises(AnfSyntaxError):
        parse_anf("1*x1", 2)


def test_infer_num_vars_reads_the_largest_index():
    assert infer_num_vars("x2*x10 + x3 + 1") == 10
    assert infer_num_vars("1") == 1
    with pytest.raises(TooLargeError, match=r"\(at position 3\)"):
        infer_num_vars("x1+x00001")


def test_format_canonical():
    assert format_anf(Anf.zero(3)) == "0"
    assert format_anf(Anf(2, frozenset([0]))) == "1"
    assert format_anf(parse_anf("x2*x1", 2)) == "x1*x2"
    # ascending degree, then lexicographic index sequence
    assert format_anf(parse_anf("x1*x2 + 1 + x2", 2)) == "1 + x2 + x1*x2"


def test_parse_format_roundtrip(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = random_anf(n, rng)
        assert parse_anf(format_anf(f), n) == f


def test_evaluate_examples():
    f = parse_anf("x1*x2 + x3", 3)
    assert list(evaluate_on_points(f, [[1, 1, 0]])) == [1]
    ones = Anf(3, frozenset(range(8)))  # expansion of (1+x1)(1+x2)(1+x3)
    assert list(anf_to_truth_table(ones)) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert list(evaluate_on_points(Anf.zero(2), [[1, 1]])) == [0]
    with pytest.raises(DimensionMismatchError):
        evaluate_on_points(f, [[0, 0]])


def test_sparsity_degree_crucial():
    ones = Anf(3, frozenset(range(8)))
    assert ones.sparsity() == 8
    assert Anf.zero(4).sparsity() == 0 and Anf.zero(4).degree() == 0
    assert parse_anf("x1*x2 + x1", 2).degree() == 2
    assert parse_anf("1", 1).degree() == 0
    assert parse_anf("x1*x2", 2).crucial_count() == 0
    complete4 = parse_anf("x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4", 4)
    assert complete4.crucial_count() == 4


def test_truth_table_to_anf_small_cases():
    and2 = np.array([0, 0, 0, 1], dtype=np.uint8)
    assert truth_table_to_anf(and2) == parse_anf("x1*x2", 2)
    maj3 = np.array([1 if bin(x).count("1") >= 2 else 0 for x in range(8)])
    assert truth_table_to_anf(maj3) == parse_anf("x1*x2 + x1*x3 + x2*x3", 3)
    zero = np.zeros(4, dtype=np.uint8)
    assert truth_table_to_anf(zero) == Anf.zero(2)
    assert truth_table_to_anf(parse_truth_table(" 0001\n")) == parse_anf("x1*x2", 2)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", DimensionMismatchError, "power of two"),
        ("\n", DimensionMismatchError, "power of two"),
        ("011", DimensionMismatchError, "power of two"),
        ("0120", AnfSyntaxError, "'0'/'1' characters (at position 0)"),
        ("01/0", AnfSyntaxError, "'0'/'1' characters"),  # '/' sits just below '0'
        ("0\u00e9", AnfSyntaxError, "'0'/'1' characters"),  # two UTF-8 bytes
        ("0" * (1 << (DEFAULT_TABLE_CAP + 1)), TooLargeError, "exceeds table cap"),
    ],
)
def test_parse_truth_table_refusals(text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        parse_truth_table(text)


def test_transform_matches_subset_sum_definition(rng):
    for n in range(1, 7):
        values = rng.integers(0, 2, 1 << n, dtype=np.uint8)
        f = truth_table_to_anf(values)
        assert f.terms == frozenset(slow_anf_masks(values))


def test_transform_involution_and_pointwise(rng):
    for n in range(1, 9):
        for _ in range(20):
            tt = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            f = truth_table_to_anf(tt)
            assert np.array_equal(anf_to_truth_table(f), tt)
            for x in range(1 << n):
                assert slow_evaluate(f, x) == int(tt[x])


def test_table_cap():
    # the cap is checked before the 2^n-entry table is allocated
    with pytest.raises(TooLargeError):
        anf_to_truth_table(Anf.zero(DEFAULT_TABLE_CAP + 1))


def test_compose_affine_identity_and_shift():
    f = parse_anf("x1*x2", 2)
    assert compose_affine(f, identity_map(2)) == f
    shift = AffineMap(identity_matrix(2), BitVec.from_string("01"))  # x2 -> x2 + 1
    composed = compose_affine(f, shift)
    assert composed == parse_anf("x1*x2 + x1", 2)
    for x in range(4):
        assert slow_evaluate(composed, x) == slow_evaluate(f, shift.apply(BitVec(2, x)).bits)


def test_compose_affine_matches_table_permutation(rng):
    for _ in range(40):
        n = int(rng.integers(1, 8))
        f = random_anf(n, rng)
        a = random_affine_map(n, rng)
        composed = compose_affine(f, a)
        table = anf_to_truth_table(f)
        expected = np.array(
            [table[a.apply(BitVec(n, x)).bits] for x in range(1 << n)], dtype=np.uint8
        )
        assert np.array_equal(anf_to_truth_table(composed), expected)


def test_compose_affine_preserves_degree(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = random_anf(n, rng)
        a = random_affine_map(n, rng)
        assert compose_affine(f, a).degree() == f.degree()


def test_evaluate_on_points_matches_scalar(rng):
    for n in (2, 5, 9):
        f = random_anf(n, rng)
        points = rng.integers(0, 2, size=(24, n), dtype=np.uint8)
        fast = evaluate_on_points(f, points)
        for row, value in zip(points, fast):
            bits = sum(int(b) << j for j, b in enumerate(row))
            assert slow_evaluate(f, bits) == int(value)
        odd = points[:5]  # zero-padded up to one packed byte
        assert list(evaluate_on_points(f, odd)) == list(fast[:5])


def test_flat_points_matrix_order():
    flat = Flat(3, BitVec.from_string("100"), (BitVec.from_string("010"), BitVec.from_string("001")))
    mat = flat_points_matrix(flat)
    for i in range(4):
        expected = flat.point_at(i)
        assert "".join(map(str, mat[i])) == expected.to_string()


def test_reindex():
    f = parse_anf("x2*x4*x6 + x3*x5*x6", 6)
    g = reindex(f, [2, 3, 4, 5, 6])
    assert g == parse_anf("x1*x3*x5 + x2*x4*x5", 5)
    with pytest.raises(IndexOutOfRangeError):
        reindex(f, [1, 2, 3])


def test_function_input_container_roundtrip(rng):
    f = parse_anf("x1*x2 + x3", 3)
    a = random_affine_map(3, rng)
    func = FunctionInput(f, a)
    again = FunctionInput.from_json_dict(func.to_json_dict())
    assert again.g == f and again.bijection == a


def test_function_input_dimension_check(rng):
    with pytest.raises(DimensionMismatchError):
        FunctionInput(parse_anf("x1", 1), random_affine_map(2, rng))
