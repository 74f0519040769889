import json
from pathlib import Path

import pytest

from anflat.anf_core import Anf, format_anf, parse_anf
from anflat.errors import DegreeTooHighError, InconsistentError, VerificationError
from anflat.f2_linalg import (
    AffineMap,
    BitMatrix,
    BitVec,
    rank,
    random_affine_map,
)
from anflat.quadratic import (
    DicksonForm,
    _bilinear_rows,
    _check_coefficients,
    dickson_decompose,
    flat_from_dickson,
)
from conftest import (
    canonical_anf,
    compose_affine,
    flat_points,
    identity_map,
    matrix_of_rows,
    random_quadratic,
    slow_evaluate,
)


def test_already_canonical_product():
    d = dickson_decompose(parse_anf("x1*x2", 2))
    assert d.t == 2 and d.form_type == "I" and d.c == 0
    assert d.map == identity_map(2)


def test_already_canonical_type_two():
    d = dickson_decompose(parse_anf("x1*x2 + x3", 3))
    assert d.t == 2 and d.form_type == "II"
    assert d.map == identity_map(3)


def test_linear_completion():
    f = parse_anf("x1*x2 + x1", 2)
    d = dickson_decompose(f)
    assert d.t == 2 and d.form_type == "I" and d.c == 0
    # the recorded map sends y1 = x1, y2 = x2 + 1
    assert d.map.matrix.to_strings() == ["10", "01"]
    assert d.map.offset.to_string() == "01"
    assert compose_affine(canonical_anf(d), d.map) == f


def test_degree_too_high():
    with pytest.raises(DegreeTooHighError):
        dickson_decompose(parse_anf("x1*x2*x3", 3))


def test_degenerate_classification():
    # type I with t = 0 exactly for constants
    for text, n in (("0", 3), ("1", 2)):
        d = dickson_decompose(parse_anf(text, n))
        assert d.t == 0 and d.form_type == "I"
        assert d.c == (1 if text == "1" else 0)
    # type II with t = 0 exactly for nonconstant affine functions
    for text, n in (("x1", 1), ("x1 + x3 + 1", 3)):
        d = dickson_decompose(parse_anf(text, n))
        assert d.t == 0 and d.form_type == "II"


def test_canonical_anf_shapes():
    d = DicksonForm(t=2, form_type="I", c=1, map=identity_map(2))
    assert canonical_anf(d) == parse_anf("x1*x2 + 1", 2)
    d0 = DicksonForm(t=0, form_type="I", c=0, map=identity_map(2))
    assert canonical_anf(d0) == Anf.zero(2)
    d2 = DicksonForm(t=2, form_type="II", c=0, map=identity_map(3))
    assert canonical_anf(d2) == parse_anf("x1*x2 + x3", 3)


def test_dickson_form_invariants():
    with pytest.raises(InconsistentError):
        DicksonForm(t=3, form_type="I", c=0, map=identity_map(4))
    with pytest.raises(InconsistentError):
        DicksonForm(t=2, form_type="II", c=0, map=identity_map(2))


def test_recomposition_random(rng):
    for _ in range(120):
        n = int(rng.integers(1, 13))
        f = random_quadratic(n, rng)
        d = dickson_decompose(f)
        assert compose_affine(canonical_anf(d), d.map) == f


def _with_rows_swapped(d: DicksonForm, i: int, j: int) -> DicksonForm:
    rows = list(d.map.matrix.row_bits)
    rows[i], rows[j] = rows[j], rows[i]
    matrix = BitMatrix(d.num_vars, d.num_vars, tuple(rows))
    return DicksonForm(d.t, d.form_type, d.c, AffineMap(matrix, d.map.offset))


def test_coefficient_check_matches_symbolic_recomposition(rng):
    """The coefficient check rejects a form exactly when recomposing it
    symbolically does not give back f.

    Swapping the two rows of a pair leaves the product y1*y2 alone, so it
    changes f exactly when the pair's two offset bits differ. Swapping a
    pair row with the row after the pairs always changes the quadratic part.
    """
    rejected = {"pair": 0, "cross": 0, "random": 0}
    for n in range(1, 9):
        for _ in range(25):
            f = random_quadratic(n, rng)
            rows = _bilinear_rows(f)
            lin = sum(m for m in f.terms if m.bit_count() == 1)
            c0 = 1 if 0 in f.terms else 0
            d = dickson_decompose(f)
            t = int(rng.integers(0, n // 2 + 1)) * 2
            form_type = "II" if t < n and rng.random() < 0.5 else "I"
            drawn = DicksonForm(t, form_type, int(rng.integers(2)), random_affine_map(n, rng))
            forms = [(d, None), (drawn, "random")]
            if d.t >= 2:
                forms.append((_with_rows_swapped(d, 0, 1), "pair"))
            if 2 <= d.t < n:
                forms.append((_with_rows_swapped(d, 1, d.t), "cross"))
            for e, kind in forms:
                changed = compose_affine(canonical_anf(e), e.map) != f
                try:
                    _check_coefficients(e, rows, lin, c0)
                    raised = False
                except VerificationError:
                    raised = True
                assert raised == changed, (format_anf(f), e.to_json_dict())
                if kind == "pair":
                    assert changed == (d.map.offset.bits & 1 != d.map.offset.bits >> 1 & 1)
                if kind == "cross":
                    assert changed
                if kind:
                    rejected[kind] += raised
    assert all(rejected.values()), rejected


def test_t_is_twice_half_rank_of_bilinear_form(rng):
    for _ in range(60):
        n = int(rng.integers(2, 11))
        f = random_quadratic(n, rng)
        b = matrix_of_rows(_bilinear_rows(f), n)
        d = dickson_decompose(f)
        assert d.t == rank(b)


def test_t_invariant_under_affine_bijection(rng):
    for _ in range(40):
        n = int(rng.integers(2, 10))
        f = random_quadratic(n, rng)
        t = dickson_decompose(f).t
        for _ in range(3):
            a = random_affine_map(n, rng)
            assert dickson_decompose(compose_affine(f, a)).t == t


def test_quadratic_flat_examples():
    flat, c = flat_from_dickson(dickson_decompose(parse_anf("x1*x2", 2)))
    assert flat.dimension == 1 and c == 0
    assert {p.to_string() for p in flat_points(flat)} == {"00", "01"}

    flat, c = flat_from_dickson(dickson_decompose(parse_anf("x1*x2 + x3*x4", 4)))
    assert flat.dimension == 2 and c == 0

    flat, c = flat_from_dickson(dickson_decompose(parse_anf("x1*x2 + 1", 2)))
    assert flat.dimension == 1 and c == 1


def test_quadratic_flat_dimension_and_constancy(rng):
    for _ in range(80):
        n = int(rng.integers(1, 11))
        f = random_quadratic(n, rng)
        flat, c = flat_from_dickson(dickson_decompose(f))
        assert flat.dimension >= n // 2
        for p in flat_points(flat):
            assert slow_evaluate(f, p.bits) == c


def test_flat_from_dickson_matches_brute_force(rng):
    """The flat is exactly {x : (Ax + b)_i = 0 for every fixed i}."""
    for _ in range(40):
        n = int(rng.integers(1, 9))
        f = random_quadratic(n, rng)
        d = dickson_decompose(f)
        fixed = list(range(0, d.t, 2)) + ([d.t] if d.form_type == "II" else [])
        expected = set()
        for x in range(1 << n):
            y = d.map.apply(BitVec(n, x))
            if all(y.bits >> i & 1 == 0 for i in fixed):
                expected.add(x)
        flat, c = flat_from_dickson(d)
        assert flat.dimension == n - len(fixed)
        assert {p.bits for p in flat_points(flat)} == expected
        assert {slow_evaluate(f, x) for x in expected} == {c}


def test_dickson_and_flat_match_golden():
    """Every quadratic on n = 1..3, seeded random_quadratic shapes at n = 4..12, and
    some of both padded with unused variables at sorted random positions.

    The file was recorded with the partner scan that evaluated u^T B w term by
    term; the decomposition by B-images must reproduce it exactly.
    """
    golden = Path(__file__).resolve().parent / "data" / "golden" / "dickson.json"
    cases = json.loads(golden.read_text())
    assert len(cases) == 197
    for case in cases:
        d = dickson_decompose(parse_anf(case["anf"], case["n"]))
        flat, constant = flat_from_dickson(d)
        assert d.to_json_dict() == case["dickson"], case["anf"]
        assert flat.to_json_dict() == case["flat"], case["anf"]
        assert constant == case["constant"], case["anf"]


def test_dickson_eliminates_once(rng, monkeypatch):
    """P^-1 is read off the symplectic elimination, so the only Gauss-Jordan
    left is the invertibility check of the resulting AffineMap."""
    import anflat.f2_linalg as f2
    import anflat.quadratic as quadratic

    real_invert = f2.invert
    calls = []

    def counting_invert(m):
        calls.append(m.rows)
        return real_invert(m)

    monkeypatch.setattr(f2, "invert", counting_invert)
    monkeypatch.setattr(quadratic, "invert", counting_invert, raising=False)
    dickson_decompose(random_quadratic(64, rng))
    assert calls == [64]
