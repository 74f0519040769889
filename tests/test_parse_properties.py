"""Property tests at the ANF text boundary.

Derandomized, with no example database, so every run draws the same
examples and stores none (conftest keeps Hypothesis's cache out of the
checkout).
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from anflat.anf_core import MAX_VARS, Anf, format_anf, infer_num_vars, parse_anf
from anflat.errors import AnflatError
from anflat.f2_linalg import bit_indices

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# ASCII and Unicode whitespace, all of which the grammar allows around terms and factors
SPACE = st.text(st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x1c", "\xa0", "\u2003", "\u3000"]),
                max_size=2)
# the grammar's alphabet, then Unicode digits, and characters outside it
CHARACTERS = st.sampled_from(
    list("x0123456789+* \t\n") + ["\u0661", "\uff10", "\u00b2", "\u3000", "y", "X", "-", "(", "\x00"]
)


def _term_text(draw, mask: int) -> str:
    """A term for mask, its factors shuffled and some repeated, with whitespace drawn freely."""
    if mask == 0:
        return draw(SPACE) + "1" + draw(SPACE)
    factors = [f"x{draw(st.sampled_from(['', '0', '00']))}{j + 1}" for j in bit_indices(mask)]
    factors += draw(st.lists(st.sampled_from(factors), max_size=2))
    text = ""
    for i, factor in enumerate(draw(st.permutations(factors))):
        text += (draw(SPACE) + "*" + draw(SPACE) if i else draw(SPACE)) + factor
    return text + draw(SPACE)


@st.composite
def anf_and_text(draw):
    """(f, a text for f): its terms shuffled, and some terms added twice so that they cancel."""
    n = draw(st.integers(0, 10))
    f = Anf(n, frozenset(draw(st.sets(st.integers(0, (1 << n) - 1), max_size=10))))
    twice = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    masks = draw(st.permutations([*f.terms, *twice, *twice]))
    if not masks:
        return f, draw(SPACE) + "0" + draw(SPACE)
    return f, "+".join(_term_text(draw, m) for m in masks)


@PROPERTIES
@given(anf_and_text())
def test_parse_inverts_format_under_respelling(case):
    f, text = case
    assert parse_anf(format_anf(f), f.num_vars) == f
    assert parse_anf(text, f.num_vars) == f


@st.composite
def near_grammar_text(draw):
    """Terms over any index (0, and ones past the cap, included) joined by '+', then up
    to three characters inserted, deleted or replaced."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        indices = draw(st.lists(st.one_of(st.integers(0, 12), st.integers(0, 10**6)), max_size=3))
        terms.append(draw(SPACE) + ("*".join(f"x{i}" for i in indices) or "1") + draw(SPACE))
    text = "+".join(terms)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(CHARACTERS)
        text = draw(st.sampled_from(
            [text[:i] + c + text[i:], text[:i] + text[i + 1:], text[:i] + c + text[i + 1:]]
        ))
    return text


@PROPERTIES
@given(st.one_of(st.text(CHARACTERS, max_size=40), near_grammar_text()),
       st.sampled_from([0, 1, 3, 10, MAX_VARS]))
def test_any_text_parses_or_raises_anflat_error(text, n):
    """No text ends in another exception; what parses is canonical on the way back."""
    try:
        f = parse_anf(text, n)
    except AnflatError:
        pass
    else:
        assert parse_anf(format_anf(f), n) == f
    try:
        assert infer_num_vars(text) >= 0
    except AnflatError:
        pass
