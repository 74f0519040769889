"""CLI fuzz: small drawn inputs, well formed or not, never end in a traceback.

Each example writes one input (ANF text, a JSON container or a truth
table, perhaps with characters inserted, deleted or replaced) and runs
one of analyze, find-flat, convert, oracle and verify-flat on it through
`anflat.cli.main` in this process, find-flat and verify-flat with a
drawn --samples cap or none. Every run must end with exit 0, 2 or
4: an escaping exception fails the example, and exit 3 would mean an
internal check failed. Derandomized, with no example database.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from anflat.anf_core import Anf, format_anf
from anflat.cli import main

# ANF, JSON and 0/1 characters, and a few outside every grammar
NOISE = st.sampled_from(list("x0123456789+* \n{}[]\":,-") + ["١", "²", "\x00", "y"])


@st.composite
def noisy(draw, text: str) -> str:
    """text with up to three characters inserted, deleted or replaced; half left whole."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        c = draw(NOISE)
        text = draw(st.sampled_from(
            [text[:i] + c + text[i:], text[:i] + text[i + 1:], text[:i] + c + text[i + 1:]]
        ))
    return text


def _vector(draw, n: int) -> str:
    return "".join(draw(st.sampled_from("01")) for _ in range(n))


@st.composite
def cli_case(draw):
    """(argv with {input} and {flat} placeholders, input text, flat text)."""
    n = draw(st.integers(0, 8))
    oracles = ["thickness", "hitting-set"] + (["normality"] if n <= 6 else [])
    argv = draw(st.sampled_from([
        ["analyze", "{input}"], ["find-flat", "{input}", "--json"],
        ["verify-flat", "{input}", "--flat", "{flat}"],
        ["convert", "{input}", "--to", draw(st.sampled_from(["anf", "truth-table"]))],
        ["oracle", draw(st.sampled_from(oracles)), "{input}"],
    ]))
    forms = ["anf", "container"] + (["truth-table"] if argv[0] == "convert" else [])
    form = draw(st.sampled_from(forms))
    term = st.sets(st.integers(0, max(n - 1, 0)), max_size=min(n, 5))
    masks = draw(st.sets(term.map(lambda js: sum(1 << j for j in js)), max_size=20))
    anf = format_anf(Anf(n, frozenset(masks)))
    if form == "anf":
        text = anf
    elif form == "container":
        container = {"n": n, "anf": anf}
        if draw(st.booleans()):  # a permutation matrix: invertible unless noise breaks it
            rows = ["".join("1" if j == i else "0" for j in range(n))
                    for i in draw(st.permutations(range(n)))]
            container["bijection"] = {"matrix": rows, "offset": _vector(draw, n)}
        text = json.dumps(container)
    else:
        text = _vector(draw, 1 << min(n, 6))
    text = draw(noisy(text))
    flat = draw(noisy("\n".join(_vector(draw, n) for _ in range(draw(st.integers(1, 3))))))
    if argv[0] == "convert":
        argv = [*argv, "--from", "truth-table" if form == "truth-table" else "anf"]
    declared = draw(st.sampled_from([None, n, n, draw(st.integers(0, 8))]))
    if form == "anf" and declared is not None:
        argv = [*argv, "--n", str(declared)]
    # small caps send these flats of at most 2^8 points through the low-degree
    # and sampled checks; caps outside [1, 2^20] must be refused
    samples = draw(st.sampled_from([None, -1, 0, 1, 2, 3, 7, 1 << 20, (1 << 20) + 1, 1 << 40]))
    if argv[0] in ("find-flat", "verify-flat") and samples is not None:
        argv = [*argv, "--samples", str(samples)]
    return argv, text, flat


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cli_case())
def test_cli_ends_with_exit_0_2_or_4(case):
    argv, text, flat = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{input}": Path(tmp) / "input", "{flat}": Path(tmp) / "flat"}
        paths["{input}"].write_text(text, encoding="utf-8")
        paths["{flat}"].write_text(flat, encoding="utf-8")
        argv = [str(paths.get(a, a)) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 4), (argv, text, flat, err.getvalue())
    assert "Traceback" not in err.getvalue()
