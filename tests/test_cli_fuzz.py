"""CLI fuzz: small drawn inputs, well formed or not, never end in a traceback.

Each example of the first test writes one input (ANF text, a JSON
container or a truth table, perhaps with characters inserted, deleted or
replaced) and runs one of analyze, find-flat, convert, oracle and
verify-flat on it through `anflat.cli.main` in this process, find-flat
and verify-flat with a drawn --samples cap or none; verify-flat's flat is
drawn as an offset and an independent basis before the noise. Every run
must end with exit 0, 2 or 4: an escaping exception fails the example,
and exit 3 would mean an internal check failed.

The second test runs gen and experiment with each optional flag absent or
set to a drawn value, in range or not (negative, hex, nan, zero, past a
cap); every run must end with exit 0 or 2, argparse's refusals included.
Both are derandomized, with no example database.
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


def _flat_lines(draw, n: int) -> list[str]:
    """An offset, then one to three basis vectors (none if n = 0), each with a 1
    at its own pivot where the others have 0, so they are independent."""
    pivots = draw(st.permutations(range(n)))[: draw(st.integers(min(n, 1), min(n, 3)))]
    lines = [_vector(draw, n)]
    for pivot in pivots:
        bits = [draw(st.sampled_from("01")) if j not in pivots else "0" for j in range(n)]
        bits[pivot] = "1"
        lines.append("".join(bits))
    return lines


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
    flat = draw(noisy("\n".join(_flat_lines(draw, n)))) if argv[0] == "verify-flat" else ""
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


# the optional flags each gen family and experiment kind reads, then those
# every one of them reads
READS = {
    "gen": {"majority": "--n", "all-ones": "--n", "prop6": "", "prop6-family": "--m",
            "complete3": "--n", "rand3-half": "--n --seed",
            "rand3-sparse": "--n --s --scale --seed"},
    "experiment": {"sampler-stats": "--s --scale --family",
                   "disperser-flats": "--s --scale --k --flats-per-trial",
                   "disperser-restrictions": "--s --scale --k --restrictions-per-trial"},
}
COMMON = {"gen": "--out", "experiment": "--master-seed --threads --out --csv"}
# each flag's values: those in range, then negative, zero, hex, nan or past a cap
SEED = (["7", "0x1f", "99999999999999999999999"], ["-1", "-0x3", "nan"])
COUNT = (["1", "2"], ["-1", "0", "0x2", "nan"])
VALUES = {
    "--n": (["3", "5", "12"], ["-1", "0", "2", "0xc", "nan", "4097"]),
    "--trials": (["1", "2"], ["-1", "0", "nan"]),
    "--m": (["1", "2"], ["-1", "0", "137", "0x2", "nan"]),
    "--s": (["2.5", "3", "2"], ["-1", "0", "nan", "inf", "3.5", "0x1"]),
    "--scale": (["0.5", "0.25", "1"], ["-1", "0", "nan", "2", "1e308"]),
    "--seed": SEED, "--master-seed": SEED,
    "--k": (["3", "0"], ["-1", "13", "21", "nan"]),
    "--flats-per-trial": COUNT, "--restrictions-per-trial": COUNT,
    "--family": (["rand3-sparse", "rand3-half"], ["bogus"]),
    "--threads": (["2"], ["-1", "0"]),
    "--out": (["{path}"], ["{path}"]), "--csv": (["{path}"], ["{path}"]),
}
FLAGS = {"gen": "--n --m --s --scale --seed --out",
         "experiment": "--s --k --flats-per-trial --restrictions-per-trial --family --scale "
                       "--master-seed --threads --out --csv"}


@st.composite
def gen_or_experiment(draw):
    """argv of gen or experiment, {path} standing for a file to write. A flag
    the family or kind reads is given three draws out of four, any other one
    out of eight; a value is in range three draws out of four. n stays at
    most 12 and trials at most 2 wherever they are valid."""
    command = draw(st.sampled_from(list(READS)))
    target = draw(st.sampled_from(list(READS[command])))
    argv = [command, target]
    required = ["--n", "--trials"] if command == "experiment" else []  # trials kept small
    reads = (READS[command][target] + " " + COMMON[command]).split()
    for flag in required + FLAGS[command].split():
        if flag in required or draw(st.integers(0, 7)) < (6 if flag in reads else 1):
            valid, invalid = VALUES[flag]
            value = draw(st.sampled_from(valid if draw(st.integers(0, 3)) else invalid))
            argv.append(f"{flag}={value}")
    if command == "gen" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gen_or_experiment())
def test_gen_and_experiment_end_with_exit_0_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{path}", str(Path(tmp) / "out")) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value its type or choices reject
                code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
