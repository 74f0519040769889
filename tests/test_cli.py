import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import anflat
from anflat.anf_core import MAX_TERMS
from anflat.cli import main
from conftest import load_schema

PROP6_TEXT = "x1*x2*x3 + x1*x4*x5 + x2*x4*x6 + x3*x5*x6"
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def prop6_file(tmp_path):
    path = tmp_path / "f.anf"
    path.write_text(PROP6_TEXT + "\n")
    return str(path)


def validated(out: str, schema_name: str) -> dict:
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema_name))
    return payload


def test_analyze_human_and_json(capsys, prop6_file):
    code, out, _ = run_cli(capsys, "analyze", prop6_file)
    assert code == 0
    assert "sparsity: 4" in out and "pigeonhole bound: 2" in out
    code, out, _ = run_cli(capsys, "analyze", "--json", prop6_file)
    payload = validated(out, "analyze")
    assert payload["degree"] == 3
    assert payload["occurrences"] == [2, 2, 2, 2, 2, 2]


def test_analyze_zero(capsys, tmp_path):
    path = tmp_path / "zero.anf"
    path.write_text("0\n")
    code, out, _ = run_cli(capsys, "analyze", "--json", "--n", "4", str(path))
    payload = validated(out, "analyze")
    assert payload["sparsity"] == 0 and payload["max_occurrence"] == 0


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.anf"
    path.write_text("x1 ++ x2\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "position" in err


def test_analyze_container(capsys, tmp_path):
    container = {
        "n": 3,
        "anf": "x1*x2 + x3",
        "bijection": {"matrix": ["100", "010", "001"], "offset": "001"},
        "comment": "shifted product",
    }
    jsonschema.validate(container, load_schema("function-container"))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(container))
    code, out, _ = run_cli(capsys, "analyze", "--json", str(path))
    payload = validated(out, "analyze")
    assert payload["bijection"] is True


def test_find_flat_json_schema(capsys, prop6_file):
    code, out, _ = run_cli(capsys, "find-flat", "--json", prop6_file)
    assert code == 0
    payload = validated(out, "flat-report")
    assert payload["dimension"] == 4
    assert payload["constant"] == 0
    assert payload["verification"]["mode"] == "exhaustive"


def test_find_flat_and_verify_low_degree_at_n64(capsys, tmp_path):
    import numpy as np

    from anflat.anf_core import FunctionInput
    from anflat.f2_linalg import random_affine_map
    from anflat.generators import Degree3SamplerConfig, random_degree3_sparse

    g = random_degree3_sparse(Degree3SamplerConfig(n=64, s=2.0, seed=64, inclusion_scale=0.5))
    bijection = random_affine_map(64, np.random.default_rng(64))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(FunctionInput(g, bijection).to_json_dict()))
    code, out, _ = run_cli(capsys, "find-flat", "--json", str(path))
    assert code == 0
    payload = validated(out, "flat-report")
    verification = payload["verification"]
    assert verification["mode"] == "low_degree"
    assert verification["value"] == payload["constant"]
    assert 0 < verification["points"] < 1 << 20 < 1 << payload["dimension"]

    flat_path = tmp_path / "flat.json"
    flat_path.write_text(json.dumps({"offset": payload["offset"], "basis": payload["basis"]}))
    argv = ["verify-flat", "--flat", str(flat_path), str(path)]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    verdict = validated(out, "verify")
    assert verdict["verdict"] == "constant_low_degree"
    assert verdict["points"] == verification["points"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert f"points: {verification['points']}" in out.splitlines()
    assert "samples" not in out


def test_find_flat_epsilon(capsys, prop6_file):
    code, out, _ = run_cli(capsys, "find-flat", "--json", "--epsilon", "1.0", prop6_file)
    payload = validated(out, "flat-report")
    assert payload["epsilon"] == 1.0
    assert payload["guaranteed_dim"] == 0.0
    code, _, err = run_cli(capsys, "find-flat", "--epsilon", "2.5", prop6_file)
    assert code == 2


def test_verify_flat_roundtrip_and_tamper(capsys, tmp_path, prop6_file):
    code, out, _ = run_cli(capsys, "find-flat", "--json", prop6_file)
    report = json.loads(out)
    flat_path = tmp_path / "flat.json"
    flat_path.write_text(json.dumps({"offset": report["offset"], "basis": report["basis"]}))
    code, out, _ = run_cli(
        capsys, "verify-flat", "--flat", str(flat_path), "--constant", "0", "--json", prop6_file
    )
    assert code == 0
    payload = validated(out, "verify")
    assert payload["verdict"] == "constant"

    # tamper with a basis vector: x1 enters, where the function is not constant
    tampered = dict(report)
    basis = list(report["basis"])
    basis[0] = "100000"
    flat_path.write_text(json.dumps({"offset": report["offset"], "basis": basis}))
    code, out, _ = run_cli(
        capsys, "verify-flat", "--flat", str(flat_path), "--constant", "0", "--json", prop6_file
    )
    assert code == 4
    payload = validated(out, "verify")
    assert payload["verdict"] == "not_constant"
    assert payload["witness"]


def test_verify_flat_text_format(capsys, tmp_path):
    func = tmp_path / "f.anf"
    func.write_text("x1*x2\n")
    flat = tmp_path / "flat.txt"
    flat.write_text("00\n01\n")
    code, out, _ = run_cli(capsys, "verify-flat", "--flat", str(flat), str(func))
    assert code == 0
    assert "constant" in out


def test_convert_roundtrip(capsys, tmp_path):
    path = tmp_path / "and.tt"
    path.write_text("0001\n")
    code, out, _ = run_cli(capsys, "convert", "--from", "truth-table", "--to", "anf", str(path))
    assert code == 0 and out == "x1*x2\n"
    path2 = tmp_path / "and.anf"
    path2.write_text(out)
    code, out2, _ = run_cli(
        capsys, "convert", "--from", "anf", "--to", "truth-table", str(path2)
    )
    assert out2 == "0001\n"
    # byte-identical round trip back to ANF
    path3 = tmp_path / "roundtrip.tt"
    path3.write_text(out2)
    code, out3, _ = run_cli(capsys, "convert", "--from", "truth-table", "--to", "anf", str(path3))
    assert out3 == out
    code, out4, _ = run_cli(
        capsys, "convert", "--from", "anf", "--to", "anf", "--json", str(path2)
    )
    validated(out4, "convert")


def test_convert_container_with_bijection_exit_2(capsys, tmp_path):
    """convert writes the stored g, so a container whose f differs from g is refused."""
    bijection = {"matrix": ["100", "010", "001"], "offset": "001"}
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 3, "anf": "x1*x2", "bijection": bijection}))
    code, out, err = run_cli(capsys, "convert", "--from", "anf", "--to", "truth-table", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    path.write_text(json.dumps({"n": 3, "anf": "x1*x2", "bijection": None}))
    code, out, _ = run_cli(capsys, "convert", "--from", "anf", "--to", "truth-table", str(path))
    assert code == 0 and out == "00010001\n"


def test_convert_too_large_exit_2(capsys, tmp_path):
    path = tmp_path / "big.anf"
    path.write_text("x1*x30\n")
    code, _, err = run_cli(capsys, "convert", "--from", "anf", "--to", "truth-table", str(path))
    assert code == 2


def test_gen_families(capsys):
    code, out, _ = run_cli(capsys, "gen", "prop6")
    assert out.strip() == PROP6_TEXT
    code, out, _ = run_cli(capsys, "gen", "majority", "--n", "3")
    assert out.strip() == "x1*x2 + x1*x3 + x2*x3"
    code, out, _ = run_cli(capsys, "gen", "all-ones", "--n", "2")
    assert out.strip() == "1 + x1 + x2 + x1*x2"
    code, out, _ = run_cli(capsys, "gen", "prop6-family", "--m", "2", "--json")
    payload = validated(out, "gen")
    assert payload["n"] == 60 and payload["m"] == 2
    code, out, _ = run_cli(capsys, "gen", "complete3", "--n", "4", "--json")
    payload = validated(out, "gen")
    assert payload["anf"].count("*") == 8


# gen --json stdout recorded before the families were declared in one table
GOLDEN_GEN = {
    "majority": ["--n", "5"],
    "all-ones": ["--n", "3"],
    "prop6": [],
    "prop6-family": [],
    "complete3": ["--n", "5"],
    "rand3-half": ["--n", "8", "--seed", "3"],
    "rand3-sparse": ["--n", "12", "--s", "2.5", "--seed", "0x7"],
}


@pytest.mark.parametrize("family", list(GOLDEN_GEN))
def test_gen_golden_json(capsys, family):
    code, out, _ = run_cli(capsys, "gen", family, *GOLDEN_GEN[family], "--json")
    assert code == 0
    assert out == (DATA / "golden" / f"{family}.gen.json").read_text()
    validated(out, "gen")


# convert and oracle stdout recorded while truth tables were still a wrapper class,
# and the random7 / random4 oracles while they still walked every echelon basis and
# every matrix of GL(n, 2): golden name -> argv before the input file, input file
# (majority5 is gen majority --n 5, majority4 is --n 4, base_cubic is prop6, random7
# and random4 keep each monomial of 7 and 4 variables with probability 1/2, drawn
# from numpy's default_rng(2) and default_rng(1); random7's witness has k = 4 and
# random4's thickness is 4, so neither oracle stops early)
GOLDEN_TABLES = {
    **{
        f"{name}.{golden}": (argv, f"{name}.{source}")
        for name in ("majority5", "base_cubic")
        for golden, source, argv in [
            ("to-truth-table", "anf", ["convert", "--from", "anf", "--to", "truth-table"]),
            ("to-anf", "tt", ["convert", "--from", "truth-table", "--to", "anf"]),
            ("normality", "anf", ["oracle", "normality"]),
        ]
    },
    "majority4.thickness": (["oracle", "thickness"], "majority4.anf"),
    "random7.normality": (["oracle", "normality"], "random7.anf"),
    "random4.thickness": (["oracle", "thickness"], "random4.anf"),
}


@pytest.mark.parametrize("name", list(GOLDEN_TABLES))
@pytest.mark.parametrize("suffix, extra", [("json", ["--json"]), ("txt", [])])
def test_truth_table_golden_stdout(capsys, name, suffix, extra):
    argv, source = GOLDEN_TABLES[name]
    code, out, _ = run_cli(capsys, *argv, str(DATA / source), *extra)
    assert code == 0
    assert out == (DATA / "golden" / f"{name}.{suffix}").read_text()


def test_gen_seeded_reproducibility(capsys):
    args = ("gen", "rand3-sparse", "--n", "20", "--s", "2.5", "--seed", "7")
    code, out1, _ = run_cli(capsys, *args)
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    # hex seed notation accepted
    code, out3, _ = run_cli(capsys, "gen", "rand3-sparse", "--n", "20", "--s", "2.5", "--seed", "0x7")
    assert out3 == out1
    code, out, _ = run_cli(
        capsys, "gen", "rand3-half", "--n", "8", "--seed", "3", "--json"
    )
    payload = validated(out, "gen")
    assert payload["seed"] == 3


def test_gen_unseeded_prints_seed_and_reproduces(capsys):
    code, out1, err1 = run_cli(capsys, "gen", "rand3-half", "--n", "8")
    assert code == 0
    seed_line = [ln for ln in err1.splitlines() if ln.startswith("seed: ")]
    assert seed_line
    seed = seed_line[0].split()[1]
    code, out2, _ = run_cli(capsys, "gen", "rand3-half", "--n", "8", "--seed", seed)
    assert out2 == out1


def test_oracle_commands(capsys, prop6_file, tmp_path):
    code, out, _ = run_cli(capsys, "oracle", "hitting-set", "--json", prop6_file)
    payload = validated(out, "oracle")
    assert payload["optimum"] == 2

    small = tmp_path / "q.anf"
    small.write_text("x1*x2\n")
    code, out, _ = run_cli(capsys, "oracle", "normality", "--json", str(small))
    payload = validated(out, "oracle")
    assert payload["normality"] == 1

    thick = tmp_path / "t.anf"
    thick.write_text("x1*x2 + x1\n")
    code, out, _ = run_cli(capsys, "oracle", "thickness", "--json", str(thick))
    payload = validated(out, "oracle")
    assert payload["thickness"] == 1

    code, out, _ = run_cli(
        capsys, "oracle", "hitting-set", "--budget", "1", "--json", prop6_file
    )
    payload = validated(out, "oracle")
    assert payload["optimum"] is None


def test_oracle_cap_exit_2(capsys, tmp_path):
    big = tmp_path / "big.anf"
    big.write_text("x1*x9\n")
    code, _, err = run_cli(capsys, "oracle", "normality", str(big))
    assert code == 2


def test_experiment_json_schema_and_determinism(capsys, tmp_path):
    args = (
        "experiment",
        "sampler-stats",
        "--n",
        "10",
        "--family",
        "rand3-half",
        "--trials",
        "20",
        "--master-seed",
        "11",
    )
    code, out1, err1 = run_cli(capsys, *args)
    assert code == 0
    payload = validated(out1, "experiment-report")
    assert payload["asymptotic_claim"] is True
    code, out2, _ = run_cli(capsys, *args, "--threads", "4")
    assert out1 == out2

    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    code, out3, _ = run_cli(capsys, *args, "--out", str(out_path), "--csv", str(csv_path))
    assert out_path.read_text() == out1
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,seed,sparsity"
    assert len(lines) == 21


def test_experiment_disperser_flats(capsys):
    code, out, err = run_cli(
        capsys,
        "experiment",
        "disperser-flats",
        "--n",
        "12",
        "--s",
        "2.5",
        "--k",
        "3",
        "--trials",
        "3",
        "--flats-per-trial",
        "5",
        "--master-seed",
        "1",
    )
    assert code == 0
    payload = validated(out, "experiment-report")
    assert payload["config"]["k"] == 3
    assert "wilson_ci_95" in payload["aggregate"]
    assert "wall clock" in err


def test_experiment_invalid_s_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "experiment",
        "disperser-flats",
        "--n",
        "12",
        "--s",
        "3.5",
        "--k",
        "3",
        "--trials",
        "1",
        "--master-seed",
        "1",
    )
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "analyze", "--json", "-", stdin="x1*x2\n", monkeypatch=monkeypatch
    )
    assert code == 0
    payload = validated(out, "analyze")
    assert payload["n"] == 2


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/path.anf")
    assert code == 2


def test_internal_verification_failure_exit_3(capsys, monkeypatch, prop6_file):
    # force the internal self-check to fail; the CLI must report exit 3
    import anflat.pipeline as pipeline_module

    def broken_verify(func, flat, claimed=None, **kwargs):
        return pipeline_module.Verdict(kind=pipeline_module.VERDICT_NOT_CONSTANT)

    monkeypatch.setattr(pipeline_module, "verify_flat", broken_verify)
    code, _, err = run_cli(capsys, "find-flat", prop6_file)
    assert code == 3
    assert "internal error" in err


@pytest.mark.parametrize("kind", ["constant", "constant_low_degree"])
def test_wrong_verified_value_exit_3(capsys, monkeypatch, prop6_file, kind):
    # a constant verdict whose value differs from the Dickson constant is an internal failure
    import anflat.pipeline as pipeline_module

    def wrong_value(func, flat, claimed=None, **kwargs):
        return pipeline_module.Verdict(kind=kind, value=1 - claimed, samples=7)

    monkeypatch.setattr(pipeline_module, "verify_flat", wrong_value)
    code, _, err = run_cli(capsys, "find-flat", prop6_file)
    assert code == 3
    assert "unexpected value" in err


@pytest.mark.parametrize(
    "name, extra",
    [
        ("base_cubic.anf", []),
        ("bijection_container.json", []),
        ("wide_type2.anf", ["--n", "9"]),  # support x1..x6, type-II residual
    ],
)
def test_find_flat_golden_stdout(capsys, name, extra):
    code, out, _ = run_cli(capsys, "find-flat", str(DATA / name), *extra, "--json")
    assert code == 0
    golden = DATA / "golden" / (name.rsplit(".", 1)[0] + ".find-flat.json")
    assert out == golden.read_text()


# wide_type2 at n = 9 is constant 0 on this flat; its basis projects onto the
# support x1..x6 with rank 3, so its Hamming ball of radius 3 holds 8 points
WIDE_FLAT = ["000100000", "000010000", "101000000", "000101000",
             "000000100", "000000010", "000000001"]

# verify-flat stdout recorded before the three checks were merged into one body:
# (function file, flat lines, extra flags)
GOLDEN_VERIFY = {
    "constant": ("base_cubic.anf", ["000000", "010000", "001000", "000100", "000010"], []),
    "constant-low-degree": ("wide_type2.anf", WIDE_FLAT, ["--n", "9", "--samples", "8"]),
    "sampled-ok": ("wide_type2.anf", WIDE_FLAT,
                   ["--n", "9", "--samples", "7", "--constant", "0"]),
    # exhaustive, behind the bijection
    "not-constant-pair": ("bijection_container.json",
                          ["010101", "101000", "001111", "100000"], []),
    # low-degree; the basis vectors that vanish on the support come first
    "not-constant-pair-low-degree": (
        "wide_type2.anf",
        ["000100000", "000000100", "000000010", "000000001", "100010000", "101000000",
         "000101000"],
        ["--n", "9", "--samples", "60"],
    ),
    # sampled, claiming the value no sample takes
    "not-constant-lone": ("wide_type2.anf", WIDE_FLAT,
                          ["--n", "9", "--samples", "7", "--constant", "1"]),
}


@pytest.mark.parametrize("name", list(GOLDEN_VERIFY))
@pytest.mark.parametrize("suffix, extra", [("json", ["--json"]), ("txt", [])])
def test_verify_flat_golden_stdout(capsys, tmp_path, name, suffix, extra):
    function, flat, flags = GOLDEN_VERIFY[name]
    flat_path = tmp_path / "flat.txt"
    flat_path.write_text("\n".join(flat) + "\n")
    code, out, _ = run_cli(
        capsys, "verify-flat", str(DATA / function), "--flat", str(flat_path), *flags, *extra
    )
    assert code == (4 if name.startswith("not-constant") else 0)
    assert out == (DATA / "golden" / f"{name}.verify-flat.{suffix}").read_text()


@pytest.mark.parametrize(
    "kind, text",
    [
        pytest.param("container", "{bad", id="not-json"),
        pytest.param("container", '{"n": ' + "[" * 100_000, id="nested-too-deep"),
        pytest.param("container", '{"n": 3}', id="no-anf"),
        pytest.param("container", '{"n": 2, "anf": 5}', id="anf-not-string"),
        pytest.param(
            "container",
            '{"n": 2, "anf": "x1", "bijection": {"matrix": ["10", "01"]}}',
            id="bijection-no-offset",
        ),
        pytest.param(
            "container",
            '{"n": 2, "anf": "x1", "bijecton": {"matrix": ["10", "01"], "offset": "00"}}',
            id="container-unknown-key",
        ),
        pytest.param(
            "container",
            '{"n": 2, "anf": "x1", "bijection": {"matrix": ["10", "01"], "offset": "00", "x": 1}}',
            id="bijection-unknown-key",
        ),
        pytest.param("container", '{"n": 2, "anf": "x1", "comment": 5}', id="comment-not-string"),
        pytest.param("flat", '{"offset": "00"}', id="flat-no-basis"),
    ],
)
def test_malformed_json_exit_2_without_traceback(tmp_path, kind, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if kind == "container":
        argv = ["find-flat", str(bad)]
    else:
        func = tmp_path / "f.anf"
        func.write_text("x1*x2\n")
        argv = ["verify-flat", str(func), "--flat", str(bad)]
    src = Path(anflat.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "anflat.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# experiment stdout and CSV recorded before the trial loops were merged
GOLDEN_EXPERIMENTS = {
    "disperser-flats": ["disperser-flats", "--n", "12", "--s", "2.5", "--k", "3",
                        "--trials", "20", "--flats-per-trial", "25", "--master-seed", "5"],
    "disperser-restrictions": ["disperser-restrictions", "--n", "16", "--s", "2.5", "--k", "5",
                               "--trials", "20", "--restrictions-per-trial", "10",
                               "--master-seed", "909"],
    "sampler-stats-sparse": ["sampler-stats", "--n", "12", "--s", "2.5", "--trials", "20",
                             "--master-seed", "7"],
    "sampler-stats-half": ["sampler-stats", "--family", "rand3-half", "--n", "10",
                           "--trials", "20", "--master-seed", "42"],
    # recorded before the kinds were declared in one table: every flag that has a
    # default is left out (disperser-flats keeps --k, as its default k always
    # exceeds n or the flat cap)
    "disperser-flats-defaults": ["disperser-flats", "--n", "12", "--s", "2.5", "--k", "3",
                                 "--trials", "3", "--master-seed", "13"],
    "disperser-restrictions-defaults": ["disperser-restrictions", "--n", "12", "--s", "2.5",
                                        "--trials", "3", "--master-seed", "17"],
    "sampler-stats-defaults": ["sampler-stats", "--n", "12", "--s", "2.5", "--trials", "3",
                               "--master-seed", "19"],
}


@pytest.mark.parametrize("name", list(GOLDEN_EXPERIMENTS))
def test_experiment_golden_json_and_csv(capsys, tmp_path, name):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "experiment", *GOLDEN_EXPERIMENTS[name], "--csv", str(csv_path)
    )
    assert code == 0
    golden = DATA / "golden"
    assert out == (golden / f"{name}.experiment.json").read_text()
    assert csv_path.read_text() == (golden / f"{name}.experiment.csv").read_text()


def _address_space_cap():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_capped(argv):
    """The CLI in a subprocess under a 2 GB address space and a 60 s timeout."""
    src = Path(anflat.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "anflat.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=_address_space_cap,
        timeout=60,
    )


# MAX_TERMS + 1 terms, refused from the + signs before any term is built
_OVER_TERM_CAP = " + ".join(["x1"] * (MAX_TERMS + 1))


@pytest.mark.parametrize(
    "text, extra",
    [
        pytest.param("x" + "9" * 5000 + "\n", [], id="index-of-5000-digits"),
        pytest.param("x99999999999999\n", [], id="index-of-14-digits"),
        pytest.param("x1*x2*x3 + x200000\n", [], id="index-beyond-cap"),
        pytest.param("x1*x2*x3\n", ["--n", "100000000"], id="n-flag-beyond-cap"),
        pytest.param('{"n": 100000000, "anf": "x1*x2*x3"}', [], id="container-n-beyond-cap"),
        pytest.param('{"n": 1' + "0" * 5000 + ', "anf": "x1"}', [], id="container-n-5001-digits"),
        pytest.param("x1*x²\n", [], id="superscript-digit"),
        pytest.param(_OVER_TERM_CAP + "\n", [], id="terms-beyond-cap"),
        pytest.param(json.dumps({"n": 1, "anf": _OVER_TERM_CAP}), [],
                     id="container-terms-beyond-cap"),
    ],
)
def test_oversized_input_exit_2_without_traceback(tmp_path, text, extra):
    """Inputs past the variable or term cap end with exit 2, under a 2 GB address space."""
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    for argv in (["find-flat", str(bad), *extra], ["convert", str(bad), "--from", "anf",
                                                    "--to", "anf", *extra]):
        proc = run_capped(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["gen", "majority"], "needs --n", id="majority-no-n"),
        pytest.param(["gen", "all-ones"], "needs --n", id="all-ones-no-n"),
        pytest.param(["gen", "complete3"], "needs --n", id="complete3-no-n"),
        pytest.param(["gen", "rand3-half"], "needs --n", id="rand3-half-no-n"),
        pytest.param(["gen", "rand3-sparse", "--s", "2.5", "--seed", "1"], "needs --n",
                     id="rand3-sparse-no-n"),
        pytest.param(["gen", "complete3", "--n", "100000"], "cap", id="complete3-n-beyond-cap"),
        pytest.param(["gen", "rand3-half", "--n", "100000", "--seed", "1"], "cap",
                     id="rand3-half-n-beyond-cap"),
        pytest.param(["gen", "prop6-family", "--m", "200"], "cap", id="prop6-family-m-beyond-cap"),
        pytest.param(["gen", "prop6-family", "--m", "100000000"], "cap",
                     id="prop6-family-m-huge"),
        pytest.param(["experiment", "sampler-stats", "--family", "rand3-half", "--n", "100000",
                      "--trials", "1", "--master-seed", "1"], "cap",
                     id="sampler-stats-n-beyond-cap"),
        # within the variable cap, but over the term cap: C(n, 3) p terms expected
        pytest.param(["gen", "complete3", "--n", "4096"], "terms", id="complete3-n4096-terms"),
        pytest.param(["gen", "rand3-half", "--n", "4096", "--seed", "1"], "terms",
                     id="rand3-half-n4096-terms"),
        pytest.param(["gen", "rand3-sparse", "--n", "4096", "--s", "2.5", "--seed", "1"], "terms",
                     id="rand3-sparse-n4096-terms"),
        pytest.param(["experiment", "sampler-stats", "--n", "4096", "--s", "2.5", "--trials", "1",
                      "--master-seed", "1"], "terms", id="sampler-stats-n4096-terms"),
        pytest.param(["experiment", "disperser-flats", "--n", "12", "--s", "2.5",
                      "--master-seed", "1"], "needs k: pass --k", id="disperser-flats-no-k"),
        # refused before a seed is drawn, so no seed: line comes first
        pytest.param(["experiment", "disperser-flats", "--n", "12", "--s", "2.5"],
                     "needs k: pass --k", id="disperser-flats-no-k-no-seed"),
        pytest.param(["gen", "rand3-half", "--n", "4096"], "terms",
                     id="rand3-half-n4096-terms-no-seed"),
        pytest.param(["gen", "rand3-half", "--n", "2", "--seed", "1"], "at least 3 variables",
                     id="rand3-half-n-below-3"),
        pytest.param(["gen", "rand3-half", "--n", "5", "--seed", "-1"], "--seed",
                     id="rand3-half-negative-seed"),
        pytest.param(["gen", "rand3-sparse", "--n", "5", "--s", "2.5", "--seed=-3"], "--seed",
                     id="rand3-sparse-negative-seed"),
        pytest.param(["experiment", "disperser-flats", "--n", "12", "--s", "2.5", "--k", "3",
                      "--trials", "2", "--master-seed", "1", "--flats-per-trial", "0"],
                     "flats per trial", id="disperser-flats-zero-per-trial"),
        pytest.param(["experiment", "disperser-flats", "--n", "12", "--s", "2.5", "--k", "3",
                      "--trials", "2", "--master-seed", "1", "--flats-per-trial", "-3"],
                     "flats per trial", id="disperser-flats-negative-per-trial"),
        pytest.param(["experiment", "disperser-restrictions", "--n", "12", "--s", "2.5",
                      "--trials", "2", "--master-seed", "1",
                      "--restrictions-per-trial", "-1"],
                     "restrictions per trial", id="disperser-restrictions-negative-per-trial"),
        pytest.param(["oracle", "hitting-set", str(DATA / "base_cubic.anf"), "--budget", "-1"],
                     "budget must be nonnegative", id="hitting-set-negative-budget"),
        pytest.param(["oracle", "hitting-set", str(DATA / "base_cubic.anf"), "--node-limit", "0"],
                     "node limit must be at least 1", id="hitting-set-zero-node-limit"),
    ],
)
def test_generator_size_exit_2_without_traceback(argv, message):
    """A family without --n, with n outside [3, cap], with more terms expected than
    the term cap or with a negative seed, an experiment with n past the cap, with too
    many terms expected, without --k or with fewer than one flat or restriction per
    trial, or a hitting-set search with a negative budget or no nodes, ends with exit 2
    and a message naming the fault, with or without a seed flag."""
    proc = run_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "kind, n",
    [
        pytest.param("thickness", 5, id="thickness-n5"),
        pytest.param("normality", 9, id="normality-n9"),
    ],
)
def test_oracle_over_cap_exit_2_without_traceback(tmp_path, kind, n):
    """One variable past an oracle's fixed cap is refused at once, not enumerated."""
    path = tmp_path / "f.anf"
    path.write_text(f"x1*x{n}\n")
    proc = run_capped(["oracle", kind, str(path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "cap" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cap", [0, -1, (1 << 20) + 1, 1 << 40])
@pytest.mark.parametrize("command", ["find-flat", "verify-flat"])
def test_sample_cap_outside_range_exit_2_without_traceback(tmp_path, command, cap):
    """--samples outside [1, 2^20] is refused before any point is built, here on
    x1*x2*x3 at n = 40, whose whole space verify-flat is given as the flat."""
    path = tmp_path / "f.anf"
    path.write_text("x1*x2*x3\n")
    flat = tmp_path / "flat.txt"
    flat.write_text("\n".join("".join("1" if j == i else "0" for j in range(40))
                              for i in range(-1, 40)) + "\n")
    argv = [command, str(path), "--n", "40", "--samples", str(cap)]
    proc = run_capped(argv + (["--flat", str(flat)] if command == "verify-flat" else []))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "sample cap" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["gen", "rand3-half", "--n", "5", "--seed", "1", "--scale", "1.0"],
                     "--scale", id="gen-rand3-half-scale"),
        pytest.param(["experiment", "sampler-stats", "--family", "rand3-half", "--n", "10",
                      "--trials", "2", "--master-seed", "1", "--s", "2.5"],
                     "rand3-half takes no s", id="sampler-stats-half-s"),
        pytest.param(["experiment", "sampler-stats", "--family", "rand3-half", "--n", "10",
                      "--trials", "2", "--master-seed", "1", "--scale", "0.5"],
                     "rand3-half takes no s or scale", id="sampler-stats-half-scale"),
        pytest.param(["experiment", "disperser-flats", "--family", "rand3-sparse", "--n", "12",
                      "--s", "2.5", "--k", "3", "--trials", "2", "--master-seed", "1"],
                     "takes no family", id="disperser-flats-family"),
        pytest.param(["experiment", "disperser-restrictions", "--family", "rand3-half",
                      "--n", "12", "--s", "2.5", "--trials", "2", "--master-seed", "1"],
                     "takes no family", id="disperser-restrictions-family"),
        *(
            pytest.param(["gen", family, *size, "--seed", "3"],
                         f"--seed does not apply to {family}", id=f"gen-{family}-seed")
            for family, size in [("majority", ["--n", "5"]), ("all-ones", ["--n", "3"]),
                                 ("prop6", []), ("prop6-family", []),
                                 ("complete3", ["--n", "4"])]
        ),
        pytest.param(["gen", "majority", "--n", "5", "--m", "2"], "--m does not apply",
                     id="gen-majority-m"),
        pytest.param(["gen", "rand3-sparse", "--n", "5", "--s", "2.5", "--seed", "1", "--m", "2"],
                     "--m does not apply", id="gen-rand3-sparse-m"),
        pytest.param(["gen", "prop6", "--n", "50", "--seed", "3"], "--n does not apply to prop6",
                     id="gen-prop6-n"),
        pytest.param(["gen", "prop6-family", "--n", "30", "--m", "1"], "--n does not apply",
                     id="gen-prop6-family-n"),
        pytest.param(["experiment", "sampler-stats", "--n", "10", "--trials", "2",
                      "--master-seed", "1", "--k", "3"], "--k does not apply",
                     id="sampler-stats-k"),
        pytest.param(["experiment", "sampler-stats", "--n", "10", "--trials", "2",
                      "--master-seed", "1", "--flats-per-trial", "5"],
                     "--flats-per-trial does not apply", id="sampler-stats-flats-per-trial"),
        pytest.param(["experiment", "sampler-stats", "--n", "10", "--trials", "2",
                      "--master-seed", "1", "--restrictions-per-trial", "5"],
                     "--restrictions-per-trial does not apply",
                     id="sampler-stats-restrictions-per-trial"),
        pytest.param(["experiment", "disperser-flats", "--n", "12", "--s", "2.5", "--k", "3",
                      "--trials", "2", "--master-seed", "1", "--restrictions-per-trial", "5"],
                     "--restrictions-per-trial does not apply",
                     id="disperser-flats-restrictions-per-trial"),
        pytest.param(["experiment", "disperser-restrictions", "--n", "12", "--s", "2.5",
                      "--trials", "2", "--master-seed", "1", "--flats-per-trial", "5"],
                     "--flats-per-trial does not apply",
                     id="disperser-restrictions-flats-per-trial"),
        *(
            pytest.param(["oracle", kind, str(DATA / "base_cubic.anf"), flag, "1"],
                         f"{flag} does not apply to oracle {kind}", id=f"oracle-{kind}{flag}")
            for kind in ("normality", "thickness") for flag in ("--budget", "--node-limit")
        ),
        *(
            pytest.param([*command, str(DATA / "bijection_container.json"), "--n", "6"],
                         "--n does not apply to a JSON container", id=f"{command[0]}-container-n")
            for command in (["analyze"], ["find-flat"],
                            ["verify-flat", "--flat", str(DATA / "bijection_container.json")],
                            ["oracle", "hitting-set"], ["convert", "--from", "anf", "--to", "anf"])
        ),
        pytest.param(["convert", "--from", "truth-table", "--to", "anf", "--n", "2",
                      str(DATA / "base_cubic.anf")], "--n does not apply to --from truth-table",
                     id="convert-truth-table-n"),
    ],
)
def test_flag_that_does_nothing_exit_2(argv, message):
    """A flag the chosen family or experiment would ignore is refused, not dropped."""
    proc = run_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr
