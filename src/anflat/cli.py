"""Command-line front end.

Subcommands: analyze, find-flat, verify-flat, convert, gen, oracle,
experiment. Human output goes to stdout, diagnostics to stderr; with
--json exactly one JSON document is printed. Exit codes: 0 success, 2
input error, 3 internal verification failure, 4 negative verdict.

Every randomized command either takes a seed or draws one and prints it
to stderr; rerunning with that seed reproduces the output byte for byte.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import experiments, generators, pipeline
from .anf_core import (
    MAX_VARS,
    FunctionInput,
    anf_to_truth_table,
    format_anf,
    infer_num_vars,
    parse_anf,
    parse_truth_table,
    truth_table_to_anf,
)
from .errors import AnflatError, InconsistentError, TooLargeError, VerificationError
from .f2_linalg import Flat, load_json
from .restriction import DEFAULT_NODE_LIMIT, exhaustive_hitting_set, occurrence_counts

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_NEGATIVE = 4

SAMPLES_HELP = (
    "cap on the points the verification evaluates: a flat with at most this "
    "many points is checked at all of them; a larger one exactly on the "
    "Hamming ball of radius deg g (low-degree check) if the ball fits the "
    "cap, else on this many seeded random points (sampled check) "
    "(default: %(default)s)"
)


def _seed_arg(text: str) -> int:
    return int(text, 0)  # accepts decimal and 0x-prefixed hex


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(obj: dict, out: str | None = None) -> None:
    _write_output(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _check_var_cap(n: int) -> int:
    if n > MAX_VARS:
        raise TooLargeError(f"n = {n} exceeds the cap of {MAX_VARS} variables")
    return n


class _Given(argparse.Action):
    """Store the value and note the flag as given, so a flag that would do nothing
    can be refused by name."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {**getattr(namespace, "given", {}), self.dest: option_string}


def _refuse_unused(args, reads, where: str, notes: dict | None = None) -> None:
    """Refuse each given flag whose field is not among those `where` reads."""
    for field, flag in getattr(args, "given", {}).items():
        if field not in reads:
            note = (notes or {}).get(field, "")
            raise InconsistentError(f"{flag} does not apply to {where}{note}")


def _load_function(path: str, n_override: int | None) -> FunctionInput:
    """A JSON container when the text starts with '{', else bare ANF."""
    text = _read_input(path)
    if text.lstrip().startswith("{"):
        if n_override is not None:
            raise InconsistentError("--n does not apply to a JSON container, which states its n")
        return FunctionInput.from_json_text(text)
    n = n_override if n_override is not None else infer_num_vars(text)
    return FunctionInput(parse_anf(text, _check_var_cap(n)))


def _load_flat(path: str) -> Flat:
    text = _read_input(path)
    if text.lstrip().startswith("{"):
        return Flat.from_json_dict(load_json(text, "flat"))
    return Flat.from_text(text)


def cmd_analyze(args) -> int:
    func = _load_function(args.file, args.n)
    g = func.g
    n = g.num_vars
    occurrences = list(occurrence_counts(g).values())
    crucial = g.crucial_count()
    max_occ = max(occurrences, default=0)
    max_var = occurrences.index(max_occ) + 1 if occurrences and max_occ > 0 else None
    bound = -(-3 * crucial // n) if n else 0
    report = {
        "n": n,
        "sparsity": g.sparsity(),
        "degree": g.degree(),
        "crucial_terms": crucial,
        "occurrences": occurrences,
        "max_occurrence": max_occ,
        "max_occurrence_variable": max_var,
        "pigeonhole_bound": bound,
        "bijection": func.bijection is not None,
    }
    if args.json:
        _emit_json(report)
        return EXIT_OK
    print(f"n: {n}")
    print(f"sparsity: {g.sparsity()}")
    print(f"degree: {g.degree()}")
    print(f"crucial terms: {crucial}")
    print("occurrences:", " ".join(f"x{i + 1}={c}" for i, c in enumerate(occurrences)))
    if max_var is not None:
        print(f"max occurrence: {max_occ} (x{max_var})")
    else:
        print(f"max occurrence: {max_occ}")
    print(f"pigeonhole bound: {bound}")
    if func.bijection is not None:
        print("bijection: present (metrics describe the stored ANF g)")
    return EXIT_OK


def cmd_find_flat(args) -> int:
    func = _load_function(args.file, args.n)
    if args.epsilon is not None and not 0.0 < args.epsilon < 2.0:
        raise InconsistentError(f"epsilon = {args.epsilon} outside (0, 2)")
    report = pipeline.find_constant_flat(
        func, epsilon=args.epsilon, sample_cap=args.samples
    )
    if args.json:
        _emit_json(report.to_json_dict())
        return EXIT_OK
    print(f"dimension: {report.flat.dimension}")
    print(f"constant: {report.constant}")
    print(f"offset: {report.flat.offset.to_string()}")
    for b in report.flat.basis:
        print(f"basis: {b.to_string()}")
    trace = ", ".join(
        f"x{s.var} (crucial {s.crucial_before}, occ {s.occ})" for s in report.trace.steps
    )
    print(f"trace: {trace if trace else '(none)'}")
    print(
        f"pairs fixed: {report.dickson.t // 2}, tail: type {report.dickson.form_type}"
    )
    if report.bound_epsilon is not None:
        print(f"guaranteed dimension: {report.guaranteed_dim:g}")
    print(f"verification: {report.verification['mode']}")
    return EXIT_OK


def cmd_verify_flat(args) -> int:
    func = _load_function(args.file, args.n)
    flat = _load_flat(args.flat)
    verdict = pipeline.verify_flat(
        func, flat, claimed=args.constant, sample_cap=args.samples
    )
    negative = verdict.kind == pipeline.VERDICT_NOT_CONSTANT or (
        args.constant is not None and verdict.value not in (None, args.constant)
    )
    payload = verdict.to_json_dict()
    payload["dimension"] = flat.dimension
    if args.json:
        _emit_json(payload)
    else:
        print(f"verdict: {verdict.kind}")
        if verdict.value is not None:
            print(f"value: {verdict.value}")
        if verdict.seed is not None:
            print(f"samples: {verdict.samples} (seed {verdict.seed})")
        elif verdict.samples is not None:
            print(f"points: {verdict.samples}")
        if verdict.witness:
            for w in verdict.witness:
                print(f"witness: {w.to_string()}")
    return EXIT_NEGATIVE if negative else EXIT_OK


def cmd_convert(args) -> int:
    if args.source == "anf":
        func = _load_function(args.file, args.n)
        if func.bijection is not None:
            raise InconsistentError("convert writes g, not f = g o A^-1: give a null bijection")
        f = func.g
    else:
        _refuse_unused(args, (), "--from truth-table")
        f = truth_table_to_anf(parse_truth_table(_read_input(args.file)))
    if args.target == "anf":
        if args.json:
            _emit_json({"n": f.num_vars, "anf": format_anf(f)}, args.out)
        else:
            _write_output(format_anf(f) + "\n", args.out)
    else:
        table = (anf_to_truth_table(f) + ord("0")).tobytes().decode()
        if args.json:
            _emit_json({"n": f.num_vars, "truth_table": table}, args.out)
        else:
            _write_output(table + "\n", args.out)
    return EXIT_OK


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "little")
        print(f"seed: {seed}", file=sys.stderr)
    return seed


def _sample(args, s: float, scale: float):
    """rand3-half or rand3-sparse; the seed drawn when none was given goes into args."""
    if args.seed is not None and args.seed < 0:
        raise InconsistentError(f"--seed {args.seed} is negative")
    args.seed = _resolve_seed(args.seed)
    cfg = generators.Degree3SamplerConfig(n=args.n, s=s, seed=args.seed, inclusion_scale=scale)
    return generators.random_degree3_sparse(cfg)


# gen family -> (the fields it reads, its builder); its --json document echoes them
GEN_FAMILIES = {
    "majority": (("n",), lambda args: generators.majority(args.n)),
    "all-ones": (("n",), lambda args: generators.all_ones_indicator(args.n)),
    "prop6": ((), lambda args: generators.prop6_base()),
    "prop6-family": (("m",), lambda args: generators.prop6_family(args.m)),
    "complete3": (("n",), lambda args: generators.complete_degree3(args.n)),
    "rand3-half": (("n", "seed"), lambda args: _sample(args, *generators.RAND3_HALF)),
    "rand3-sparse": (("n", "s", "inclusion_scale", "seed"),
                     lambda args: _sample(args, args.s, args.inclusion_scale)),
}


def cmd_gen(args) -> int:
    reads, build = GEN_FAMILIES[args.family]
    _refuse_unused(args, reads, args.family)
    for field in ("n", "s"):
        if field in reads and getattr(args, field) is None:
            raise InconsistentError(f"{args.family} needs --{field}")
    if args.n is not None:
        _check_var_cap(args.n)
    f = build(args)
    meta = {"family": args.family, **{field: getattr(args, field) for field in reads},
            "n": f.num_vars, "anf": format_anf(f)}
    if args.json:
        _emit_json(meta, args.out)
    else:
        _write_output(format_anf(f) + "\n", args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.kind != "hitting-set":
        _refuse_unused(args, (), f"oracle {args.kind}")
    func = _load_function(args.file, args.n)
    g = func.g
    if args.kind == "normality":
        value, flat = pipeline.brute_force_normality(g)
        report = {"kind": "normality", "normality": value, "flat": flat.to_json_dict()}
        human = [f"normality: {value}", f"flat offset: {flat.offset.to_string()}"] + [
            f"flat basis: {b.to_string()}" for b in flat.basis
        ]
    elif args.kind == "thickness":
        value = pipeline.brute_force_thickness(g)
        report = {"kind": "thickness", "thickness": value}
        human = [f"thickness: {value}"]
    else:
        result = exhaustive_hitting_set(g, budget=args.budget, node_limit=args.node_limit)
        if result is None:
            report = {"kind": "hitting-set", "optimum": None, "variables": None}
            human = ["optimum: exceeds budget"]
        else:
            variables = sorted(result)
            report = {
                "kind": "hitting-set",
                "optimum": len(variables),
                "variables": variables,
            }
            human = [
                f"optimum: {len(variables)}",
                "variables: " + " ".join(f"x{v}" for v in variables),
            ]
        if args.budget is not None:
            report["budget"] = args.budget
    if args.json:
        _emit_json(report)
    else:
        for line in human:
            print(line)
    return EXIT_OK


# why a run refuses the field: only the disperser kinds read no family, and
# only rand3-half no s or scale
_HALF = "; rand3-half takes no s or scale: it keeps each monomial with probability 1/2"
_EXPERIMENT_NOTES = {"family": "; a disperser kind takes no family: it samples rand3-sparse",
                     "s": _HALF, "inclusion_scale": _HALF}


def cmd_experiment(args) -> int:
    if args.threads < 1:
        raise InconsistentError("--threads must be at least 1")
    _refuse_unused(args, experiments.fields_read(args.kind, args.family), args.kind,
                   _EXPERIMENT_NOTES)
    cfg = experiments.ExperimentConfig(
        kind=args.kind,
        n=args.n,
        trials=args.trials,
        master_seed=_resolve_seed(args.master_seed),
        s=args.s,
        k=args.k,
        flats_per_trial=args.flats_per_trial,
        restrictions_per_trial=args.restrictions_per_trial,
        family=args.family,
        inclusion_scale=args.inclusion_scale,
    )
    report = experiments.run_experiment(cfg)
    print(f"wall clock: {report.wall_clock:.3f}s", file=sys.stderr)
    _write_output(report.to_json_text(), args.out)
    if args.csv is not None:
        Path(args.csv).write_text(report.to_csv_text())
    return EXIT_OK


def _add_function_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="input file, or '-' for stdin: a JSON container if it "
                   "starts with '{', else bare ANF")
    p.add_argument("--n", type=int, default=None, help="variable count for bare ANF input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anflat",
        description="Boolean function analysis over GF(2): ANF metrics, "
        "constant-flat search, exhaustive oracles, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="ANF metrics: sparsity, degree, occurrences")
    _add_function_input_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("find-flat", help="find a verified flat on which f is constant")
    _add_function_input_args(p)
    p.add_argument("--epsilon", type=float, default=None, help="exponent for the dimension floor")
    p.add_argument("--samples", type=int, default=pipeline.DEFAULT_SAMPLE_CAP, help=SAMPLES_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_find_flat)

    p = sub.add_parser("verify-flat", help="check a claimed constant flat")
    _add_function_input_args(p)
    p.add_argument("--flat", required=True, help="flat file (text or JSON)")
    p.add_argument("--constant", type=int, choices=[0, 1], default=None)
    p.add_argument("--samples", type=int, default=pipeline.DEFAULT_SAMPLE_CAP, help=SAMPLES_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_flat)

    p = sub.add_parser("convert", help="convert between ANF and truth table")
    p.add_argument("file", help="input file, or '-' for stdin")
    p.add_argument("--from", dest="source", choices=["anf", "truth-table"], required=True)
    p.add_argument("--to", dest="target", choices=["anf", "truth-table"], required=True)
    p.add_argument("--n", type=int, default=None, action=_Given)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gen", help="generate a named function family")
    p.add_argument("family", choices=list(GEN_FAMILIES))
    p.add_argument("--n", type=int, default=None, action=_Given)
    p.add_argument("--m", type=int, default=1, action=_Given,
                   help="blocks parameter for prop6-family")
    p.add_argument("--s", type=float, default=None, action=_Given,
                   help="sparsity exponent for rand3-sparse")
    p.add_argument("--scale", type=float, default=generators.DEFAULT_SCALE, action=_Given,
                   dest="inclusion_scale", metavar="SCALE", help="inclusion probability scale")
    p.add_argument("--seed", type=_seed_arg, default=None, action=_Given, help="decimal or 0x hex")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="exact small-n oracles")
    p.add_argument("kind", choices=["normality", "thickness", "hitting-set"])
    _add_function_input_args(p)
    p.add_argument("--budget", type=int, default=None, action=_Given,
                   help="hitting-set size budget")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT, action=_Given)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="seed-deterministic Monte Carlo runs")
    p.add_argument("kind", choices=list(experiments.KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=None, action=_Given)
    p.add_argument("--k", type=int, default=None, action=_Given)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--flats-per-trial", type=int, default=None, action=_Given)
    p.add_argument("--restrictions-per-trial", type=int, default=None, action=_Given)
    p.add_argument("--family", choices=list(experiments.KINDS[experiments.KIND_SAMPLER].families),
                   default=None, action=_Given)
    p.add_argument("--scale", type=float, default=None, action=_Given, dest="inclusion_scale",
                   metavar="SCALE")
    p.add_argument("--master-seed", type=_seed_arg, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--threads", type=int, default=1, help="worker cap (runs are serial today)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (AnflatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
