"""Closed-loop benchmark of the anflat command line.

    python3 perfbench/run.py                                    # every workload
    python3 perfbench/run.py --workload flat-cubic64 --seed 7 --seconds 30 --trace 0

One client runs one op at a time: each op calls `anflat.cli.main(argv)` in
this process with stdout captured, and the next op starts when it returns.
Inputs come from `--seed` only. Each workload has a fixed list of ops, so
every commit is measured on the same inputs: the untraced run goes through
the list in whole passes and starts another pass only while it is predicted
to end within `--seconds` (one pass always runs; the lists are sized so that
one pass takes most of BENCHMARK.json's run_seconds at the commit that added
the benchmark). Each output is checked as soon as its op returns, outside
the timed interval, and then dropped, so memory use does not grow with the
number of ops.

With `--trace 1` each op runs inside a span, and its stages are then replayed
through anflat's public functions, one span each, to give the per-layer
metrics; the replay also runs once with spans switched off, which gives the
tracing overhead. Ops run until the next one is predicted to end past
`--seconds`. Without `--workload` each workload runs in a child process of
its own, so set-up time and peak memory belong to that workload.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Metric names and units come from
BENCHMARK.json at the repository root; perfbench/spec.json says what each
one is for. A record of the run, with the machine it ran on and the spans of
a traced run, goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

import workloads
from tracing import NULL_TRACER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 5
CHILD_TIMEOUT_S = 900

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = workloads.SPEC


def run_op(argv: list[str]) -> tuple[int, str, float, str]:
    """One op: (exit code, stdout, wall seconds, stderr or traceback)."""
    cli = sys.modules["anflat.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash counts as a failed op; the run goes on
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), time.perf_counter() - start, err.getvalue()


def set_up(workload, seed: int, workdir: Path, tracer) -> tuple[list, list[float]]:
    """Import anflat in a fresh interpreter and write the inputs, SETUP_ROUNDS times.

    A round is the wall time of `import anflat.cli` in a new Python process
    plus generating and writing the workload's inputs in this one. The
    inputs of the last round are the ones the run uses.
    """
    import anflat.cli  # noqa: F401  (the ops call it in this process)

    probe = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import anflat.cli"]
    rounds = []
    for r in range(SETUP_ROUNDS):
        start = time.perf_counter()
        subprocess.run(probe, check=True)
        ops = workload.prepare(seed, workdir, tracer if r == SETUP_ROUNDS - 1 else NULL_TRACER)
        rounds.append(time.perf_counter() - start)
    return ops, rounds


def nearest_rank(samples: list[float], percentile: float) -> float:
    ordered = sorted(samples)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


class Checker:
    """Checks each op's output as it comes and keeps only the verdicts."""

    def __init__(self, workload):
        self.workload = workload
        self.failures: list[tuple[str, str]] = []
        self.dims: list[int] = []
        self.self_test: dict[str, str] = {}

    def check(self, op, rc: int, out: str, err: str, replay_error: str | None = None) -> None:
        try:
            dim = self.workload.check(op, rc, out)
            if replay_error is not None:
                raise RuntimeError("replay: " + replay_error)
        except Exception as exc:  # any malformed output is a failed op, not a crash
            reason = f"{type(exc).__name__}: {exc}"
            if err.strip():
                reason += f" [stderr: {err.strip().splitlines()[-1]}]"
            self.failures.append((op.id, reason))
            return
        self.dims.append(dim)
        if not self.self_test:
            self.self_test = self._corrupt_and_check(op, out)

    def _corrupt_and_check(self, op, out: str) -> dict[str, str]:
        """Pass corrupted copies of a good output through the check; each must fail."""
        outcomes = {}
        for label, bad in self.workload.corrupt(out).items():
            try:
                self.workload.check(op, 0, bad)
                outcomes[label] = "ACCEPTED"
            except Exception as exc:
                outcomes[label] = f"counted as failed ({type(exc).__name__}: {str(exc)[:80]})"
        return outcomes

    @property
    def self_test_ok(self) -> bool:
        return bool(self.self_test) and all(
            v.startswith("counted as failed") for v in self.self_test.values())


def timed_passes(ops, seconds: float, checker: Checker) -> list[list[float]]:
    """Whole passes over the ops; the seconds of each op, per pass.

    Only the `cli.main` calls are timed. Another pass starts while the
    timed seconds so far plus one more pass of average length stay within
    `seconds`.
    """
    passes: list[list[float]] = []
    while True:
        latencies = []
        for op in ops:
            rc, out, dt, err = run_op(op.argv)
            latencies.append(dt)
            checker.check(op, rc, out, err)
        passes.append(latencies)
        spent = sum(map(sum, passes))
        if spent + spent / len(passes) > seconds:
            return passes


def traced_ops(workload, ops, seconds: float, tracer: Tracer, checker: Checker):
    """Ops in a span each, then their replays; (traced, untraced) replay seconds per op."""
    replay_s = []
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        with tracer.span("cli.main", op.id) as span:
            rc, out, _, err = run_op(op.argv)
            span.counts["stdout_bytes"] = len(out)
        replay_error = None
        timings = {}
        # alternate which replay goes first, so neither always finds warm caches
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            try:
                workload.replay(op, tracer if on else NULL_TRACER)
            except Exception:  # reported as a failed op
                replay_error = traceback.format_exc().strip().splitlines()[-1]
            timings[on] = time.perf_counter() - t0
        replay_s.append((timings[True], timings[False]))
        checker.check(op, rc, out, err, replay_error)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:
            return replay_s


def layer_metrics(tracer: Tracer, replay_s: list[tuple[float, float]]) -> dict[str, float]:
    """Per-op medians of span times and counters, per layer."""
    rows = list(tracer.per_op().values())

    def having(name):
        return [r for r in rows if name in r]

    def med(name, counter=None):
        key = name if counter is None else f"{name}:{counter}"
        values = [r[key] for r in having(name)]
        return statistics.median(values) if values else 0.0

    def total(name, counter=None):
        key = name if counter is None else f"{name}:{counter}"
        return sum(r[key] for r in having(name))

    def ratio(num, den):
        return num / den if den else 0.0

    def self_time(parent, children):
        values = [r[parent] - sum(r.get(c, 0.0) for c in children) for r in having(parent)]
        return statistics.median(values) if values else 0.0

    return {
        "pipeline.verify_s": med("pipeline.verify"),
        "pipeline.verify_points": med("pipeline.verify", "points"),
        "pipeline.verify_exact_frac": ratio(
            total("pipeline.verify", "exact"), total("pipeline.verify", "spans")),
        "pipeline.find_flat_s": med("pipeline.find_flat"),
        "pipeline.construct_s": self_time(
            "pipeline.find_flat", ["restriction.greedy", "quadratic.dickson", "pipeline.verify"]),
        "quadratic.dickson_s": med("quadratic.dickson"),
        "quadratic.input_vars": med("quadratic.dickson", "input_vars"),
        "quadratic.support_vars": med("quadratic.dickson", "support_vars"),
        "quadratic.support_ratio": ratio(
            total("quadratic.dickson", "support_vars"), total("quadratic.dickson", "input_vars")),
        "restriction.greedy_s": med("restriction.greedy"),
        "restriction.steps": med("restriction.greedy", "steps"),
        "f2_linalg.map_s": med("f2_linalg.map"),
        "anf_core.parse_s": med("anf_core.parse"),
        "anf_core.eval_s": med("anf_core.eval"),
        "anf_core.eval_calls": med("anf_core.eval", "spans"),
        "anf_core.points_evaluated": med("anf_core.eval", "points"),
        "anf_core.points_per_s": ratio(total("anf_core.eval", "points"), total("anf_core.eval")),
        "experiments.run_s": med("experiments.run"),
        "experiments.random_flat_s": med("experiments.random_flat"),
        "experiments.flats_checked": med("experiments.random_flat", "spans"),
        "experiments.flats_per_s": ratio(
            total("experiments.random_flat", "spans"), total("experiments.run")),
        "experiments.other_s": self_time(
            "experiments.run", ["generators.sample", "experiments.random_flat", "anf_core.eval"]),
        "generators.sample_s": med("generators.sample"),
        "generators.terms_sampled": med("generators.sample", "terms"),
        "cli.overhead_s": self_time(
            "cli.main", ["anf_core.parse", "pipeline.find_flat", "experiments.run"]),
        "cli.stdout_bytes": med("cli.main", "stdout_bytes"),
        "tracing.overhead_frac": (sum(t for t, _ in replay_s) / sum(u for _, u in replay_s)) - 1.0,
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else NULL_TRACER
    checker = Checker(workload)
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=name + "-", dir=HERE / "work"))
    try:
        ops, setup_rounds = set_up(workload, seed, workdir, tracer)
        start = time.perf_counter()
        if trace:
            setup_spans = len(tracer.spans)
            replay_s = traced_ops(workload, ops, seconds, tracer, checker)
            attempted = len(replay_s)
        else:
            passes = timed_passes(ops, seconds, checker)
            attempted = sum(map(len, passes))
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = checker.failures
    facts = machine_facts(seed)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  ops {attempted}  "
          f"loop with checks {wall:.2f}s")
    print("machine " + "  ".join(f"{k} {v}" for k, v in facts.items() if k != "seed"))
    print("setup rounds (s): " + " ".join(f"{t:.4f}" for t in setup_rounds))
    for op_id, reason in failures:
        print(f"FAILED {op_id}: {reason}")
    for label, outcome in (checker.self_test or {"corrupted outputs": "not run: no op passed"}).items():
        print(f"self-test {label}: {outcome}")

    notes = {
        "ok_frac": f"failed_frac {len(failures) / attempted:.4g} = {len(failures)}/{attempted}",
        "setup_s": f"median of {SETUP_ROUNDS} rounds",
    }
    samples = {"ops": attempted}
    record = {"workload": name, "trace": trace, "seconds": seconds, "machine": facts,
              "setup_rounds_s": setup_rounds}
    if trace:
        values = layer_metrics(tracer, replay_s)
        specs = BENCH["per_layer"]
        op_s = statistics.median(r["cli.main"] for r in tracer.per_op().values() if "cli.main" in r)
        for spec in specs:
            if spec["unit"] == "s":
                notes[spec["name"]] = f"{100 * values[spec['name']] / op_s:.1f}% of cli.main"
        spans = (len(tracer.spans) - setup_spans) / attempted
        notes["tracing.overhead_frac"] = f"replay of {attempted} ops with vs without {spans:.0f} spans each"
        record["replay_s"] = replay_s
    else:
        tail_pct = SPEC["workloads"][name]["tail_percentile"]
        latencies = [dt for p in passes for dt in p]
        samples.update(passes=len(passes), ops_per_pass=len(ops), tail_percentile=tail_pct)
        values = {
            "throughput_ops_s": attempted / sum(latencies),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_tail_ms": 1000.0 * statistics.median(
                nearest_rank(p, tail_pct) for p in passes),
            "ok_frac": 1.0 - len(failures) / attempted,
            "flat_dim_mean": statistics.fmean(checker.dims) if checker.dims else 0.0,
            "setup_s": statistics.median(setup_rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        specs = BENCH["end_to_end"]
        notes["throughput_ops_s"] = f"{attempted} ops / {sum(latencies):.2f}s in cli.main"
        notes["latency_p50_ms"] = f"median of {attempted} ops"
        notes["latency_tail_ms"] = (f"p{tail_pct:g} of each pass of {len(ops)} ops, "
                                    f"median of {len(passes)} passes")
        record["latencies_s"] = passes
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = notes.get(spec["name"], "")
        derived = SPEC["metrics"][spec["name"]].get("derived")
        if derived:
            note = f"{note}  derived: {derived}".strip()
        print(f"{spec['name']:28s} {value:14.6g} {spec['unit']:8s} {note}")

    record.update(samples=samples, failures=failures, self_test=checker.self_test,
                  metrics=metrics)
    if trace:
        record["spans"] = tracer.to_json_list()
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not failures and checker.self_test_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own; print its lines, then a summary."""
    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, result))
    print("\nsummary (seed %d, trace %d)" % (args.seed, args.trace))
    for name, result in rows:
        print(f"  {name}: correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed")
        for metric, m in result["metrics"].items():
            print(f"    {metric:28s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), default=None,
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                        help="time box of the measured loop (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "anflat" / "cli.py").is_file():
        print(f"error: anflat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
