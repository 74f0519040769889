"""The benchmark's workloads: generated inputs, output checks, traced replays.

A workload makes a fixed list of ops from the workload seed; one pass of the
benchmark's timed loop runs the whole list. Each op is one `anflat` command
line plus what its check needs to know. anflat is imported inside the
functions here, never at module level, so that this module loads before the
benchmark has put anflat's sources on the path. Why each workload was chosen
is recorded in spec.json beside this file, and so is the length of each list.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional

import numpy as np

import oracle

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())


def derive_seed(*parts) -> int:
    """A 64-bit seed determined by the parts, e.g. workload seed, name and op index."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    id: str
    argv: list[str]
    seed: int
    n: int = 0
    path: Optional[Path] = None
    masks: tuple[int, ...] = ()
    bijection: Optional[tuple[tuple[int, ...], int]] = None  # (matrix rows, offset) of A


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class FindFlat:
    """One op is `find-flat --json` on a generated function; see spec.json."""

    CHECK_POINTS = 256  # sampled flat points checked when the flat has over 2^12 points

    def __init__(self, name: str, pool: int, make_input):
        self.name = name
        self.pool = pool
        self._make_input = make_input

    def prepare(self, seed: int, workdir: Path, tracer) -> list[Op]:
        ops = []
        for i in range(self.pool):
            op_id = f"{self.name}-{i}"
            ops.append(self._make_input(op_id, derive_seed(seed, self.name, i), workdir, tracer))
        return ops

    def check(self, op: Op, rc: int, out: str) -> int:
        """Raise CheckFailed unless the output is right; return the flat's dimension."""
        from anflat.f2_linalg import Flat

        _expect(rc == 0, f"exit code {rc}")
        report = json.loads(out)
        dickson = report["dickson"]
        expected = op.n - len(report["trace"]) - dickson["t"] // 2 - (dickson["type"] == "II")
        _expect(report["dimension"] == expected,
                f"dimension {report['dimension']} != n - steps - t/2 - [type II] = {expected}")
        flat = Flat.from_json_dict(report)  # rejects a dependent basis
        _expect(flat.ambient == op.n, f"flat lives in F2^{flat.ambient}, not F2^{op.n}")
        _expect(flat.dimension == report["dimension"], "basis size differs from dimension")
        constant = report["constant"]
        _expect(report["verification"]["value"] == constant, "verification value differs")

        if op.bijection is not None:
            rows, offset = op.bijection
            inverse = oracle.invert(rows, op.n)
        basis = [b.bits for b in flat.basis]
        k = len(basis)
        if k <= 12:
            indices = range(1 << k)
        else:
            rng = random.Random(op.seed)
            indices = [rng.getrandbits(k) for _ in range(self.CHECK_POINTS)]
        for index in indices:
            x = oracle.span_point(flat.offset.bits, basis, index)
            if op.bijection is not None:
                x = oracle.matvec(inverse, x ^ offset)  # f(x) = g(A^-1 x)
            _expect(oracle.evaluate(op.masks, x) == constant,
                    f"f is not {constant} at flat point {index}")
        return k

    @staticmethod
    def corrupt(out: str) -> dict[str, str]:
        report = json.loads(out)
        report["constant"] ^= 1
        report["verification"]["value"] ^= 1
        return {"flipped constant": json.dumps(report), "truncated stdout": out[: len(out) // 2]}

    def replay(self, op: Op, tracer) -> None:
        """Each stage of the op as a call to anflat's public functions, one span each."""
        from anflat import anf_core, pipeline, quadratic, restriction

        text = op.path.read_text()
        with tracer.span("anf_core.parse", op.id):
            if op.bijection is None:
                func = anf_core.FunctionInput(anf_core.parse_anf(text, op.n))
            else:
                func = anf_core.FunctionInput.from_json_text(text)
        with tracer.span("restriction.greedy", op.id) as span:
            state = restriction.greedy_restrict(func.g, restriction.UntilNoCrucial())
            span.counts["steps"] = len(state.trace)
        alive = sorted(state.alive)
        with tracer.span("quadratic.dickson", op.id) as span:
            residual = anf_core.reindex(state.current, alive)
            quadratic.dickson_decompose(residual)
        support = 0
        for m in residual.terms:
            support |= m
        span.counts.update(input_vars=len(alive), support_vars=support.bit_count())
        with tracer.span("pipeline.find_flat", op.id):
            report = pipeline.find_constant_flat(func)
        with tracer.span("pipeline.verify", op.id) as span:
            verdict = pipeline.verify_flat(func, report.flat, report.constant)
        exact = verdict.kind == pipeline.VERDICT_CONSTANT
        points = (1 << report.flat.dimension) if exact else verdict.samples
        span.counts.update(points=points, exact=int(exact))
        if func.bijection is not None:
            with tracer.span("f2_linalg.map", op.id):
                report.flat.map_through(func.bijection.inverse())
        # the evaluation kernel alone, on as many (random) points as verify used
        rng = np.random.Generator(np.random.PCG64(op.seed))
        nbytes = (points + 7) // 8
        packed = np.frombuffer(rng.bytes(nbytes * op.n), dtype=np.uint8).reshape(nbytes, op.n)
        with tracer.span("anf_core.eval", op.id, points=points):
            anf_core.evaluate_packed_columns(func.g, packed)


def _cubic64_input(op_id: str, seed: int, workdir: Path, tracer) -> Op:
    """rand3-sparse g on 64 variables behind a random affine bijection."""
    from anflat import generators
    from anflat.anf_core import FunctionInput
    from anflat.f2_linalg import random_affine_map

    n = 64
    cfg = generators.Degree3SamplerConfig(n=n, s=2.0, seed=seed, inclusion_scale=0.5)
    with tracer.span("generators.sample", "setup-" + op_id) as span:
        g = generators.random_degree3_sparse(cfg)
        span.counts["terms"] = g.sparsity()
    bijection = random_affine_map(n, np.random.Generator(np.random.PCG64(derive_seed(seed, "A"))))
    path = workdir / f"{op_id}.json"
    path.write_text(json.dumps(FunctionInput(g, bijection).to_json_dict()))
    return Op(
        id=op_id, argv=["find-flat", str(path), "--json"], seed=seed, n=n, path=path,
        masks=tuple(g.terms),
        bijection=(bijection.matrix.row_bits, bijection.offset.bits),
    )


def _wide1000_input(op_id: str, seed: int, workdir: Path, tracer) -> Op:
    """rand3-sparse cubic plus random quadratic and linear parts on x1..x24, n = 1000."""
    from anflat import generators
    from anflat.anf_core import Anf, format_anf

    support, n = 24, 1000
    cfg = generators.Degree3SamplerConfig(n=support, s=2.0, seed=seed, inclusion_scale=0.5)
    with tracer.span("generators.sample", "setup-" + op_id) as span:
        g = generators.random_degree3_sparse(cfg)
        span.counts["terms"] = g.sparsity()
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "low-degree")))
    pairs = [(1 << a) | (1 << b) for a, b in combinations(range(support), 2)]
    masks = set(g.terms)
    masks.update(m for m, u in zip(pairs, rng.random(len(pairs))) if u < 0.5)
    masks.update(1 << i for i, u in enumerate(rng.random(support)) if u < 0.5)
    path = workdir / f"{op_id}.anf"
    path.write_text(format_anf(Anf(support, frozenset(masks))) + "\n")
    return Op(
        id=op_id, argv=["find-flat", str(path), "--json", "--n", str(n)], seed=seed, n=n,
        path=path, masks=tuple(masks),
    )


class Disperser:
    """One op is the acceptance-09 disperser-flats run under its own master seed."""

    N, S, K, TRIALS, FLATS = 12, 2.5, 3, 100, 50
    INCLUSION_SCALE = 0.5  # the documented default for disperser-flats

    def __init__(self, name: str, pool: int):
        self.name = name
        self.pool = pool

    def prepare(self, seed: int, workdir: Path, tracer) -> list[Op]:
        ops = []
        for i in range(self.pool):
            master = derive_seed(seed, self.name, i)
            argv = [
                "experiment", "disperser-flats", "--n", str(self.N), "--s", str(self.S),
                "--k", str(self.K), "--trials", str(self.TRIALS),
                "--flats-per-trial", str(self.FLATS), "--threads", "2",
                "--master-seed", str(master),
            ]
            ops.append(Op(id=f"{self.name}-{i}", argv=argv, seed=master, n=self.N))
        return ops

    def check(self, op: Op, rc: int, out: str) -> int:
        """Raise CheckFailed unless the output is right; return the checked flats' dimension."""
        _expect(rc == 0, f"exit code {rc}")
        report = json.loads(out)
        config, aggregate = report["config"], report["aggregate"]
        _expect(config["master_seed"] == op.seed and config["k"] == self.K, "config echo differs")
        _expect(aggregate["pairs"] == self.TRIALS * self.FLATS, f"pairs = {aggregate['pairs']}")
        p = self.INCLUSION_SCALE / (self.N ** (3.0 - self.S))
        replay = oracle.replay_disperser_flats(op.seed, self.TRIALS, self.FLATS, self.N, self.K, p)
        got = [(o["seed"], o["sparsity"], o["constant_flats"]) for o in report["outcomes"]]
        _expect(got == replay, "per-trial outcomes differ from the replay")
        recount = sum(row[2] for row in replay)
        _expect(aggregate["constant_pairs"] == recount,
                f"constant_pairs {aggregate['constant_pairs']} != recount {recount}")
        return config["k"]

    @staticmethod
    def corrupt(out: str) -> dict[str, str]:
        report = json.loads(out)
        report["aggregate"]["constant_pairs"] += 1
        return {"constant_pairs off by one": json.dumps(report),
                "truncated stdout": out[: len(out) // 2]}

    def replay(self, op: Op, tracer) -> None:
        """run_experiment, then every trial again stage by stage."""
        from anflat import anf_core, experiments, generators

        cfg = experiments.ExperimentConfig(
            kind=experiments.KIND_FLATS, n=self.N, trials=self.TRIALS, master_seed=op.seed,
            s=self.S, k=self.K, flats_per_trial=self.FLATS,
        )
        with tracer.span("experiments.run", op.id):
            experiments.run_experiment(cfg)
        p = cfg.inclusion_probability()
        for i in range(self.TRIALS):
            rng = np.random.Generator(np.random.PCG64(experiments.stable_seed(op.seed, i)))
            with tracer.span("generators.sample", op.id) as span:
                f = generators.sample_degree3_with_rng(self.N, p, rng)
                span.counts["terms"] = f.sparsity()
            for _ in range(self.FLATS):
                with tracer.span("experiments.random_flat", op.id):
                    flat = experiments.random_flat(self.N, self.K, rng)
                with tracer.span("anf_core.eval", op.id, points=1 << self.K):
                    anf_core.evaluate_on_points(f, anf_core.flat_points_matrix(flat))


_PASS = {name: w["ops_per_pass"] for name, w in SPEC["workloads"].items()}
WORKLOADS = {
    w.name: w
    for w in (
        FindFlat("flat-cubic64", pool=_PASS["flat-cubic64"], make_input=_cubic64_input),
        FindFlat("flat-wide1000", pool=_PASS["flat-wide1000"], make_input=_wide1000_input),
        Disperser("disperser-k3", pool=_PASS["disperser-k3"]),
    )
}
