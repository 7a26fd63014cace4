"""kryblur benchmark: one workload, measured end to end or layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: gmres-reflective-512, fgmres-driver-128, shortrec-zero-256 (see
perfbench/README.md for why each exists).  The package is imported from the
checkout's ``src/``; without it the script exits with code 2 and prints no
result.

A run warms up, then repeats rounds of (set-up, solve pass, checks) for about
``--seconds`` seconds.  ``--trace 0`` times the rounds with no tracing and
reports the end-to-end metrics (``solve_s`` sums the lower quartile of each
part of a pass; see ``quiet_pass``); ``--trace 1`` traces every layer boundary
and reports the per-layer metrics, plus the tracing overhead measured against
an untraced pass in the same round.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details (metadata,
per-round samples, per-method readings, and for traced runs the spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Native thread pools are pinned to one thread: one benchmark process, fewer
#: threads than cores, and no oversubscription on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups per round; setup_s is the median over all of them.
SETUP_REPEATS = 3

# name -> unit.  END_TO_END_GATED is what the final JSON line reports with
# --trace 0 (the metrics BENCHMARK.json bounds); the rest are printed only.
END_TO_END = {
    "setup_s": "s", "solve_s": "s", "iters_per_s": "1/s", "peak_mem_mb": "MB",
    "rre_best": "ratio", "rre_dp": "ratio", "dp_iter": "count",
    "res_drift": "ratio", "error_rate": "ratio",
}
END_TO_END_GATED = ("setup_s", "solve_s", "peak_mem_mb", "rre_best", "rre_dp",
                    "dp_iter")
PER_LAYER = {
    "operators.blur.calls": "count",
    "operators.blur.s": "s",
    "operators.blur.ms_per_call": "ms",
    "operators.flip.s": "s",
    "operators.blur.gflop_computed": "GFLOP",
    "operators.blur.gb_computed": "GB",
    "preconditioners.apply.calls": "count",
    "preconditioners.apply.s": "s",
    "preconditioners.build.calls": "count",
    "preconditioners.build.s": "s",
    "solvers.s": "s",
    "solvers.self_s": "s",
    "solvers.self_frac": "ratio",
    "solvers.iterations": "count",
    "solvers.n_ops": "count",
    "solvers.useful_apply_frac": "ratio",
    "metrics.calls": "count",
    "metrics.s": "s",
    "problems.setup.s": "s",
    "problems.artifacts.s": "s",
    "problems.artifacts.bytes": "bytes",
    "problems.driver_self.s": "s",
    "problems.iterates_kept_mb": "MB",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _import_package():
    """Import kryblur from this checkout's src/, or explain why not."""
    src = ROOT / "src"
    if not (src / "kryblur" / "__init__.py").is_file():
        raise ImportError(f"no kryblur package under {src}")
    sys.path.insert(0, str(src))
    import kryblur
    import kryblur.cli  # noqa: F401 - imports every layer but spectral's callers

    if Path(kryblur.__file__).resolve().parent != (src / "kryblur").resolve():
        raise ImportError(f"kryblur imported from {kryblur.__file__}, not {src}")
    return kryblur


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "kryblur").glob("*.py")))
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "seed": seed,
        "src_lines": src_lines,
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10                     # ten samples lie above position rank-1
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def lower_quartile(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def quiet_pass(method_s: dict[str, list[float]], rest_s: list[float]) -> float:
    """Time of one pass on a quiet core: the sum, over the pass's parts (every
    method's solve, and the rest of the pass: driver, artifacts), of the lower
    quartile of that part's runs.

    The work of a part is fixed, so what slows one of its runs is other load on
    the host, which comes and goes in spells of seconds and differs between
    cores.  Taken part by part, the lower quartile reads the runs that met a
    quiet spell, which a whole pass of several seconds rarely gets, without
    resting on the single luckiest run.
    """
    return (sum(lower_quartile(v) for v in method_s.values())
            + (lower_quartile(rest_s) if rest_s else 0.0))


def blur_cost(operator) -> tuple[float, float]:
    """Computed (flop, byte) cost of one blur apply, from the frequency grid
    the operator multiplies: forward transform, pointwise product, inverse
    transform (5 m log2 m flop each way, 6 flop per complex product), one
    read and one write per stage, plus the real field of view in and out.
    Caches are ignored, so the bytes are computed, not measured."""
    import numpy as np

    grid = getattr(operator, "_kernel_hat", None)
    if grid is None:
        grids = [v for v in vars(operator).values()
                 if isinstance(v, np.ndarray) and np.iscomplexobj(v) and v.ndim == 2]
        if not grids:
            raise ValueError("cannot find the blur operator's frequency grid")
        grid = max(grids, key=lambda g: g.size)
    m = grid.size
    flop = 2 * 5.0 * m * math.log2(m) + 6.0 * m
    nbytes = (2 * 2 + 3) * 16.0 * m + 2 * 8.0 * operator.size
    return flop, nbytes


class Runner:
    """Runs one workload for a time budget and reduces what it measured."""

    def __init__(self, kryblur, workload, seconds: float, trace: bool):
        self.kryblur = kryblur
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.tracer = None
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []
        self.plain_s: list[float] = []
        self.iters_per_s: list[float] = []
        self.method_s: dict[str, list[float]] = {}
        self.rest_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.readings: dict = {}
        self.layer_rounds: list[dict] = []
        self.first_pass_s = math.nan
        self.reference_hashes = None
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else [])

    def _pin(self, index: int):
        """Run round ``index`` on one CPU, taking the allowed CPUs in turn.

        On a shared host a neighbour can slow one core for tens of seconds
        while another stays quiet; rounds spread over every core the process
        may use give each part of the pass a run on a quiet one.
        """
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[index % len(self.cpus)]})

    def _setup(self):
        for _ in range(SETUP_REPEATS):
            state = None
            start = time.perf_counter()
            state = self.wl.setup()
            self.setup_s.append(time.perf_counter() - start)
        return state

    def _solve(self, state, iters=None):
        self.wl.clear()
        start = time.perf_counter()
        solved = self.wl.solve(state, iters)
        elapsed = time.perf_counter() - start
        self.wl.inspect_artifacts(solved)
        return solved, elapsed

    def _check(self, state, solved):
        readings = self.wl.readings(state, solved)
        for name, ok in self.wl.checks(state, solved, readings,
                                       self.reference_hashes):
            self.attempted += 1
            if not ok and name not in self.failures:
                self.failures.append(name)
            self.failed += not ok
        self.readings = readings

    def warm_up(self):
        """Fill FFT plans, import-time caches and allocator pools untimed.
        Its artifacts are the reference for the byte-identity check."""
        state = self.wl.setup()
        solved, self.first_pass_s = self._solve(state, self.wl.warm_up_iters)
        self.reference_hashes = solved.artifact_hashes

    def run(self):
        self.warm_up()
        if self.trace:
            from tracer import Tracer, install

            self.tracer = Tracer()
            install(self.tracer, self.kryblur)
        start = time.perf_counter()
        round_s: list[float] = []
        min_rounds = 1 if self.trace else 2
        while True:
            self._pin(len(round_s))
            began = time.perf_counter()
            self._round(len(round_s))
            round_s.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if (len(round_s) >= min_rounds
                    and elapsed + statistics.median(round_s) > self.seconds):
                break
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)

    def _round(self, index: int):
        if not self.trace:
            state = self._setup()
            solved, elapsed = self._solve(state)
            self.solve_s.append(elapsed)
            iterations = sum(r.record.iterations for r in solved.results if r.record)
            self.iters_per_s.append(iterations / elapsed)
            for res in solved.results:
                self.method_s.setdefault(res.label, []).append(res.wall_s)
            self.rest_s.append(max(0.0, elapsed - sum(r.wall_s for r in solved.results)))
            self._check(state, solved)
            return
        tracer = self.tracer
        tracer.run = f"{index}/setup"
        state = self.wl.setup()
        tracer.run = None
        _, plain = self._solve(state)
        tracer.run = f"{index}/solve"
        solved, elapsed = self._solve(state)
        tracer.run = None
        self.plain_s.append(plain)
        self.solve_s.append(elapsed)
        self._check(state, solved)
        self.layer_rounds.append(self._layers(index, state, solved, elapsed, plain))

    def _layers(self, index, state, solved, traced_s, plain_s) -> dict:
        from tracer import SpanView

        spans = self.tracer.spans
        view = SpanView(spans, {f"{index}/setup", f"{index}/solve"})
        solve = SpanView(spans, {f"{index}/solve"})
        records = [r.record for r in solved.results if r.record is not None]
        flop, nbytes = blur_cost(state.problem.operator)
        blur_calls = view.count("operators.blur")
        blur_s = view.total("operators.blur")
        solver_s = view.total("solvers.")
        solver_self = view.self_total("solvers.")
        in_solver_blur = len(view.under("solvers.", "operators.blur"))
        n_ops = sum(r.n_ops for r in records)
        kept = sum(len(r.iterates) * r.iterates[0].nbytes
                   for r in records if r.iterates)
        layers = {
            "operators.blur.calls": blur_calls,
            "operators.blur.s": blur_s,
            "operators.blur.ms_per_call": 1e3 * blur_s / blur_calls if blur_calls else 0.0,
            "operators.flip.s": view.self_total("operators.flip"),
            "operators.blur.gflop_computed": blur_calls * flop / 1e9,
            "operators.blur.gb_computed": blur_calls * nbytes / 1e9,
            "preconditioners.apply.calls": view.count("preconditioners.apply"),
            "preconditioners.apply.s": view.total("preconditioners.apply"),
            "preconditioners.build.calls": view.count("preconditioners.build"),
            "preconditioners.build.s": view.total("preconditioners.build"),
            "solvers.s": solver_s,
            "solvers.self_s": solver_self,
            "solvers.self_frac": solver_self / solver_s if solver_s else 0.0,
            "solvers.iterations": sum(r.iterations for r in records),
            "solvers.n_ops": n_ops,
            "solvers.useful_apply_frac": n_ops / in_solver_blur if in_solver_blur else 0.0,
            "metrics.calls": view.count("metrics."),
            "metrics.s": view.total("metrics."),
            "problems.setup.s": view.total("problems.setup"),
            "problems.artifacts.s": view.total("problems.artifacts"),
            "problems.artifacts.bytes": solved.artifact_bytes,
            "problems.driver_self.s": view.self_total("problems.run_experiment"),
            "problems.iterates_kept_mb": kept / 1e6,
            "cli.self_s": view.self_total("cli."),
            "trace.overhead_s": traced_s - plain_s,
        }
        # readings behind the acceptance criteria and the self-test
        per_layer_in_solvers = view.layer_self_under("solvers.")
        solver_wall = sum(r.wall_s for r in solved.results)
        extra = {
            "solver_layer_self_s": per_layer_in_solvers,
            "solver_wall_s": solver_wall,
            "apply_share_of_solve": (solve.total("operators.blur")
                                     + solve.total("preconditioners.apply")) / traced_s,
        }
        return {"metrics": layers, "extra": extra}

    # -- reduction ------------------------------------------------------------

    def end_to_end(self, rss_base: float) -> dict:
        r = self.readings
        return {
            "setup_s": statistics.median(self.setup_s),
            "solve_s": quiet_pass(self.method_s, self.rest_s),
            "iters_per_s": statistics.median(self.iters_per_s),
            "peak_mem_mb": _rss_mb() - rss_base,
            "rre_best": r.get("rre_best", math.nan),
            "rre_dp": r.get("rre_dp", math.nan),
            "dp_iter": r.get("dp_iter", 0),
            "res_drift": r.get("res_drift", math.nan),
            "error_rate": self.failed / self.attempted if self.attempted else 1.0,
        }

    def per_layer(self) -> dict:
        out = {}
        for name, unit in PER_LAYER.items():
            values = [rnd["metrics"][name] for rnd in self.layer_rounds]
            exact = unit in ("count", "bytes")
            out[name] = statistics.median_low(values) if exact else statistics.median(values)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        kryblur = _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    rss_base = _rss_mb()
    meta = metadata(args.seed)
    workload = WORKLOADS[args.workload](args.seed, workdir=workdir)
    runner = Runner(kryblur, workload, args.seconds, bool(args.trace))
    try:
        runner.run()
    finally:
        if runner.tracer is not None:
            runner.tracer.uninstall()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = None if args.trace else runner.end_to_end(rss_base)
    return report(args, meta, runner, e2e)


def report(args, meta, runner, e2e) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"# perfbench {args.workload} seed {args.seed} trace {args.trace}",
             "# " + ", ".join(f"{k} {v}" for k, v in meta.items())]
    n = len(runner.solve_s)
    solve_tail = tail(runner.solve_s)
    if args.trace:
        metrics = runner.per_layer()
        units = PER_LAYER
        lines.append(f"# {len(runner.layer_rounds)} traced round(s)")
        for name, value in metrics.items():
            lines.append(f"{name:32s} {value:.6g} {units[name]}")
        extra = runner.layer_rounds[-1]["extra"]
        lines.append(f"# solver self time by layer: {extra['solver_layer_self_s']}")
        lines.append(f"# blur + preconditioner applies / traced solve_s: "
                     f"{extra['apply_share_of_solve']:.3f}")
    else:
        metrics = {name: e2e[name] for name in END_TO_END_GATED}
        units = END_TO_END
        for name, value in e2e.items():
            note = ""
            if name == "setup_s":
                note = f"median of {len(runner.setup_s)} set-ups"
            elif name == "solve_s":
                note = (f"lower quartile of {n} runs per part, summed; pass median "
                        f"{statistics.median(runner.solve_s):.6g} s")
                note += (f", p{solve_tail[0]:.0f} {solve_tail[1]:.6g} s" if solve_tail
                         else ", no tail percentile (fewer than 11 passes)")
            elif name == "iters_per_s":
                note = f"median of {n} passes"
            lines.append(f"{name:14s} {value:.6g} {END_TO_END[name]}"
                         + (f"   ({note})" if note else ""))
        per_method = {label: statistics.median(v) for label, v in runner.method_s.items()}
        lines.append("# per-method solve time, median s: "
                     + ", ".join(f"{k} {v:.4g}" for k, v in per_method.items()))
        lines.append(f"# first (warm-up) pass: {runner.first_pass_s:.4g} s")
    for name, value in runner.wl.orderings(runner.readings).items():
        lines.append(f"# reading: {name}: {value}")
    lines.append(f"# checks: {runner.attempted} attempted, {runner.failed} failed")
    for name in runner.failures:
        lines.append(f"# FAILED: {name}")

    correct = runner.failed == 0 and runner.attempted > 0 and all(
        math.isfinite(v) for v in metrics.values())
    details = {
        "workload": args.workload, "seconds": args.seconds, "metadata": meta,
        "end_to_end": e2e, "per_layer": metrics if args.trace else None,
        "samples": {"setup_s": runner.setup_s, "solve_s": runner.solve_s,
                    "plain_solve_s": runner.plain_s, "iters_per_s": runner.iters_per_s,
                    "method_s": runner.method_s, "rest_s": runner.rest_s},
        "readings": runner.readings, "failures": runner.failures,
        "layer_rounds": runner.layer_rounds,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1, default=str),
                                     encoding="ascii")
    if runner.tracer is not None:
        runner.tracer.dump(OUT / f"{tag}-spans.jsonl")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
