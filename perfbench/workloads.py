"""The benchmark workloads: inputs made from the seed, set-up, one solve pass,
and the checks on what the pass produced.

The seed selects the noise realization of each problem; the images and PSFs
are the fixed test scenes of the acceptance suite and the ROADMAP scenarios,
so a seed changes the data without changing the kind of problem.

Library calls go through module attributes (``solvers.gmres``, not a name
imported at load time) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kryblur import cli, operators, preconditioners, problems, solvers

#: Discrepancy-principle safety factor: the StoppingRule and config default.
ETA = 1.01
#: The ROADMAP item-2 tolerance on |recorded - recomputed| final residual.
RES_DRIFT_TOL = 1e-10


@dataclass
class MethodResult:
    label: str
    record: object | None      # SolveRecord, or None when the solve raised
    wall_s: float
    error: str | None = None


@dataclass
class State:
    """What set-up built: the problem, the system solved, the symbol grid and
    the stationary preconditioners."""

    problem: problems.NoisyProblem
    system: object
    rhs: np.ndarray
    prebuilt: dict = field(default_factory=dict)
    config: Path | None = None


@dataclass
class Pass:
    """One solve pass over the workload's method set."""

    results: list[MethodResult]
    exit_code: int = 0
    artifact_hashes: dict | None = None
    artifact_bytes: int = 0


class Workload:
    """A method set on one problem, solved to a fixed iteration budget."""

    name = ""
    methods: tuple[str, ...] = ()
    #: Iteration budget of the untimed warm-up pass (None: the full budget).
    warm_up_iters: int | None = 2

    def __init__(self, seed: int, n: int, iters: int, workdir: Path):
        self.seed = int(seed)
        self.n = int(n)
        self.iters = int(iters)
        self.workdir = Path(workdir)

    def setup(self) -> State:
        raise NotImplementedError

    def solve(self, state: State, iters: int | None = None) -> Pass:
        rule = solvers.StoppingRule(max_iter=iters or self.iters)
        results = []
        for label in self.methods:
            start = time.perf_counter()
            try:
                record = self._call(label, state, rule)
            except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
                results.append(MethodResult(label, None, time.perf_counter() - start,
                                            f"{type(exc).__name__}: {exc}"))
                continue
            results.append(MethodResult(label, record, time.perf_counter() - start))
        return Pass(results)

    def _call(self, label: str, state: State, rule):
        raise NotImplementedError

    def clear(self) -> None:
        """Undo what the previous pass left behind; not part of the timed pass."""

    def inspect_artifacts(self, solved: Pass) -> None:
        """Record what the pass wrote to disk; not part of the timed pass."""

    def close(self) -> None:
        pass

    # -- readings and checks ------------------------------------------------

    def readings(self, state: State, solved: Pass) -> dict:
        """Quality readings of one pass: RRE, discrepancy iterate, drift."""
        threshold = ETA * state.problem.noise_norm
        best, at_dp, dp_iters, drift = [], [], [], []
        per_method = {}
        b = state.problem.b.ravel()
        b_norm = float(np.linalg.norm(b))
        for res in solved.results:
            rec = res.record
            if rec is None or not rec.rre:
                continue
            dp = next((i + 1 for i, r in enumerate(rec.res_norm) if r <= threshold), None)
            rre_dp = rec.rre[dp - 1] if dp is not None else rec.rre[-1]
            recomputed = float(np.linalg.norm(
                b - np.ravel(state.problem.operator.apply(rec.x_stop))))
            d = abs(rec.res_norm[-1] - recomputed) / b_norm
            best.append(min(rec.rre))
            at_dp.append(rre_dp)
            dp_iters.append(dp if dp is not None else self.iters + 1)
            drift.append(d)
            per_method[res.label] = {
                "best_index": rec.best_index, "rre_best": min(rec.rre),
                "dp_iter": dp, "rre_dp": rre_dp, "res_drift": d,
                "iterations": rec.iterations, "n_ops": rec.n_ops,
                "stop_reason": rec.stop_reason, "wall_s": res.wall_s,
            }
        return {
            "rre_best": float(np.mean(best)) if best else math.nan,
            "rre_dp": float(np.mean(at_dp)) if at_dp else math.nan,
            "dp_iter": int(sum(dp_iters)),
            "res_drift": max(drift) if drift else math.nan,
            "methods": per_method,
        }

    def checks(self, state: State, solved: Pass, readings: dict,
               reference_hashes: dict | None) -> list[tuple[str, bool]]:
        """Named pass/fail checks on one pass; each failure counts as an error."""
        out = []
        for res in solved.results:
            out.append((f"{res.label}: solve ran" + (f" ({res.error})" if res.error else ""),
                        res.record is not None))
            if res.record is None:
                continue
            rec = res.record
            finite = bool(np.all(np.isfinite(rec.x_stop)) and np.all(np.isfinite(rec.x_best)))
            out.append((f"{res.label}: x_stop and x_best finite", finite))
            drift = readings["methods"].get(res.label, {}).get("res_drift", math.inf)
            out.append((f"{res.label}: res_drift {drift:.3e} <= {RES_DRIFT_TOL:g}",
                        drift <= RES_DRIFT_TOL))
            budget_ok = rec.iterations == self.iters or (
                rec.iterations < self.iters and rec.stop_reason != "max_iter")
            out.append((f"{res.label}: {rec.iterations}/{self.iters} iterations, "
                        f"stop reason {rec.stop_reason}", budget_ok))
        return out

    def orderings(self, readings: dict) -> dict:
        """Acceptance-style orderings, reported as readings, not failures."""
        return {}


class GmresReflective(Workload):
    """ROADMAP S3: long-recurrence Arnoldi on a 512x512 reflective problem."""

    name = "gmres-reflective-512"
    methods = ("YA GMRES", "YAP GMRES")
    alpha = 0.1

    def __init__(self, seed, n=512, iters=60, workdir="."):
        super().__init__(seed, n, iters, workdir)

    def setup(self) -> State:
        x_true = problems.natural_scene(self.n)
        psf = problems.make_two_motion_psf(9, 45, 135)
        problem = problems.make_problem(x_true, psf, "reflective", 0.01, self.seed)
        symbol = operators.bccb_eigenvalues(psf, self.n)
        prec = preconditioners.circulant_abs_tikhonov(symbol, self.alpha)
        return State(problem, operators.FlipComposedOperator(problem.operator),
                     operators.apply_flip(problem.b), {"symbol": symbol, "abs_tikhonov": prec})

    def _call(self, label, state, rule):
        right = state.prebuilt["abs_tikhonov"] if label == "YAP GMRES" else None
        return solvers.gmres(state.system, state.rhs, rule, right_prec=right,
                             x_true=state.problem.x_true)


class ShortRecurrenceZero(Workload):
    """Acceptance 5 at 256x256: MINRES and LSQR, no Gram-Schmidt."""

    name = "shortrec-zero-256"
    methods = ("YA MINRES", "YAP MINRES", "AP LSQR")
    alpha = 1e-2

    def __init__(self, seed, n=256, iters=100, workdir="."):
        super().__init__(seed, n, iters, workdir)

    def setup(self) -> State:
        x_true = problems.star_field(self.n)
        psf = problems.make_gaussian_psf(9, 2.0)
        problem = problems.make_problem(x_true, psf, "zero", 0.05, self.seed)
        symbol = operators.bccb_eigenvalues(psf, self.n)
        half = preconditioners.circulant_sqrt(
            preconditioners.circulant_abs_tikhonov(symbol, self.alpha))
        tikhonov = preconditioners.circulant_tikhonov(symbol, self.alpha)
        return State(problem, operators.FlipComposedOperator(problem.operator),
                     operators.apply_flip(problem.b),
                     {"symbol": symbol, "sqrt_abs_tikhonov": half, "tikhonov": tikhonov})

    def _call(self, label, state, rule):
        truth = state.problem.x_true
        if label == "YA MINRES":
            return solvers.minres(state.system, state.rhs, rule, x_true=truth)
        if label == "YAP MINRES":
            return solvers.minres_sym_prec(state.system, state.rhs,
                                           state.prebuilt["sqrt_abs_tikhonov"], rule,
                                           x_true=truth)
        return solvers.lsqr(state.problem.operator, state.problem.b, rule,
                            right_prec=state.prebuilt["tikhonov"], x_true=truth)

    def orderings(self, readings):
        methods = readings["methods"]
        if "YA MINRES" not in methods or "YAP MINRES" not in methods:
            return {}
        ya, yap = methods["YA MINRES"]["best_index"], methods["YAP MINRES"]["best_index"]
        return {"YAP MINRES best_index < YA MINRES best_index":
                f"{yap} vs {ya}: {'yes' if yap < ya else 'no'}"}


_CONFIG = """\
image = edges
n = {n}
psf = motion2
psf_length = 9
psf_angle = 45
psf_angle2 = 135
bc = reflective
sigma = 0.1
seed = {seed}
alpha0 = 0.1
q = 0.8
eta = {eta}
max_iter = {iters}
methods = {methods}
outdir = {outdir}
"""

#: Artifacts that must be byte-identical across repeated runs of one config.
_DETERMINISTIC = ("history.csv", "best.pgm", "dp.pgm")


class FgmresCli(Workload):
    """ROADMAP S2: the acceptance-7 config through ``kryblur run`` in-process."""

    name = "fgmres-driver-128"
    methods = ("YAW FGMRES", "AW FGMRES", "YAPW FGMRES")
    warm_up_iters = None      # the config fixes the budget; the first call is slow

    def __init__(self, seed, n=128, iters=60, workdir="."):
        super().__init__(seed, n, iters, workdir)
        self.outdir = self.workdir / "out"
        self.captured: list = []
        original = cli.run_experiment
        self._original = original

        def capture(cfg):
            runs = original(cfg)
            self.captured.append(runs)
            return runs

        cli.run_experiment = capture

    def close(self):
        cli.run_experiment = self._original

    def setup(self) -> State:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "edges.cfg"
        path.write_text(_CONFIG.format(n=self.n, seed=self.seed, eta=ETA,
                                       iters=self.iters, methods=", ".join(self.methods),
                                       outdir=self.outdir), encoding="ascii")
        cfg = problems.parse_config(path)
        x_true = problems.edges_image(cfg.n)
        psf = problems.make_two_motion_psf(cfg.psf_length, cfg.psf_angle, cfg.psf_angle2)
        problem = problems.make_problem(x_true, psf, cfg.bc, cfg.sigma, cfg.seed)
        symbol = operators.bccb_eigenvalues(psf, cfg.n)
        return State(problem, problem.operator, problem.b, {"symbol": symbol}, path)

    def clear(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def solve(self, state, iters=None):
        self.captured.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(state.config)])
        runs = self.captured[-1] if self.captured else []
        results = [MethodResult(r.label, r.record, r.wall_time) for r in runs]
        done = {r.label for r in runs}
        results += [MethodResult(label, None, 0.0, f"kryblur run exited {code}")
                    for label in self.methods if label not in done]
        return Pass(results, exit_code=code)

    def inspect_artifacts(self, solved: Pass) -> None:
        hashes = {}
        for label in self.methods:
            directory = self.outdir / label.replace(" ", "-")
            for fname in _DETERMINISTIC:
                path = directory / fname
                if path.is_file():
                    hashes[f"{directory.name}/{fname}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
        solved.artifact_hashes = hashes
        solved.artifact_bytes = sum(p.stat().st_size for p in self.outdir.rglob("*")
                                    if p.is_file())

    def checks(self, state, solved, readings, reference_hashes):
        out = [(f"kryblur run exit code {solved.exit_code}", solved.exit_code == 0)]
        out += super().checks(state, solved, readings, reference_hashes)
        if reference_hashes is not None:
            same = solved.artifact_hashes == reference_hashes and bool(reference_hashes)
            out.append(("history.csv, best.pgm, dp.pgm byte-identical to the first pass",
                        same))
        return out

    def orderings(self, readings):
        methods = readings["methods"]
        if "YAW FGMRES" not in methods or "YAPW FGMRES" not in methods:
            return {}
        yaw, yapw = methods["YAW FGMRES"]["dp_iter"], methods["YAPW FGMRES"]["dp_iter"]
        ok = yaw is not None and yapw is not None and yapw < yaw
        return {"YAPW FGMRES dp_iter < YAW FGMRES dp_iter":
                f"{yapw} vs {yaw}: {'yes' if ok else 'no'}"}


WORKLOADS = {cls.name: cls for cls in (GmresReflective, FgmresCli, ShortRecurrenceZero)}
