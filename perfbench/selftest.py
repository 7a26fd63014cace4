"""Self-test of the benchmark on tiny inputs (n = 32, 4 iterations).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the final JSON line
carries exactly the metrics BENCHMARK.json names, with the same units, that
every check passed, that every span lies inside its parent, and that inside
each solver call the per-layer self times plus ``solvers.self_s`` add up to
the solver wall time.  Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Slack for the wrapper's own cost when comparing span sums with wall time.
WALL_ABS_TOL = 2e-3
WALL_REL_TOL = 0.02


def _one(kryblur, workloads, name: str, trace: bool, problems: list[str]) -> None:
    workdir = run.OUT / f"selftest-{name}"
    workload = workloads.WORKLOADS[name](7, n=32, iters=4, workdir=workdir)
    runner = run.Runner(kryblur, workload, seconds=0.01, trace=trace)
    try:
        runner.run()
    finally:
        if runner.tracer is not None:
            runner.tracer.uninstall()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    args = argparse.Namespace(workload=f"selftest-{name}", seed=7, seconds=0.01,
                              trace=int(trace))
    e2e = None if trace else runner.end_to_end(run._rss_mb())
    with contextlib.redirect_stdout(io.StringIO()) as text:
        run.report(args, run.metadata(7), runner, e2e)
    result = json.loads(text.getvalue().strip().splitlines()[-1])
    where = f"{name} trace {int(trace)}"

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != wanted:
        problems.append(f"{where}: emitted {emitted}, BENCHMARK.json names {wanted}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {runner.failures}")
    if not trace:
        return

    spans = runner.tracer.spans
    nested = all(parent < 0 or (spans[parent][1] <= start and end <= spans[parent][2])
                 for _, start, end, parent, _ in spans)
    if not spans or not nested:
        problems.append(f"{where}: {len(spans)} spans, each inside its parent: {nested}")
    writes_artifacts = name == "fgmres-driver-128"
    for rnd in runner.layer_rounds:
        layers, extra = rnd["metrics"], rnd["extra"]
        by_layer = extra["solver_layer_self_s"]
        if abs(by_layer.get("solvers", 0.0) - layers["solvers.self_s"]) > 1e-12:
            problems.append(f"{where}: solvers.self_s disagrees with the layer split")
        total = sum(by_layer.values())
        if abs(total - layers["solvers.s"]) > 1e-9:
            problems.append(f"{where}: layer self times sum to {total}, "
                            f"solver spans last {layers['solvers.s']}")
        wall = extra["solver_wall_s"]
        if abs(wall - total) > WALL_ABS_TOL + WALL_REL_TOL * wall:
            problems.append(f"{where}: layer self times sum to {total:.6f} s, "
                            f"solver wall time is {wall:.6f} s")
        for key in ("problems.artifacts.s", "problems.driver_self.s", "cli.self_s"):
            if (layers[key] > 0) != writes_artifacts:
                problems.append(f"{where}: {key} = {layers[key]}")


def main() -> int:
    kryblur = run._import_package()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            _one(kryblur, workloads, name, trace, problems)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
