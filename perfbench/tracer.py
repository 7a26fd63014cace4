"""Span tracing around the calls into each kryblur layer, from outside.

The benchmark replaces public callables with timing wrappers at the name the
caller looks up (a class attribute, or a module global that another module
imported by name).  Each wrapper records one span -- name, start, end,
parent, run id -- in memory while a run id is set and passes straight
through otherwise.  The first component of a span name is its layer.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap and the
self times of a subtree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """In-memory span recorder; ``run`` selects the run id spans go to."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, run]
        self.run: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.run]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper named ``name``."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def install(tracer: Tracer, kryblur) -> None:
    """Wrap the public callables of every layer except ``spectral``.

    ``kryblur`` is the imported package, with ``kryblur.cli`` imported.
    """
    ops, pre, sol, met, prob, cli = (kryblur.operators, kryblur.preconditioners,
                                     kryblur.solvers, kryblur.metrics,
                                     kryblur.problems, kryblur.cli)
    for cls, span in ((ops.BlurOperator, "operators.blur"),
                      (ops.FlipComposedOperator, "operators.flip"),
                      (pre.CirculantOperator, "preconditioners.apply"),
                      (pre.DiagonalOperator, "preconditioners.apply"),
                      (pre.IdentityOperator, "preconditioners.apply"),
                      (pre.ComposedOperator, "preconditioners.apply")):
        for method in ("apply", "apply_adjoint"):
            if method in cls.__dict__:
                tracer.patch(cls, method, span)
    tracer.patch(pre.PreconditionerSchedule, "build", "preconditioners.build")

    # module globals, patched in every module that imported them by name
    globals_by_span = {
        "operators.symbol": ("bccb_eigenvalues",),
        "operators.flip": ("apply_flip",),
        "preconditioners.build": ("circulant_tikhonov", "circulant_abs_tikhonov",
                                  "circulant_threshold", "circulant_sqrt",
                                  "sparsity_weights", "compose"),
        "metrics.rre": ("rre", "_rre"),
        "metrics.psnr": ("psnr", "_psnr"),
        "problems.setup": ("phantom", "edges_image", "star_field", "natural_scene",
                           "make_gaussian_psf", "make_motion_psf",
                           "make_two_motion_psf", "make_problem"),
        "problems.config": ("parse_config",),
        "problems.artifacts": ("write_pgm",),
        "problems.run_experiment": ("run_experiment",),
    }
    for module in (ops, pre, sol, met, prob, cli):
        for span, attrs in globals_by_span.items():
            for attr in attrs:
                if attr in vars(module):
                    tracer.patch(module, attr, span)
    for entry in ("minres", "minres_sym_prec", "gmres", "fgmres", "lsqr", "flsqr"):
        tracer.patch(sol, entry, f"solvers.{entry}")
    tracer.patch(cli, "main", "cli.main")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanView:
    """Derived quantities over the spans of the given run ids."""

    def __init__(self, spans: list[list], runs):
        runs = set(runs)
        self.index = [i for i, span in enumerate(spans) if span[4] in runs]
        self.spans = spans
        child_time = {i: 0.0 for i in self.index}
        for i in self.index:
            parent = spans[i][3]
            if parent in child_time:
                child_time[parent] += spans[i][2] - spans[i][1]
        self.self_time = {i: spans[i][2] - spans[i][1] - child_time[i]
                          for i in self.index}

    def _matching(self, prefix: str, outermost: bool):
        for i in self.index:
            name = self.spans[i][0]
            if not name.startswith(prefix):
                continue
            parent = self.spans[i][3]
            if outermost and parent >= 0 and self.spans[parent][0].startswith(prefix):
                continue
            yield i

    def count(self, prefix: str, outermost: bool = True) -> int:
        return sum(1 for _ in self._matching(prefix, outermost))

    def total(self, prefix: str, outermost: bool = True) -> float:
        return float(sum(self.spans[i][2] - self.spans[i][1]
                         for i in self._matching(prefix, outermost)))

    def self_total(self, prefix: str) -> float:
        return float(sum(self.self_time[i] for i in self._matching(prefix, False)))

    def under(self, ancestor_prefix: str, prefix: str) -> list[int]:
        """Spans named ``prefix*`` with an ancestor named ``ancestor_prefix*``."""
        found = []
        for i in self._matching(prefix, False):
            parent = self.spans[i][3]
            while parent >= 0 and not self.spans[parent][0].startswith(ancestor_prefix):
                parent = self.spans[parent][3]
            if parent >= 0:
                found.append(i)
        return found

    def layer_self_under(self, ancestor_prefix: str) -> dict[str, float]:
        """Self time per layer of every span inside an ``ancestor_prefix*`` span,
        the ancestors themselves included."""
        per_layer: dict[str, float] = {}
        inside = set(self.under(ancestor_prefix, ""))
        inside.update(self._matching(ancestor_prefix, False))
        for i in inside:
            layer = _layer(self.spans[i][0])
            per_layer[layer] = per_layer.get(layer, 0.0) + self.self_time[i]
        return per_layer
