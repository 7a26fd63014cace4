"""Command-line surface: run experiments, emit spectra and symbol samples.

Exit codes: 0 on success, 1 on validation errors (bad flags, malformed
configs or PSF specs, missing files), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .operators import Psf, bccb_eigenvalues, full_grid, load_psf
from .problems import _CONFIG_TYPES, _PSF_KINDS, parse_config, run_experiment
from .spectral import cluster_report, preconditioned_spectrum


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is that
    # every validation problem exits with code 1, so route through the
    # normal error path instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def parse_psf_spec(spec: str) -> Psf:
    """Build a PSF from a compact spec string.

    Accepted forms: ``gaussian:SUPPORT:STD``, ``motion:LENGTH:ANGLE``,
    ``motion2:LENGTH:ANGLE1:ANGLE2``, ``file:PATH``.
    """
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    make, keys = _PSF_KINDS.get(kind, (None, ()))
    if make is not None and len(parts) == len(keys):
        try:
            return make(*(_CONFIG_TYPES[key](part) for key, part in zip(keys, parts)))
        except ValueError as exc:
            raise ValueError(f"bad PSF spec {spec!r}: {exc}") from exc
    if kind == "file" and rest:
        return load_psf(rest)
    raise ValueError(
        f"bad PSF spec {spec!r}; expected gaussian:SUPPORT:STD, "
        "motion:LENGTH:ANGLE, motion2:LENGTH:ANGLE1:ANGLE2, or file:PATH"
    )


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    for run in run_experiment(cfg):
        line = (
            f"{run.label}: best iter {run.best_iter} "
            f"rre {run.best_rre:.6f} psnr {run.best_psnr:.4f}"
        )
        if run.dp_iter is None:
            line += " | dp not reached"
        else:
            line += (
                f" | dp iter {run.dp_iter} rre {run.dp_rre:.6f} "
                f"psnr {run.dp_psnr:.4f}"
            )
        print(f"{line} -> {run.directory}")
    return 0


def _cmd_spectrum(args) -> int:
    psf = parse_psf_spec(args.psf)
    eigenvalues = preconditioned_spectrum(psf, args.n, args.eps)
    report = cluster_report(eigenvalues, eps=args.eps, delta=args.delta)
    csv = "\n".join(repr(float(e)) for e in eigenvalues) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
        print()
    print(report.as_text())
    return 0


def _cmd_symbol(args) -> int:
    psf = parse_psf_spec(args.psf)
    magnitude = np.abs(full_grid(bccb_eigenvalues(psf, args.n)))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in magnitude)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(rows + "\n")
    else:
        print(rows)
    return 0


def _cmd_version(_args) -> int:
    print(__version__)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kryblur",
        description="Structured-matrix image deblurring with flip "
        "symmetrization and regularizing circulant preconditioners.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run an experiment config file")
    p_run.add_argument("--config", required=True, help="path to a key = value config")
    p_run.set_defaults(handler=_cmd_run)

    p_spec = sub.add_parser(
        "spectrum", help="eigenvalues and cluster report of the preconditioned system"
    )
    p_spec.add_argument("--psf", required=True, help="PSF spec, e.g. gaussian:9:2")
    p_spec.add_argument("--n", required=True, type=int, help="image side length")
    p_spec.add_argument("--eps", required=True, type=float, help="threshold level")
    p_spec.add_argument("--delta", required=True, type=float, help="cluster radius at +-1")
    p_spec.add_argument("--out", help="write eigenvalue CSV here instead of stdout")
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_sym = sub.add_parser("symbol", help="sample |f| of a PSF on the n-by-n grid")
    p_sym.add_argument("--psf", required=True, help="PSF spec, e.g. motion:5:0")
    p_sym.add_argument("--n", required=True, type=int, help="grid side length")
    p_sym.add_argument("--out", help="write the CSV grid here instead of stdout")
    p_sym.set_defaults(handler=_cmd_symbol)

    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(handler=_cmd_version)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return 0 if exc.code in (None, 0) else 1
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and codes
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
