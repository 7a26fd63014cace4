"""Empirical eigenvalue analysis of the preconditioned symmetrized blur.

At desk scale the operators fit in memory, so the clustering that the
circulant threshold preconditioner is supposed to produce can simply be
measured: compose the zero-boundary blur, the flip and the inverse square
root of the preconditioner on both sides as maps, assemble the product once,
and hand the resulting symmetric matrix to LAPACK.  The eigenvalues should
pile up near +1 and -1 (the signal frequencies, where the preconditioner
cancels the symbol magnitude) with the rest confined to the noise band
[-eps, eps], and the count outside those three sets should shrink relative
to n^2 as n grows.

``szego_distribution_check`` measures the other classical limit: averages
of eigenvalue powers of the symmetric Toeplitz-block operator against the
corresponding integrals of its generating function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .operators import (BlurOperator, FlipComposedOperator, Psf, _self_mirrored,
                        bccb_eigenvalues, materialize_dense)
from .preconditioners import CirculantOperator, ComposedOperator, circulant_threshold

__all__ = [
    "ClusterReport",
    "preconditioned_spectrum",
    "cluster_report",
    "szego_distribution_check",
]

#: Ignore imaginary parts below this (relative) when a matrix is symmetric
#: by construction.
_SYM_RTOL = 1e-8


@dataclass(frozen=True)
class ClusterReport:
    """Counts of eigenvalues per cluster, classified in priority order:
    near +1, near -1, noise band, outlier."""

    n: int
    eps: float
    delta: float
    near_plus_one: int
    near_minus_one: int
    noise_band: int
    outliers: int

    @property
    def total(self) -> int:
        return self.near_plus_one + self.near_minus_one + self.noise_band + self.outliers

    @property
    def outlier_fraction(self) -> float:
        return self.outliers / self.total

    def as_text(self) -> str:
        names = [f.name for f in fields(self)] + ["total", "outlier_fraction"]
        return "\n".join(f"{name}: {getattr(self, name)!r}" for name in names)


def _symmetric_eigenvalues(dense: np.ndarray, what: str) -> np.ndarray:
    """The sorted eigenvalues of ``dense``, a matrix symmetric by
    construction; raises ``ValueError`` naming ``what`` when its symmetry
    defect exceeds ``_SYM_RTOL`` times its largest entry."""
    defect = np.abs(dense - dense.T).max()
    if defect > _SYM_RTOL * max(np.abs(dense).max(), np.finfo(float).tiny):
        raise ValueError(f"{what} is not symmetric (defect {defect:.3e}): a broken operator")
    return np.linalg.eigvalsh(0.5 * (dense + dense.T))


def preconditioned_spectrum(psf: Psf, n: int, eps: float | None) -> np.ndarray:
    """Eigenvalues of the threshold-preconditioned flip-symmetrized blur.

    Composes the zero-boundary blur T, the flip Y, and the inverse square
    root of the circulant threshold preconditioner C built from the sampled
    symbol into the map C^{-1/2} Y T C^{-1/2}, similar to C^{-1} Y T, and
    materializes it once, so the eigenvalues come out real and sorted.
    ``eps=None`` skips the preconditioner (spectrum of Y T itself).
    """
    system = FlipComposedOperator(BlurOperator(psf, "zero", n))
    if eps is not None:
        grid = circulant_threshold(bccb_eigenvalues(psf, n), eps).eigs
        inv_half = CirculantOperator(grid ** -0.5)
        system = ComposedOperator(ComposedOperator(inv_half, system), inv_half)
    return _symmetric_eigenvalues(materialize_dense(system),
                                  "the (preconditioned) flip-symmetrized blur")


def cluster_report(eigenvalues, eps: float, delta: float) -> ClusterReport:
    """Classify eigenvalues into the three predicted clusters plus outliers.

    Priority order: within ``delta`` of +1, within ``delta`` of -1, within
    ``eps`` of 0, otherwise outlier.  The eigenvalues must be finite and at
    least one; the bands must not touch: ``delta + eps < 1``.
    """
    if not (eps > 0 and delta > 0):
        raise ValueError("eps and delta must be positive")
    if not delta + eps < 1.0:
        raise ValueError(
            f"cluster bands overlap: delta + eps = {delta + eps} >= 1"
        )
    vals = np.asarray(eigenvalues, dtype=float).ravel()
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        raise ValueError("eigenvalues must be a non-empty set of finite numbers")
    near_plus = np.abs(vals - 1.0) <= delta
    near_minus = (~near_plus) & (np.abs(vals + 1.0) <= delta)
    noise = (~near_plus) & (~near_minus) & (np.abs(vals) <= eps)
    outlier = ~(near_plus | near_minus | noise)
    side = int(round(np.sqrt(vals.size)))
    return ClusterReport(
        n=side if side * side == vals.size else 0,
        eps=eps,
        delta=delta,
        near_plus_one=int(near_plus.sum()),
        near_minus_one=int(near_minus.sum()),
        noise_band=int(noise.sum()),
        outliers=int(outlier.sum()),
    )


def szego_distribution_check(psf: Psf, n: int, moments: int = 2,
                             grid_size: int = 1024):
    """Compare eigenvalue-power averages with symbol-power integrals.

    For a PSF equal to its 180-degree rotation the zero-boundary operator is
    symmetric and its generating function is real; the average of the m-th
    eigenvalue powers then tends to the mean of the m-th symbol powers over
    the frequency square.  Returns (max_discrepancy, per_moment_list) where
    per_moment_list[m-1] = |mean(eig^m) - mean(symbol^m)|.

    The first moment is exact at every n: the trace of the operator is
    n^2 times the center PSF entry, which is also the symbol's mean.
    """
    if moments < 1:
        raise ValueError(f"need at least one moment, got {moments}")
    if not psf.centrally_symmetric:
        raise ValueError(
            "distribution check requires a PSF equal to its 180-degree "
            "rotation (symmetric operator, real symbol)"
        )
    eigs = _symmetric_eigenvalues(materialize_dense(BlurOperator(psf, "zero", n)),
                                  "the zero-boundary blur")
    # the symbol is a trigonometric polynomial of degree far below
    # grid_size, so averaging its low powers over any equispaced grid
    # integrates them exactly up to roundoff.  A half-grid column other than
    # 0 and n/2 also stands for its mirror, of the same real values
    symbol = bccb_eigenvalues(psf, grid_size)
    weights = np.full(symbol.shape[1], 2.0)
    weights[list(_self_mirrored(grid_size))] = 1.0
    imag_max = np.abs(symbol.imag).max()
    if imag_max > 1e-9:
        raise ValueError(
            f"symbol is not real (max imaginary part {imag_max:.3e}); "
            "the PSF symmetry check should have caught this"
        )
    fvals = symbol.real
    per_moment = []
    for m in range(1, moments + 1):
        lhs = float(np.mean(eigs ** m))
        rhs = float(np.sum(fvals ** m, axis=0) @ weights) / grid_size ** 2
        per_moment.append(abs(lhs - rhs))
    return max(per_moment), per_moment
