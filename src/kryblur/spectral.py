"""Empirical eigenvalue analysis of the preconditioned symmetrized blur.

At desk scale the operators fit in memory, so the clustering that the
circulant threshold preconditioner is supposed to produce can simply be
measured: assemble the zero-boundary blur matrix, flip-symmetrize it,
conjugate by the inverse square root of the preconditioner, and hand the
resulting symmetric matrix to LAPACK.  The eigenvalues should pile up near
+1 and -1 (the signal frequencies, where the preconditioner cancels the
symbol magnitude) with the rest confined to the noise band [-eps, eps],
and the count outside those three sets should shrink relative to n^2 as n
grows.

``szego_distribution_check`` measures the other classical limit: averages
of eigenvalue powers of the symmetric Toeplitz-block operator against the
corresponding integrals of its generating function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import BlurOperator, Psf, _self_mirrored, bccb_eigenvalues, materialize_dense
from .preconditioners import CirculantOperator, circulant_threshold

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
        lines = [
            f"n: {self.n}",
            f"eps: {self.eps!r}",
            f"delta: {self.delta!r}",
            f"near_plus_one: {self.near_plus_one}",
            f"near_minus_one: {self.near_minus_one}",
            f"noise_band: {self.noise_band}",
            f"outliers: {self.outliers}",
            f"total: {self.total}",
            f"outlier_fraction: {self.outlier_fraction!r}",
        ]
        return "\n".join(lines)


def preconditioned_spectrum(psf: Psf, n: int, eps: float | None) -> np.ndarray:
    """Eigenvalues of the threshold-preconditioned flip-symmetrized blur.

    Builds the zero-boundary blur matrix T, the flip F, and the circulant
    threshold preconditioner C from the sampled symbol, then returns the
    spectrum of C^{-1} F T, computed from the congruent symmetric form
    C^{-1/2} (F T) C^{-1/2} so the eigenvalues come out real and sorted.
    ``eps=None`` skips the preconditioner (spectrum of F T itself).
    """
    op = BlurOperator(psf, "zero", n)
    dense = materialize_dense(op)
    flipped = dense[::-1, :]
    sym_defect = np.abs(flipped - flipped.T).max()
    scale = max(np.abs(flipped).max(), np.finfo(float).tiny)
    if sym_defect > _SYM_RTOL * scale:
        raise ValueError(
            "flip-symmetrized blur is not symmetric "
            f"(defect {sym_defect:.3e}); zero-boundary operators should be "
            "persymmetric, so this indicates a broken operator"
        )
    if eps is None:
        target = flipped
    else:
        grid = circulant_threshold(bccb_eigenvalues(psf, n), eps).eigs
        inv_half = materialize_dense(CirculantOperator(grid ** -0.5), cap=n)
        target = inv_half @ flipped @ inv_half
    target = 0.5 * (target + target.T)
    return np.linalg.eigvalsh(target)


def cluster_report(eigenvalues, eps: float, delta: float) -> ClusterReport:
    """Classify eigenvalues into the three predicted clusters plus outliers.

    Priority order: within ``delta`` of +1, within ``delta`` of -1, within
    ``eps`` of 0, otherwise outlier.  The bands must not touch:
    ``delta + eps < 1``.
    """
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    if delta + eps >= 1.0:
        raise ValueError(
            f"cluster bands overlap: delta + eps = {delta + eps} >= 1"
        )
    vals = np.asarray(eigenvalues, dtype=float).ravel()
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
    op = BlurOperator(psf, "zero", n)
    dense = materialize_dense(op)
    defect = np.abs(dense - dense.T).max()
    if defect > _SYM_RTOL * max(np.abs(dense).max(), np.finfo(float).tiny):
        raise ValueError(f"operator unexpectedly nonsymmetric (defect {defect:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
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
