"""Reconstruction quality metrics.

Each formula is defined once, on the squared error norm, so a solver that
already holds ``||x - x_true||^2`` (from one dot product) and the cached
reference scalars evaluates both without forming another error vector.
"""

from __future__ import annotations

import math

__all__ = ["rre_from_error", "psnr_from_error"]


def rre_from_error(err2: float, ref_norm: float) -> float:
    """Relative reconstruction error from ``||x - x_true||^2`` and
    ``||x_true||``."""
    if ref_norm == 0.0:
        raise ValueError("RRE is undefined for an all-zero reference image")
    return math.sqrt(err2) / ref_norm


def psnr_from_error(err2: float, peak: float, size: int) -> float:
    """PSNR in dB from ``||x - x_true||^2``, the reference peak
    ``max(x_true)`` and the pixel count: 10*log10(peak^2 * size / err2), and
    ``math.inf`` for a perfect reconstruction."""
    if err2 == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak * size / err2)

