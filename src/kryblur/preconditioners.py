"""Circulant and diagonal preconditioners built from the blur symbol.

A circulant operator is fixed by its eigenvalue grid on the uniform n-by-n
frequency grid.  It acts on real images only, so the grid is
conjugate-symmetric, as the symbol of a real PSF (``bccb_eigenvalues``) and
every grid derived from it below are, and it is given and kept as its
real-FFT half, n-by-(n//2+1).  Application is one real DFT, an elementwise
scale over that half, and one inverse real DFT, the filter the blur uses too,
run in the same per-thread workspace; each apply returns a new array.  The
constructors below map the symbol's half grid to filter-style half grids,
entry by entry:

* ``circulant_tikhonov``      conj(s) / (|s|^2 + alpha), the circulant whose
  application IS the Tikhonov-regularized deconvolution for periodic
  boundaries;
* ``circulant_abs_tikhonov``  |s| / (|s|^2 + alpha), a real smoothed
  approximation to 1/|s| that never amplifies the noise-dominated
  frequencies (every eigenvalue is at most 1/(2*sqrt(alpha)));
* ``circulant_threshold``     |s| where |s| > eps and 1 elsewhere, the
  sharp-cutoff grid whose inverse drives the three-way eigenvalue
  clustering of the flip-symmetrized preconditioned operator;
* ``circulant_sqrt``          the principal square root of a real
  nonnegative grid.

Iteration-dependent variants use a geometric regularization schedule and,
for sparsity, diagonal reweighting from the previous iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import _WORKSPACE, _half_defect, _half_side, _map_input, _rfft_filter

__all__ = [
    "CirculantOperator",
    "DiagonalOperator",
    "IdentityOperator",
    "ComposedOperator",
    "PreconditionerSchedule",
    "circulant_tikhonov",
    "circulant_abs_tikhonov",
    "circulant_threshold",
    "circulant_sqrt",
    "sparsity_weights",
]

#: Absolute tolerance for "real and nonnegative" eigenvalue checks.
HERMITIAN_ATOL = 1e-12

#: Conjugate-symmetry tolerance, relative to max |eigs|, for the real-FFT path.
_IMAG_RTOL = 1e-10


class CirculantOperator:
    """Block-circulant operator on real images, defined by its eigenvalue grid.

    The Fourier mode ``exp(-2j*pi*(p*i + q*j)/n)`` has eigenvalue
    ``g[p, q]``, so the operator is ``fft2(ifft2(x) * g)``.  ``grid`` is the
    real-FFT half ``g[:, :n//2+1]``, of shape (n, n//2+1), and the operator
    is the real-FFT filter with half grid ``conj(grid)``, which is exact
    because the grid is conjugate-symmetric: ``g[i, j] == conj(g[-i, -j])``.
    On the half that is one O(n) condition: columns 0 and n/2 are
    conjugate-symmetric in the row index, ``grid[-i, c] == conj(grid[i, c])``,
    within 1e-10 of max |grid|.  The constructor raises ``ValueError`` for
    any other grid or shape, and the applies for complex input.  Only the
    half is stored, and a real grid stays real.  Each apply takes the input
    of :func:`~kryblur.operators._map_input` and returns a new array of its
    shape, never the filter's workspace.
    """

    def __init__(self, grid: np.ndarray):
        grid = np.asarray(grid)
        self.n = _half_side(grid)
        # the filter's half grid; a real grid is its own conjugate
        self._half = np.conj(grid) if np.iscomplexobj(grid) else np.array(grid, float)
        top = np.abs(grid, out=_WORKSPACE.grid(grid.shape)).max()
        if not math.isfinite(top):
            raise ValueError("circulant eigenvalue grid must be finite")
        defect = _half_defect(grid)
        if not defect <= _IMAG_RTOL * top:
            raise ValueError(
                "circulant eigenvalue grid is not conjugate-symmetric (defect "
                f"{defect:.3e}); only grids of real operators are supported"
            )

    @property
    def eigs(self) -> np.ndarray:
        """The eigenvalue grid's real-FFT half, of shape (n, n//2+1)."""
        return np.conj(self._half) if np.iscomplexobj(self._half) else self._half

    @property
    def size(self) -> int:
        return self.n * self.n

    def _scale(self, x, adjoint: bool):
        arr, batch = _map_input(x, self.size)
        grid = _WORKSPACE.grid(batch + (self.n, self.n))
        grid[...] = arr.reshape(grid.shape)
        _rfft_filter(grid, self._half, adjoint)
        return grid.copy().reshape(arr.shape)

    def apply(self, x):
        return self._scale(x, adjoint=False)

    def apply_adjoint(self, x):
        return self._scale(x, adjoint=True)


class DiagonalOperator:
    """Elementwise multiplication by a fixed nonnegative weight vector, on
    the input of :func:`~kryblur.operators._map_input`."""

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float).ravel()
        if not np.all(np.isfinite(weights)):
            raise ValueError("diagonal weights must be finite")
        self.weights = weights
        self.size = weights.size

    def apply(self, x):
        arr, batch = _map_input(x, self.size)
        return (arr.reshape(batch + (self.size,)) * self.weights).reshape(arr.shape)

    apply_adjoint = apply


class IdentityOperator:
    """The identity map, for reduction tests; it checks its input
    (``operators._map_input``) and returns it, not a copy."""

    def __init__(self, size: int):
        self.size = int(size)

    def apply(self, x):
        _map_input(x, self.size)
        return x

    apply_adjoint = apply


class ComposedOperator:
    """Apply ``first``, then ``second`` (adjoint composes in reverse).

    The sparsity-plus-circulant flexible preconditioner is built as
    ``ComposedOperator(weights, circulant)``: the reweighting acts on the
    vector entering the circulant map, so the frequency-domain filter smooths
    the already-reweighted direction.  The input rule is that of the two
    maps: ``first`` checks the input, ``second`` its image.
    """

    def __init__(self, first, second):
        if first.size != second.size:
            raise ValueError(
                f"cannot compose maps of sizes {first.size} and {second.size}"
            )
        self.first = first
        self.second = second
        self.size = first.size

    def apply(self, x):
        return self.second.apply(self.first.apply(x))

    def apply_adjoint(self, y):
        return self.first.apply_adjoint(self.second.apply_adjoint(y))


def circulant_tikhonov(symbol, alpha: float) -> CirculantOperator:
    """Circulant Tikhonov filter: eigenvalues conj(s) / (|s|^2 + alpha), for
    the symbol's half grid ``s``.

    For periodic boundaries, applying this operator to the blurred data is
    exactly the Tikhonov solution (A^T A + alpha I)^{-1} A^T b.  With
    ``alpha == 0`` it degenerates to plain inversion, which is only allowed
    when no symbol sample vanishes (the half holds every magnitude).
    """
    grid = np.asarray(symbol)
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
    power = np.abs(grid) ** 2
    if alpha == 0.0 and power.min() == 0.0:
        raise ValueError(
            "alpha=0 requested but the symbol grid has a zero sample; "
            "the unregularized inverse is singular"
        )
    # a product with the reciprocal: numpy's complex quotient by a real
    # divisor multiplies by its reciprocal too, so this is conj(s) / d to
    # the bit, in half the time
    return CirculantOperator(np.conj(grid) * (1.0 / (power + alpha)))


def circulant_abs_tikhonov(symbol, alpha: float) -> CirculantOperator:
    """Real smoothed reciprocal-magnitude filter: |s| / (|s|^2 + alpha).

    Every eigenvalue is real, nonnegative, and bounded by 1/(2*sqrt(alpha)),
    so frequencies where the blur symbol is tiny are damped instead of
    amplified.  This is the filter used on the flip-symmetrized system, where
    only magnitudes make sense.  The preconditioned symbol
    |s|^2 / (|s|^2 + alpha) is bounded by 1/(1 + alpha) where |s| <= 1, as for
    a normalized PSF; under zero boundaries O(n) boundary eigenvalues of the
    preconditioned flipped matrix exceed it.
    """
    grid = np.asarray(symbol)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    mag = np.abs(grid)
    return CirculantOperator(mag / (mag ** 2 + alpha))


def circulant_threshold(symbol, eps: float) -> CirculantOperator:
    """Sharp-cutoff magnitude grid: |s| where |s| > eps, and 1 elsewhere.

    The grid is real and at least min(eps-adjacent magnitude, 1) > 0, so the
    operator is symmetric positive definite and inverted by elementwise
    reciprocals.  Samples with |s| exactly eps fall in the "noise" branch and
    map to 1.
    """
    grid = np.asarray(symbol)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    mag = np.abs(grid)
    return CirculantOperator(np.where(mag > eps, mag, 1.0))


def circulant_sqrt(circ: CirculantOperator) -> CirculantOperator:
    """Principal square root of a symmetric PSD circulant.

    Requires the eigenvalue grid to be real and nonnegative within 1e-12 (the
    half grid holds every eigenvalue); grids that are significantly complex
    or negative have no PSD square root and are rejected.
    """
    eigs = circ.eigs
    imag = np.abs(eigs.imag).max() if np.iscomplexobj(eigs) else 0.0
    if imag > HERMITIAN_ATOL:
        raise ValueError(
            f"square root requires a real eigenvalue grid; max imaginary part is {imag:.3e}"
        )
    real = eigs.real
    if real.min() < -HERMITIAN_ATOL:
        raise ValueError(
            "square root requires a nonnegative eigenvalue grid; min is "
            f"{real.min():.3e}"
        )
    return CirculantOperator(np.sqrt(np.clip(real, 0.0, None)))


#: The regularizing filter of each name, the constructor the schedule and the
#: driver's stationary labels both build it with: plain Tikhonov for an
#: unflipped system, absolute-value Tikhonov for a flipped one.
_FILTERS = {"tikhonov": circulant_tikhonov, "abs_tikhonov": circulant_abs_tikhonov}


@dataclass(frozen=True)
class PreconditionerSchedule:
    """How the circulant filter evolves across flexible iterations.

    ``variant`` picks the filter, ``"tikhonov"`` or ``"abs_tikhonov"``;
    ``alpha_at(k)`` returns the regularization parameter for 0-based
    iteration k, ``alpha0 * q**k``, so the first iteration always uses
    ``alpha0`` and ``q = 1`` keeps it at every iteration (``1.0**k`` is 1
    exactly).  The schedule is the one record of the parameter: the
    operators it builds do not keep it.
    """

    variant: str = "tikhonov"
    alpha0: float = 0.1
    q: float = 0.8

    def __post_init__(self):
        if self.variant not in _FILTERS:
            raise ValueError(
                f"unknown preconditioner variant {self.variant!r}; "
                f"expected one of {tuple(_FILTERS)}"
            )
        if not 0.0 < self.alpha0 < math.inf:
            raise ValueError(f"alpha0 must be positive and finite, got {self.alpha0}")
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"q must lie in (0, 1], got {self.q}")

    def alpha_at(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"iteration index must be nonnegative, got {k}")
        return self.alpha0 * self.q ** k

    def build(self, symbol, k: int):
        """The circulant filter for 0-based iteration k, from the symbol's
        half grid."""
        return _FILTERS[self.variant](symbol, self.alpha_at(k))


def sparsity_weights(x_prev: np.ndarray) -> DiagonalOperator:
    """Reweighting diagonal |x|^(1/2) from the previous iterate.

    Entries that are exactly zero stay zero (no shifting); downstream
    flexible solvers must tolerate the resulting rank-deficient directions.
    """
    x = np.asarray(x_prev, dtype=float).ravel()
    return DiagonalOperator(np.sqrt(np.abs(x)))
