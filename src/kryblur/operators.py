"""Structured blur operators on square images.

A point-spread function (PSF) with a designated center pixel defines, for each
boundary condition, a linear operator on n-by-n images.  Images are stacked
row-major into vectors of length n^2; under zero boundary conditions the
operator is block-Toeplitz with Toeplitz blocks, under periodic conditions it
is block-circulant with circulant blocks, and under reflective (half-sample
symmetric) conditions it picks up Toeplitz-plus-Hankel corrections.  All three
are applied through one code path: pad the image according to the boundary
rule, circularly convolve on the padded grid with real FFTs (the image and the
kernel are real, so only half of each spectrum is formed), and crop back to
the field of view.  The circulant preconditioners apply their eigenvalue grids
through the same real-FFT filter, and every map takes input by :func:`_map_input`.

The filter of a single image runs in one workspace per thread: one real grid
and one half spectrum, grown to the largest grid seen and reused by every
blur and circulant apply, so a steady-state Krylov step allocates no
image-size temporaries.  The filter is not re-entrant: the grid it leaves
behind is overwritten by the next apply, so operators hand their callers a
copy of it, never the workspace.  A stack of images (dense materialization)
gets buffers of its own.

The trigonometric polynomial generated by the PSF (its "symbol") ties the
operator to its circulant relatives: sampled on the uniform n-by-n frequency
grid it gives exactly the eigenvalues of the periodic-boundary operator.
:func:`bccb_eigenvalues` is the one evaluator of that grid.  A real PSF has
a conjugate-symmetric grid, so it is kept as its real-FFT half, n-by-(n//2+1):
the symbol, every circulant preconditioner and the filter all work on that
half, and :func:`full_grid` expands it only where every frequency is read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import fft as _fft

__all__ = [
    "BoundaryCondition",
    "Psf",
    "BlurOperator",
    "FlipComposedOperator",
    "bccb_eigenvalues",
    "full_grid",
    "apply_flip",
    "materialize_dense",
    "load_psf",
    "save_psf",
]

#: Entry tolerance of the kernel symmetry predicate.
_SYMMETRY_ATOL = 1e-12

#: Largest n for which dense materialization is allowed by default.
DENSE_CAP = 64


class BoundaryCondition(Enum):
    """How the scene continues past the field of view."""

    ZERO = "zero"
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"

    @classmethod
    def coerce(cls, value) -> "BoundaryCondition":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown boundary condition {value!r}; expected one of {names}"
            ) from None


@dataclass(frozen=True)
class Psf:
    """A point-spread function: a real kernel plus the index of its center.

    The center entry is the response at the source pixel itself; entry
    (i, j) of the kernel sits at spatial offset (i - center[0], j - center[1]).
    An explicit center keeps even-extent kernels (e.g. rasterized motion
    smears) unambiguous.
    """

    kernel: np.ndarray
    center: tuple[int, int]

    def __post_init__(self):
        kernel = np.array(self.kernel, dtype=float)
        if kernel.ndim != 2 or kernel.size == 0:
            raise ValueError("PSF kernel must be a non-empty 2-D array")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("PSF kernel entries must be finite")
        kernel.setflags(write=False)
        cr, cc = (int(self.center[0]), int(self.center[1]))
        if not (0 <= cr < kernel.shape[0] and 0 <= cc < kernel.shape[1]):
            raise ValueError(
                f"PSF center {(cr, cc)} outside kernel of shape {kernel.shape}"
            )
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "center", (cr, cc))

    @property
    def shape(self) -> tuple[int, int]:
        return self.kernel.shape

    @property
    def row_offsets(self) -> np.ndarray:
        return np.arange(self.kernel.shape[0]) - self.center[0]

    @property
    def col_offsets(self) -> np.ndarray:
        return np.arange(self.kernel.shape[1]) - self.center[1]

    @property
    def pad_extents(self) -> tuple[int, int]:
        """Largest spatial offset magnitude per axis (required pad width)."""
        kr, kc = self.kernel.shape
        cr, cc = self.center
        return max(cr, kr - 1 - cr), max(cc, kc - 1 - cc)

    @property
    def centrally_symmetric(self) -> bool:
        """True when the kernel equals its 180-degree rotation."""
        # The kernel on the smallest canvas symmetric about the center, so
        # kernels with the same entries but different trailing zeros compare
        # equal; the canvas reversed is the rotated kernel.
        pr, pc = self.pad_extents
        canvas = np.zeros((2 * pr + 1, 2 * pc + 1))
        canvas[np.ix_(self.row_offsets + pr, self.col_offsets + pc)] = self.kernel
        return bool(np.allclose(canvas, canvas[::-1, ::-1], rtol=0.0,
                                atol=_SYMMETRY_ATOL))


def _check_support(psf: Psf, n: int):
    kr, kc = psf.kernel.shape
    if kr > n or kc > n:
        raise ValueError(
            f"PSF support {kr}x{kc} does not fit inside a {n}x{n} field of view"
        )


class _Workspace(threading.local):
    """One real and one complex buffer per thread, grown to the largest
    single-image grid seen."""

    def __init__(self):
        self._buffers = {float: np.empty(0), complex: np.empty(0, complex)}

    def grid(self, shape, dtype=float) -> np.ndarray:
        """An uninitialized array of ``shape``: for one image a view of the
        buffer of ``dtype``, valid until the next call; for a stack a new
        array."""
        if len(shape) != 2:
            return np.empty(shape, dtype)
        size = shape[0] * shape[1]
        if self._buffers[dtype].size < size:
            self._buffers[dtype] = np.empty(size, dtype)
        return self._buffers[dtype][:size].reshape(shape)


_WORKSPACE = _Workspace()


def _first_circulant_column(psf: Psf, shape: tuple[int, int]) -> np.ndarray:
    # Kernel entries spread on a grid of the given shape at their offsets
    # taken modulo the grid: the first column of the periodic-boundary
    # operator on that grid.  Built in the filter's workspace, so it is
    # valid until the next filter.
    canvas = _WORKSPACE.grid(shape)
    canvas[...] = 0.0
    canvas[np.ix_(psf.row_offsets % shape[0], psf.col_offsets % shape[1])] = psf.kernel
    return canvas


def bccb_eigenvalues(psf: Psf, n: int) -> np.ndarray:
    """The PSF symbol on the uniform n-by-n frequency grid, as its real-FFT
    half: the eigenvalue grid of the periodic-boundary operator, and the one
    symbol evaluator.

    Entry (i, j) is  sum_{r,c} h[r,c] * exp(1i*(r*2*pi*i/n + c*2*pi*j/n))
    with (r, c) running over spatial offsets from the center, for the columns
    j = 0..n//2 that determine the rest (``g[i, j] == conj(g[-i, -j])`` for a
    real PSF; see :func:`full_grid`).  It is computed as the conjugated real
    2-D DFT of the first circulant column (the circularly shifted PSF), so the
    cost does not grow with the PSF support.  Columns 0 and n/2 hold each
    conjugate pair twice; their rows past n/2 are taken from their mirrors,
    and the entries that are their own mirrors are real, so the half is
    exactly conjugate-symmetric.  For a normalized PSF the (0, 0) entry is 1.
    """
    _check_support(psf, n)
    half = np.empty((n, n // 2 + 1), complex)
    np.fft.rfft2(_first_circulant_column(psf, (n, n)), out=half)
    np.conjugate(half, out=half)
    own = _self_mirrored(n)
    for c in own:
        half[n // 2 + 1:, c] = np.conj(half[(n - 1) // 2:0:-1, c])
    half[np.ix_(own, own)] = half[np.ix_(own, own)].real
    return half


def _self_mirrored(n: int) -> tuple[int, ...]:
    # the frequencies k with -k = k modulo n, 0 and n/2: the columns of a
    # half grid that hold their own mirrors, and the rows where they meet
    return (0,) if n % 2 else (0, n // 2)


def _half_side(grid: np.ndarray) -> int:
    """The side n of the n-by-n grid whose real-FFT half is ``grid``, of shape
    (n, n//2+1); raises ``ValueError`` for any other shape."""
    if grid.ndim != 2 or grid.size == 0 or grid.shape[1] != grid.shape[0] // 2 + 1:
        raise ValueError(
            "expected the real-FFT half of a square grid, of shape (n, n//2+1); "
            f"got shape {grid.shape}"
        )
    return grid.shape[0]


def _half_defect(grid: np.ndarray) -> float:
    """How far a half grid is from the half of a real operator's grid: the
    largest ``|g[-i, c] - conj(g[i, c])|`` over the self-conjugate columns
    c = 0 and n/2.  Every other half grid extends to a conjugate-symmetric
    n-by-n grid, so this O(n) reading is the whole condition."""
    n = _half_side(grid)
    cols = grid[:, _self_mirrored(n)]
    return float(np.abs(cols[-np.arange(n)] - np.conj(cols)).max())


def full_grid(half: np.ndarray) -> np.ndarray:
    """The n-by-n grid whose real-FFT half is ``half``: the columns past n//2
    are the conjugates at the mirrored frequencies, ``g[i, j] =
    conj(g[-i, n - j])``.  For reading every frequency (symbol output,
    means over the grid, tests); solvers and preconditioners never need it."""
    n = _half_side(half)
    full = np.empty((n, n), half.dtype)
    full[:, :n // 2 + 1] = half
    full[:, n // 2 + 1:] = np.conj(half[-np.arange(n), (n - 1) // 2:0:-1])
    return full


def _map_input(x, size: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The one input rule of every map a solver is handed, on ``size``
    entries: real flat vectors of length ``size`` or n-by-n images with n**2 =
    ``size``, batched along leading axes.  Returns the float array (the input
    itself when it is one) and its batch shape; complex input and any other
    shape raise ``ValueError``.  Maps return results in the input's shape."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ValueError("expected real input, got complex input")
    arr = arr.astype(float, copy=False)
    if arr.shape[-1:] == (size,):
        return arr, arr.shape[:-1]
    n = math.isqrt(size)
    if n * n == size and arr.shape[-2:] == (n, n):
        return arr, arr.shape[:-2]
    raise ValueError(f"expected vectors of {size} entries (or square images of as many "
                     f"pixels), batched along leading axes; got shape {arr.shape}")


def _rfft_filter(grid: np.ndarray, half: np.ndarray, adjoint: bool):
    # Multiply the real images of ``grid`` in place by a conjugate-symmetric
    # frequency grid given as its half spectrum ``half``, or by its conjugate.
    # numpy.fft writes every transform into the workspace spectrum; n= restores
    # the last axis, whose length may be odd.
    spec = _WORKSPACE.grid(grid.shape[:-1] + (grid.shape[-1] // 2 + 1,), complex)
    np.fft.rfft2(grid, out=spec)
    if adjoint:  # conj(conj(S) H) = S conj(H), without a conjugated copy of H
        np.conjugate(spec, out=spec)
    np.multiply(spec, half, out=spec)
    if adjoint:
        np.conjugate(spec, out=spec)
    np.fft.ifft(spec, axis=-2, out=spec)
    np.fft.irfft(spec, n=grid.shape[-1], axis=-1, out=grid)


#: The np.pad mode of each boundary rule.
_PAD_MODES = {BoundaryCondition.ZERO: "constant", BoundaryCondition.PERIODIC: "wrap",
              BoundaryCondition.REFLECTIVE: "symmetric"}


def _pad_sources(n: int, before: int, after: int, bc: BoundaryCondition):
    # The pad positions of one axis with the field-of-view index each copies
    # (None for a zero), read off np.pad of the 1-based indices.
    padded = (np.pad(np.arange(1, n + 1), (before, after), _PAD_MODES[bc]) - 1).tolist()
    return [(t, None if padded[t] < 0 else padded[t])
            for t in [*range(before), *range(before + n, before + n + after)]]


def apply_flip(x: np.ndarray) -> np.ndarray:
    """Reverse the stacked pixel order (the anti-identity / exchange matrix).

    On a flat vector this reverses all entries; on an image it reverses both
    axes, which is the same permutation through row-major stacking.  Applying
    it twice is the identity.
    """
    return np.flip(x)


class BlurOperator:
    """Blur of n-by-n images by a PSF under a fixed boundary condition.

    Application pads the image per the boundary rule into the workspace grid,
    multiplies its real-FFT half spectrum by the cached half spectrum of the
    kernel, transforms back (the result is real by construction), and returns
    a copy of the field of view.  The padded grid is rounded up to an
    FFT-friendly length; extra padding follows the same boundary rule and
    cannot reach the field of view, so results are independent of the
    rounding.

    ``apply_adjoint`` is the exact transpose under every boundary rule, run
    as the transpose of each stage in reverse: the image goes into the field
    of view with zero pads, the filter multiplies by the conjugate kernel
    spectrum (a blur with the 180-degree-rotated PSF), and each pad is folded
    back onto the pixel it copied, rows first, then columns.  Under zero
    boundaries there is nothing to fold.  Under reflective boundaries with a
    non-symmetric kernel this differs from the "reblurring" companion (the
    rotated PSF under the same boundary rule), which is not the transpose.
    """

    def __init__(self, psf: Psf, bc, n: int):
        bc = BoundaryCondition.coerce(bc)
        _check_support(psf, n)
        self.psf = psf
        self.bc = bc
        self.n = int(n)
        pr, pc = psf.pad_extents
        mr = _fft.next_fast_len(n + 2 * pr)
        mc = _fft.next_fast_len(n + 2 * pc)
        self._grid_shape = (mr, mc)
        self._view = (slice(pr, pr + n), slice(pc, pc + n))
        self._row_pads = _pad_sources(n, pr, mr - n - pr, bc)
        self._col_pads = _pad_sources(n, pc, mc - n - pc, bc)
        self._kernel_hat = np.fft.rfft2(_first_circulant_column(psf, (mr, mc)))

    @property
    def size(self) -> int:
        """Length of the stacked image vectors this operator acts on."""
        return self.n * self.n

    def _convolve(self, x, adjoint: bool):
        arr, batch = _map_input(x, self.size)
        grid = _WORKSPACE.grid(batch + self._grid_shape)
        rows, cols = self._view
        grid[..., rows, cols] = arr.reshape(batch + (self.n, self.n))
        # pad as np.pad does, one axis after the other, from inside the grid;
        # the transpose of cropping fills the pads with zeros
        for t, s in self._col_pads:
            grid[..., rows, t] = 0.0 if s is None or adjoint else grid[..., rows, cols.start + s]
        for t, s in self._row_pads:
            grid[..., t, :] = 0.0 if s is None or adjoint else grid[..., rows.start + s, :]
        _rfft_filter(grid, self._kernel_hat, adjoint)
        if adjoint:  # the transpose of padding: fold each pad onto its source
            for t, s in self._row_pads:
                if s is not None:
                    grid[..., rows.start + s, :] += grid[..., t, :]
            for t, s in self._col_pads:
                if s is not None:
                    grid[..., rows, cols.start + s] += grid[..., rows, t]
        # a copy: the field of view can be the whole grid, the workspace itself
        return grid[..., rows, cols].copy().reshape(arr.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Blur.  Takes a real n-by-n image or a flat length-n^2 vector, batched
        (:func:`_map_input`); returns a new array of the same shape."""
        return self._convolve(x, adjoint=False)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """The transpose of :meth:`apply`, for every boundary rule."""
        return self._convolve(y, adjoint=True)


class FlipComposedOperator:
    """The base operator followed by the stacked-order flip.

    When the base operator is persymmetric (zero or periodic boundaries, and
    any boundary rule whose matrix satisfies flip*A*flip = A^T), the composed
    map is symmetric, which is what makes MINRES applicable to deblurring.
    The adjoint composes the base adjoint after the flip, so it is the exact
    transpose; under reflective boundaries with a non-symmetric PSF the
    composed map is still not symmetric, since A is not persymmetric there.
    ``apply`` returns a reversed view of the base operator's output.
    """

    def __init__(self, base):
        self.base = base
        self.size = base.size

    def _flip(self, arr):
        # reverses the pixel axes only, so stacked inputs keep their order
        arr, batch = _map_input(arr, self.size)
        return arr[..., ::-1] if arr.ndim == len(batch) + 1 else arr[..., ::-1, ::-1]

    def apply(self, x):
        return self._flip(self.base.apply(x))

    def apply_adjoint(self, y):
        return self.base.apply_adjoint(self._flip(y))


def materialize_dense(op, cap: int = DENSE_CAP) -> np.ndarray:
    """Assemble the dense matrix of any map with ``size`` and ``apply``.

    Column j is the map applied to the j-th unit vector, applied in flat
    batches, so this is an oracle for structural checks (persymmetry,
    transpose identities, dense eigensolves) rather than a fast path.
    Refuses maps on more than ``cap**2`` entries (images larger than
    ``cap``-by-``cap``, default 64) to keep memory at desk scale.
    """
    size = op.size
    if size > cap * cap:
        raise ValueError(
            f"dense materialization refused for size={size} > cap**2={cap * cap}; "
            "raise cap explicitly if you really want a size x size matrix"
        )
    out = np.empty((size, size))
    chunk = 128
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        out[:, start:stop] = op.apply(np.eye(stop - start, size, start)).T
    return out


# ---------------------------------------------------------------------------
# PSF file format: a header line "PSF n_rows n_cols center_row center_col"
# followed by whitespace-separated kernel entries in row-major order.
# ---------------------------------------------------------------------------

def load_psf(path) -> Psf:
    """Read a PSF from the plain-text kernel format."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens = text.split()
    if len(tokens) < 5 or tokens[0].upper() != "PSF":
        raise ValueError(f"{path}: not a PSF file (missing 'PSF' header)")
    try:
        kr, kc, cr, cc = (int(t) for t in tokens[1:5])
        values = np.array([float(t) for t in tokens[5:]])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed PSF file: {exc}") from None
    if values.size != kr * kc:
        raise ValueError(
            f"{path}: header promises {kr * kc} entries, file has {values.size}"
        )
    return Psf(values.reshape(kr, kc), (cr, cc))


def save_psf(psf: Psf, path):
    """Write a PSF in the plain-text kernel format."""
    kr, kc = psf.kernel.shape
    cr, cc = psf.center
    lines = [f"PSF {kr} {kc} {cr} {cc}"]
    for row in psf.kernel:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
