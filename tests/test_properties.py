"""Property tests over random PSFs, boundary rules and image sides 1..16.

Each property is drawn from a fixed sequence of examples (``derandomize``), so
the suite stays reproducible and its run time bounded.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kryblur.operators import (  # noqa: E402
    BlurOperator,
    BoundaryCondition,
    FlipComposedOperator,
    Psf,
    apply_flip,
    bccb_eigenvalues,
    full_grid,
    materialize_dense,
)
from kryblur.preconditioners import (  # noqa: E402
    CirculantOperator,
    ComposedOperator,
    DiagonalOperator,
    IdentityOperator,
    PreconditionerSchedule,
    circulant_abs_tikhonov,
    circulant_sqrt,
    circulant_threshold,
    circulant_tikhonov,
)
from kryblur.solvers import LinearMap, StoppingRule, gmres, lsqr, minres  # noqa: E402

from oracles import symbol_direct  # noqa: E402

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@st.composite
def blur_cases(draw):
    """A side n in 1..16, a PSF that fits in it (any shape, any center, real
    entries of either sign), a boundary rule, and a seed for test vectors."""
    n = draw(st.integers(1, 16))
    kr, kc = draw(st.integers(1, n)), draw(st.integers(1, n))
    center = (draw(st.integers(0, kr - 1)), draw(st.integers(0, kc - 1)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kernel = np.random.default_rng(seed).uniform(-1.0, 1.0, (kr, kc))
    bc = draw(st.sampled_from(list(BoundaryCondition)))
    return n, Psf(kernel, center), bc, seed


@st.composite
def half_grids(draw):
    """The half of a real circulant's grid: random complex entries, with the
    self-conjugate columns 0 and n/2 made conjugate-symmetric in the row
    index.  Nothing else constrains a half grid."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = n // 2 + 1
    half = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    for c in {0, n // 2} if n % 2 == 0 else {0}:
        column = half[:, c]
        column[:] = 0.5 * (column + np.conj(column[-np.arange(n)]))
    return half


def _dense_circulant(grid):
    # column j: fft2(ifft2(e_j) * grid), the eigen-decomposition itself
    n = grid.shape[0]
    units = np.eye(n * n).reshape(n * n, n, n)
    return np.fft.fft2(np.fft.ifft2(units) * grid).reshape(n * n, n * n).T


@PROPERTY
@given(blur_cases(), st.floats(1e-4, 1.0), st.floats(0.01, 0.99))
def test_half_grid_constructors_match_full_grid_formulas(case, alpha, eps):
    n, psf, _, _ = case
    half = bccb_eigenvalues(psf, n)
    assert half.shape == (n, n // 2 + 1)
    symbol = full_grid(half)
    # exactly conjugate-symmetric, in the columns the half holds too
    mirror = -np.arange(n)
    np.testing.assert_array_equal(symbol, np.conj(symbol[np.ix_(mirror, mirror)]))
    scale = np.abs(psf.kernel).sum()
    assert np.abs(symbol - symbol_direct(psf, n)).max() <= 1e-12 * scale
    mag = np.abs(symbol)
    abs_tik = mag / (mag ** 2 + alpha)
    formulas = (
        (circulant_tikhonov(half, alpha), np.conj(symbol) / (mag ** 2 + alpha)),
        (circulant_abs_tikhonov(half, alpha), abs_tik),
        (circulant_threshold(half, eps), np.where(mag > eps, mag, 1.0)),
        (circulant_sqrt(circulant_abs_tikhonov(half, alpha)), np.sqrt(abs_tik)),
        (PreconditionerSchedule("tikhonov", alpha, 0.5).build(half, 1),
         np.conj(symbol) / (mag ** 2 + alpha / 2)),
    )
    for circ, want in formulas:
        assert circ.eigs.shape == half.shape
        got = full_grid(circ.eigs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the real grids stay real
    for circ in (formulas[1][0], formulas[2][0], formulas[3][0]):
        assert not np.iscomplexobj(circ.eigs)


@PROPERTY
@given(half_grids())
def test_circulant_matches_dense_circulant_of_expanded_grid(half):
    n = half.shape[0]
    dense = _dense_circulant(full_grid(half))
    scale = np.abs(half).max()
    # a conjugate-symmetric grid: the dense circulant is real
    assert np.abs(dense.imag).max() <= 1e-12 * scale
    circ = CirculantOperator(half)
    assert np.abs(materialize_dense(circ, cap=n) - dense.real).max() <= 1e-12 * scale
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n * n)
    adjoint_gap = np.abs(circ.apply_adjoint(y) - dense.real.T @ y).max()
    assert adjoint_gap <= 1e-12 * scale * np.abs(y).sum()


@PROPERTY
@given(half_grids(), st.data())
def test_circulant_rejects_a_self_conjugate_column_that_is_not(half, data):
    n = half.shape[0]
    column = data.draw(st.sampled_from([0, n // 2] if n % 2 == 0 else [0]))
    row = data.draw(st.integers(0, n - 1))
    bad = half.copy()
    # the partner of (row, column) is (-row, column); a self-mirrored entry
    # (row 0 or n/2) must be real, every other pair conjugate
    bad[row, column] += 1j if row in (0, n - row) else 1.0
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        CirculantOperator(bad)


@PROPERTY
@given(blur_cases())
def test_adjoint_is_the_transpose_for_every_boundary_rule(case):
    n, psf, bc, seed = case
    rng = np.random.default_rng(seed)
    scale = np.abs(psf.kernel).sum()
    for op in (BlurOperator(psf, bc, n), FlipComposedOperator(BlurOperator(psf, bc, n))):
        x, y = rng.standard_normal((2, n, n))
        lhs = float(np.vdot(op.apply(x), y))
        rhs = float(np.vdot(x, op.apply_adjoint(y)))
        assert abs(lhs - rhs) <= 1e-12 * scale * np.linalg.norm(x) * np.linalg.norm(y)


@PROPERTY
@given(blur_cases())
def test_flat_image_and_batched_inputs_agree(case):
    n, psf, bc, seed = case
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((3, n, n))
    circ = circulant_abs_tikhonov(bccb_eigenvalues(psf, n), 0.1)
    for op in (BlurOperator(psf, bc, n), circ):
        for apply in (op.apply, op.apply_adjoint):
            one = np.stack([apply(image) for image in images])
            assert one.shape == images.shape
            scale = np.abs(one).max() + 1.0
            flat = np.stack([apply(image.ravel()) for image in images])
            np.testing.assert_allclose(flat, one.reshape(3, n * n), rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(apply(images), one, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(apply(images.reshape(3, n * n)), flat,
                                       rtol=0, atol=1e-13 * scale)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(blur_cases())
def test_every_map_keeps_the_one_input_contract(case):
    # each map the package hands a solver takes real flat vectors of its
    # size or n-by-n images, batched, returns the shape it was given, and
    # rejects complex input and every other shape with ValueError
    n, psf, _, seed = case
    rng = np.random.default_rng(seed)
    size = n * n
    blurs = [BlurOperator(psf, bc, n) for bc in BoundaryCondition]
    circ = circulant_abs_tikhonov(bccb_eigenvalues(psf, n), 0.1)
    weights = DiagonalOperator(rng.uniform(0.0, 2.0, size))
    maps = [*blurs, FlipComposedOperator(blurs[2]), circ, weights, IdentityOperator(size),
            ComposedOperator(weights, circ),
            LinearMap.from_matrix(rng.standard_normal((size, size)))]
    images = rng.standard_normal((3, n, n))
    for op in maps:
        for apply in (op.apply, op.apply_adjoint):
            flat = np.stack([apply(image.ravel()) for image in images])
            assert flat.shape == (3, size)
            scale = np.abs(flat).max() + 1.0
            one = np.stack([apply(image) for image in images])
            np.testing.assert_allclose(one.reshape(3, size), flat, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(apply(images), one, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(apply(images.reshape(3, size)), flat,
                                       rtol=0, atol=1e-13 * scale)
            for bad in (images[0] + 1j, np.ones(size, complex), np.ones(size + 1),
                        np.ones((n + 1, n + 1)), np.ones((2, size - 1))):
                with pytest.raises(ValueError):
                    apply(bad)
    # the flip is a reversed view, the identity its input
    assert FlipComposedOperator(blurs[0]).apply(images[0]).strides[-1] < 0
    assert IdentityOperator(size).apply(images) is images


@PROPERTY
@given(blur_cases(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_linearity_flip_involution_and_persymmetry(case, a, b):
    n, psf, bc, seed = case
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, n, n))
    op = BlurOperator(psf, bc, n)
    scale = np.abs(psf.kernel).sum() * (abs(a) + abs(b) + 1.0) * np.abs([x, y]).max()
    for apply in (op.apply, op.apply_adjoint):
        gap = np.abs(apply(a * x + b * y) - (a * apply(x) + b * apply(y))).max()
        assert gap <= 1e-12 * scale
    np.testing.assert_array_equal(apply_flip(apply_flip(x)), x)
    np.testing.assert_array_equal(apply_flip(x.ravel()), apply_flip(x).ravel())
    if bc is not BoundaryCondition.REFLECTIVE:
        # Y A is symmetric: <Y A x, y> = <x, Y A y>
        flipped = FlipComposedOperator(op)
        lhs = float(np.vdot(flipped.apply(x), y))
        rhs = float(np.vdot(x, flipped.apply(y)))
        bound = 1e-12 * np.abs(psf.kernel).sum() * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= bound


@PROPERTY
@given(blur_cases())
def test_projected_residuals_do_not_increase(case):
    # GMRES, LSQR and MINRES minimize ||b - A x|| over nested Krylov spaces
    n, psf, bc, seed = case
    op = BlurOperator(psf, bc, n)
    b = np.random.default_rng(seed).standard_normal(n * n)
    rule = StoppingRule(max_iter=8)
    records = [gmres(op, b, rule), lsqr(op, b, rule)]
    if bc is not BoundaryCondition.REFLECTIVE:
        records.append(minres(FlipComposedOperator(op), apply_flip(b), rule))
    for record in records:
        res = np.array([np.linalg.norm(b)] + record.res_norm)
        assert np.all(np.diff(res) <= 1e-12 * res[0])
