"""Blur operators, adjoints, flip, symbol sampling, dense materialization."""

import time

import numpy as np
import pytest
from scipy import fft as sfft

from kryblur import operators
from kryblur.operators import (
    BlurOperator,
    BoundaryCondition,
    FlipComposedOperator,
    Psf,
    apply_flip,
    bccb_eigenvalues,
    full_grid,
    load_psf,
    materialize_dense,
    save_psf,
)
from kryblur.preconditioners import (
    CirculantOperator,
    ComposedOperator,
    DiagonalOperator,
    circulant_tikhonov,
)
from kryblur.problems import make_gaussian_psf, make_motion_psf, make_two_motion_psf
from kryblur.solvers import LinearMap

from oracles import blur_matrix_direct, flip_matrix, symbol_direct


DELTA = Psf(np.array([[1.0]]), (0, 0))
AVG3 = Psf(np.full((3, 3), 1.0 / 9.0), (1, 1))
ROW_AVG = Psf(np.array([[1.0, 1.0, 1.0]]) / 3.0, (0, 1))
SHIFT = Psf(np.array([[0.0, 1.0]]), (0, 0))  # h_{0,1} = 1


# ---------------------------------------------------------------------------
# Psf type


def test_psf_validation():
    with pytest.raises(ValueError, match="2-D"):
        Psf(np.ones(3), (0, 0))
    with pytest.raises(ValueError, match="finite"):
        Psf(np.array([[np.nan]]), (0, 0))
    with pytest.raises(ValueError, match="center"):
        Psf(np.ones((3, 3)) / 9.0, (3, 0))


def test_psf_symmetry_flags():
    assert AVG3.centrally_symmetric
    motion = make_motion_psf(5, 45.0)
    assert not motion.centrally_symmetric
    # even in each axis separately, so centrally symmetric
    quad = Psf(np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 0.0]]) / 6.0, (1, 1))
    assert quad.centrally_symmetric
    # centrally but not evenly in each axis (diagonal ridge)
    diag = Psf(np.diag([1.0, 2.0, 1.0]) / 4.0, (1, 1))
    assert diag.centrally_symmetric


def test_psf_pad_extents_even_support():
    psf = Psf(np.full((1, 4), 0.25), (0, 0))
    assert psf.pad_extents == (0, 3)


# ---------------------------------------------------------------------------
# bccb_eigenvalues: the symbol on the uniform grid


def test_symbol_delta_is_all_ones():
    # the real-FFT half of the 8x8 grid: columns 0..4
    np.testing.assert_allclose(bccb_eigenvalues(DELTA, 8), np.ones((8, 5)),
                               rtol=0.0, atol=1e-14)


def test_symbol_row_average_entry():
    # f(0, pi/2) = (1 + 2 cos(pi/2)) / 3 = 1/3
    grid = bccb_eigenvalues(ROW_AVG, 4)
    assert abs(grid[0, 1] - 1.0 / 3.0) <= 1e-13


def test_symbol_normalized_psf_dc_entry_is_one():
    for psf in (AVG3, make_gaussian_psf(9, 2.0), make_motion_psf(5, 30.0)):
        grid = bccb_eigenvalues(psf, 16)
        assert abs(grid[0, 0] - 1.0) <= 1e-12


def test_symbol_matches_direct_summation():
    rng = np.random.default_rng(3)
    psf = Psf(rng.standard_normal((3, 4)), (1, 2))
    got = full_grid(bccb_eigenvalues(psf, 8))
    want = symbol_direct(psf, 8)
    assert np.abs(got - want).max() <= 1e-12


def test_symbol_conjugate_symmetry():
    grid = full_grid(bccb_eigenvalues(make_motion_psf(5, 30.0), 8))
    idx = np.arange(8)
    mirrored = grid[np.ix_((8 - idx) % 8, (8 - idx) % 8)]
    assert np.abs(grid - np.conj(mirrored)).max() <= 1e-12


def test_symbol_rejects_oversized_support():
    with pytest.raises(ValueError, match="does not fit"):
        bccb_eigenvalues(make_gaussian_psf(9, 2.0), 8)


def test_bccb_delta_all_ones():
    np.testing.assert_allclose(bccb_eigenvalues(DELTA, 4), np.ones((4, 3)),
                               rtol=0.0, atol=1e-14)


def test_bccb_matches_symbol_gaussian():
    psf = make_gaussian_psf(5, 2.0)
    assert np.abs(full_grid(bccb_eigenvalues(psf, 8)) - symbol_direct(psf, 8)).max() <= 1e-12


def test_bccb_pure_shift():
    grid = full_grid(bccb_eigenvalues(SHIFT, 4))
    j = np.arange(4)
    want = np.exp(1j * 2.0 * np.pi * j / 4.0)[None, :] * np.ones((4, 1))
    assert np.abs(grid - want).max() <= 1e-13


def test_bccb_rejects_oversized_support():
    with pytest.raises(ValueError, match="does not fit"):
        bccb_eigenvalues(make_gaussian_psf(9, 2.0), 4)


# ---------------------------------------------------------------------------
# apply_blur / apply_adjoint


def test_apply_delta_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6))
    for bc in ("zero", "periodic", "reflective"):
        op = BlurOperator(DELTA, bc, 6)
        np.testing.assert_allclose(op.apply(x), x, rtol=0.0, atol=1e-12)


def test_apply_zero_bc_corner_unit_matches_dense_column():
    op = BlurOperator(AVG3, "zero", 4)
    dense = materialize_dense(op)
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    got = op.apply(x).ravel()
    assert np.abs(got - dense[:, 0]).max() <= 1e-13


def test_apply_reflective_preserves_constants():
    for psf in (AVG3, make_gaussian_psf(7, 1.5), make_two_motion_psf(7, 45.0, 135.0)):
        op = BlurOperator(psf, "reflective", 16)
        x = np.full((16, 16), 3.25)
        np.testing.assert_allclose(op.apply(x), x, rtol=0.0, atol=1e-12)


def test_apply_size_mismatch_rejected():
    op = BlurOperator(AVG3, "zero", 8)
    with pytest.raises(ValueError, match="shape"):
        op.apply(np.ones((4, 4)))
    with pytest.raises(ValueError, match="shape"):
        op.apply(np.ones(17))


@pytest.mark.parametrize("bc", ["zero", "periodic", "reflective"])
def test_apply_rejects_complex_input(bc):
    # the imaginary part is not dropped with a warning: complex input fails
    op = BlurOperator(make_motion_psf(5, 30.0), bc, 8)
    rng = np.random.default_rng(12)
    for x in (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
              np.ones(64, dtype=complex)):
        for apply in (op.apply, op.apply_adjoint):
            with pytest.raises(ValueError, match="complex"):
                apply(x)


def test_adjoint_zero_bc_matches_dense_transpose():
    op = BlurOperator(SHIFT, "zero", 4)
    dense = materialize_dense(op)
    rng = np.random.default_rng(1)
    y = rng.standard_normal((4, 4))
    got = op.apply_adjoint(y).ravel()
    assert np.abs(got - dense.T @ y.ravel()).max() <= 1e-12


@pytest.mark.parametrize("bc", ["zero", "periodic", "reflective"])
@pytest.mark.parametrize("psf, n", [
    (make_gaussian_psf(3, 1.0), 5),          # padded grid 7x7: odd last axis
    (make_gaussian_psf(5, 1.2), 8),
    (make_two_motion_psf(4, 45.0, 135.0), 8),  # 4x7, center (3, 3)
    (make_two_motion_psf(4, 45.0, 135.0), 9),  # padded grid 15x15
], ids=["gauss3-n5", "gauss5-n8", "motion2-n8", "motion2-n9"])
def test_dense_matches_direct_index_rules(bc, psf, n):
    op = BlurOperator(psf, bc, n)
    want = blur_matrix_direct(psf, bc, n)
    assert np.abs(materialize_dense(op) - want).max() <= 1e-12
    # column j of the adjoint's matrix is apply_adjoint(e_j)
    adjoint = op.apply_adjoint(np.eye(n * n)).T
    assert np.abs(adjoint - want.T).max() <= 1e-12


def test_adjoint_quadrantally_symmetric_periodic_equals_forward():
    quad = Psf(np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 0.0]]) / 6.0, (1, 1))
    op = BlurOperator(quad, "periodic", 8)
    rng = np.random.default_rng(2)
    y = rng.standard_normal((8, 8))
    np.testing.assert_allclose(op.apply_adjoint(y), op.apply(y), rtol=0.0, atol=1e-12)


def test_adjoint_reflective_nonsymmetric_psf_is_exact_transpose():
    # With reflective padding and a non-centrosymmetric PSF the rotated-PSF
    # companion ("reblurring") is not the transpose: its dense matrix is
    # 0.81 of ||A||_F away for this PSF at n = 8.  The folded adjoint is
    # the transpose to rounding, in the inner product and entry by entry.
    for psf, n in ((make_motion_psf(5, 45.0), 8), (make_two_motion_psf(5, 45.0, 135.0), 12)):
        op = BlurOperator(psf, "reflective", n)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((n, n))
            y = rng.standard_normal((n, n))
            lhs = float(np.vdot(op.apply(x), y))
            rhs = float(np.vdot(x, op.apply_adjoint(y)))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)
        dense = materialize_dense(op)
        adjoint = op.apply_adjoint(np.eye(n * n).reshape(n * n, n, n)).reshape(n * n, n * n).T
        assert np.abs(adjoint - dense.T).max() <= 1e-12 * np.abs(dense).max()
        rotated = Psf(psf.kernel[::-1, ::-1],
                      (psf.shape[0] - 1 - psf.center[0], psf.shape[1] - 1 - psf.center[1]))
        reblur = materialize_dense(BlurOperator(rotated, "reflective", n))
        assert np.linalg.norm(reblur - dense.T) > 0.1 * np.linalg.norm(dense)


def test_adjoint_consistency_zero_and_periodic():
    rng = np.random.default_rng(4)
    for bc in ("zero", "periodic"):
        for psf in (AVG3, make_motion_psf(5, 45.0), make_gaussian_psf(7, 1.5)):
            op = BlurOperator(psf, bc, 8)
            for _ in range(10):
                x = rng.standard_normal((8, 8))
                y = rng.standard_normal((8, 8))
                lhs = float(np.vdot(op.apply(x), y))
                rhs = float(np.vdot(x, op.apply_adjoint(y)))
                bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
                assert abs(lhs - rhs) <= bound


def test_apply_linearity():
    rng = np.random.default_rng(5)
    for bc in ("zero", "periodic", "reflective"):
        op = BlurOperator(make_gaussian_psf(5, 1.0), bc, 8)
        x = rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8))
        a, b = 2.5, -1.25
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_apply_accepts_flat_vectors_and_batches():
    op = BlurOperator(AVG3, "zero", 6)
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((5, 36))
    out = op.apply(batch)
    assert out.shape == (5, 36)
    for i in range(5):
        np.testing.assert_allclose(out[i], op.apply(batch[i].reshape(6, 6)).ravel(),
                                   rtol=0.0, atol=1e-13)


def test_periodic_equals_circulant_with_bccb_eigenvalues():
    psf = make_gaussian_psf(7, 1.5)
    op = BlurOperator(psf, "periodic", 16)
    circ = CirculantOperator(bccb_eigenvalues(psf, 16))
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal((16, 16))
        lhs = op.apply(x)
        rhs = circ.apply(x)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(x)


def test_apply_wall_time_scaling_sanity():
    psf = make_gaussian_psf(9, 2.0)
    op64 = BlurOperator(psf, "reflective", 64)
    op128 = BlurOperator(psf, "reflective", 128)
    rng = np.random.default_rng(8)
    x64 = rng.standard_normal((64, 64))
    x128 = rng.standard_normal((128, 128))
    op64.apply(x64)
    op128.apply(x128)  # warm both transform sizes

    def best_of(op, x, reps=15):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            op.apply(x)
            times.append(time.perf_counter() - start)
        return min(times)

    ratio = best_of(op128, x128) / best_of(op64, x64)
    assert ratio <= 5.0, f"doubling n scaled apply time by {ratio:.2f} (> 5)"


# ---------------------------------------------------------------------------
# the real-FFT filter and its workspace


@pytest.mark.parametrize("shape", [(8, 8), (7, 9), (3, 6, 5)], ids=["8x8", "7x9", "stack"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_rfft_filter_matches_scipy(shape, adjoint):
    rng = np.random.default_rng(31)
    x = rng.standard_normal(shape)
    half = sfft.rfft2(rng.standard_normal(shape[-2:]))  # a real kernel's half spectrum
    grid = x.copy()
    operators._rfft_filter(grid, half, adjoint)
    want = sfft.irfft2(sfft.rfft2(x) * (np.conj(half) if adjoint else half), s=shape[-2:])
    assert np.abs(grid - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_pad_sources_reproduce_np_pad(bc):
    # pads wider than the axis too, which np.pad repeats
    mode = {"zero": "constant", "periodic": "wrap", "reflective": "symmetric"}[bc.value]
    rng = np.random.default_rng(37)
    for n in (1, 2, 5):
        for before, after in ((0, 0), (1, 3), (4, 0), (7, 12)):
            line = rng.standard_normal((2, n))
            got = np.full((2, n + before + after), np.nan)
            got[:, before:before + n] = line
            for target, source in operators._pad_sources(n, before, after, bc):
                got[:, target] = 0.0 if source is None else line[:, source]
            np.testing.assert_array_equal(got, np.pad(line, ((0, 0), (before, after)), mode=mode))


def _apply_cases():
    n = 8
    circ = circulant_tikhonov(bccb_eigenvalues(make_two_motion_psf(4, 45.0, 135.0), n), 0.05)
    cases = {}
    for bc in BoundaryCondition:
        # a 1x1 PSF pads nothing: the grid is the field of view
        for name, psf in (("gauss3", make_gaussian_psf(3, 1.0)), ("1x1", DELTA)):
            op = BlurOperator(psf, bc, n)
            cases[f"blur-{bc.value}-{name}"] = (op.apply, (n * n,))
            cases[f"blur-{bc.value}-{name}-adjoint"] = (op.apply_adjoint, (n, n))
    flip = FlipComposedOperator(BlurOperator(DELTA, "zero", n))
    cases.update({
        "circulant": (circ.apply, (n * n,)),
        "circulant-adjoint": (circ.apply_adjoint, (n, n)),
        "flip": (flip.apply, (n * n,)),
        "flip-adjoint": (flip.apply_adjoint, (n * n,)),
        "blur-stack": (BlurOperator(DELTA, "periodic", n).apply, (3, n, n)),
        "circulant-stack": (circ.apply, (2, n * n)),
    })
    return cases


@pytest.mark.parametrize("case", sorted(_apply_cases()))
def test_applies_return_arrays_of_their_own(case):
    # the filter reuses one workspace; a returned array that aliased it would
    # change under the next apply
    apply, shape = _apply_cases()[case]
    rng = np.random.default_rng(41)
    first = apply(rng.standard_normal(shape))
    kept = first.copy()
    second = apply(rng.standard_normal(shape))
    np.testing.assert_array_equal(first, kept)
    assert not np.shares_memory(first, second)
    for buffer in operators._WORKSPACE._buffers.values():
        assert not np.shares_memory(second, buffer)


# ---------------------------------------------------------------------------
# apply_flip and persymmetry


def test_flip_is_involution():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(64)
    np.testing.assert_array_equal(apply_flip(apply_flip(x)), x)


def test_flip_sends_first_unit_to_last():
    e1 = np.zeros(16)
    e1[0] = 1.0
    flipped = apply_flip(e1)
    assert flipped[-1] == 1.0 and np.count_nonzero(flipped) == 1


def test_flip_matches_exchange_matrix():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(25)
    np.testing.assert_allclose(apply_flip(x), flip_matrix(25) @ x, rtol=0.0, atol=0.0)


def test_dense_flip_identity_zero_bc():
    # Y @ A == A.T @ Y elementwise: zero-boundary blur matrices are persymmetric.
    op = BlurOperator(make_motion_psf(4, 30.0), "zero", 4)
    dense = materialize_dense(op)
    y = flip_matrix(16)
    assert np.abs(y @ dense - dense.T @ y).max() <= 1e-13


def test_persymmetry_invariant_random_vectors():
    rng = np.random.default_rng(11)
    for n in (8, 16):
        op = BlurOperator(make_gaussian_psf(5, 1.0), "zero", n)
        dense = materialize_dense(op)
        xs = rng.standard_normal((100, n * n))
        lhs = np.array([apply_flip(op.apply(x)) for x in xs])
        rhs = (dense.T @ xs[:, ::-1].T).T
        norms = np.linalg.norm(xs, axis=1)
        defect = np.linalg.norm(lhs - rhs, axis=1)
        assert np.all(defect <= 1e-12 * norms)


def test_flip_composed_operator_is_symmetric_for_zero_bc():
    op = BlurOperator(make_motion_psf(4, 30.0), "zero", 6)
    fop = FlipComposedOperator(op)
    dense = materialize_dense(fop)
    assert np.abs(dense - dense.T).max() <= 1e-12
    rng = np.random.default_rng(12)
    x = rng.standard_normal(36)
    np.testing.assert_allclose(fop.apply(x), apply_flip(op.apply(x)),
                               rtol=0.0, atol=0.0)
    np.testing.assert_allclose(fop.apply_adjoint(x),
                               op.apply_adjoint(apply_flip(x)),
                               rtol=0.0, atol=0.0)


# ---------------------------------------------------------------------------
# materialize_dense


def test_dense_delta_is_identity():
    op = BlurOperator(DELTA, "zero", 5)
    np.testing.assert_allclose(materialize_dense(op), np.eye(25), rtol=0.0, atol=1e-14)


def test_dense_zero_bc_is_persymmetric():
    op = BlurOperator(make_two_motion_psf(5, 45.0, 135.0), "zero", 16)
    dense = materialize_dense(op)
    y = flip_matrix(256)
    assert np.abs(y @ dense @ y - dense.T).max() <= 1e-13


def test_dense_periodic_eigenvalues_match_bccb_multiset():
    psf = make_gaussian_psf(5, 1.5)
    op = BlurOperator(psf, "periodic", 8)
    dense = materialize_dense(op)
    got = np.sort_complex(np.linalg.eigvals(dense))
    want = np.sort_complex(full_grid(bccb_eigenvalues(psf, 8)).ravel())
    assert np.abs(got - want).max() <= 1e-8


def test_materialize_dense_of_any_map():
    # maps with no image side: only size and apply are read
    n = 8
    psf = make_motion_psf(4, 30.0)
    circ = circulant_tikhonov(bccb_eigenvalues(psf, n), 0.05)
    units = np.eye(n * n).reshape(n * n, n, n)
    # the definition of a circulant map, fft2(ifft2(x) * g), on every unit image
    dense_circ = np.fft.fft2(np.fft.ifft2(units) * full_grid(circ.eigs)).real
    dense_circ = dense_circ.reshape(n * n, n * n).T
    rng = np.random.default_rng(43)
    mat = rng.standard_normal((n * n, n * n))
    weights = rng.random(n * n)
    cases = [
        (ComposedOperator(BlurOperator(psf, "reflective", n), circ),
         dense_circ @ blur_matrix_direct(psf, "reflective", n)),
        (LinearMap.from_matrix(mat), mat),
        (FlipComposedOperator(LinearMap.from_matrix(mat)), mat[::-1, :]),
        (DiagonalOperator(weights), np.diag(weights)),
    ]
    for op, want in cases:
        assert np.abs(materialize_dense(op) - want).max() <= 1e-12 * np.abs(want).max()


def test_dense_cap_refusal():
    op = BlurOperator(AVG3, "zero", 128)
    with pytest.raises(ValueError, match="cap"):
        materialize_dense(op)
    # still fine when the caller raises the cap explicitly
    small = BlurOperator(AVG3, "zero", 4)
    assert materialize_dense(small, cap=4).shape == (16, 16)


# ---------------------------------------------------------------------------
# boundary conditions and PSF files


def test_boundary_condition_coercion():
    assert BoundaryCondition.coerce("zero") is BoundaryCondition.ZERO
    assert BoundaryCondition.coerce("Periodic") is BoundaryCondition.PERIODIC
    assert BoundaryCondition.coerce(BoundaryCondition.REFLECTIVE) is BoundaryCondition.REFLECTIVE
    with pytest.raises(ValueError, match="boundary"):
        BoundaryCondition.coerce("antireflective")


def test_psf_file_round_trip(tmp_path):
    psf = make_two_motion_psf(6, 30.0, 120.0)
    path = tmp_path / "kernel.psf"
    save_psf(psf, path)
    loaded = load_psf(path)
    np.testing.assert_allclose(loaded.kernel, psf.kernel, rtol=0.0, atol=1e-15)
    assert loaded.center == psf.center


def test_psf_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.psf"
    path.write_text("NOT-A-PSF 1 2 3 4\n")
    with pytest.raises(ValueError, match="PSF"):
        load_psf(path)
