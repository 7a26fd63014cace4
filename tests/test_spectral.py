"""Empirical eigenvalue clustering and distribution checks (dense, desk scale)."""

import numpy as np
import pytest

from kryblur.operators import BlurOperator, Psf, bccb_eigenvalues, full_grid, materialize_dense
from kryblur.preconditioners import (
    CirculantOperator,
    circulant_abs_tikhonov,
    circulant_threshold,
)
from kryblur.problems import make_gaussian_psf, make_motion_psf
from kryblur.spectral import (
    ClusterReport,
    cluster_report,
    preconditioned_spectrum,
    szego_distribution_check,
)


DELTA = Psf(np.array([[1.0]]), (0, 0))
AVG3 = Psf(np.full((3, 3), 1.0 / 9.0), (1, 1))


# ---------------------------------------------------------------------------
# preconditioned_spectrum


def test_delta_psf_spectrum_is_flip_spectrum():
    for n in (4, 5):
        vals = preconditioned_spectrum(DELTA, n, 0.1)
        total = n * n
        plus = int(np.sum(np.abs(vals - 1.0) <= 1e-12))
        minus = int(np.sum(np.abs(vals + 1.0) <= 1e-12))
        assert plus == (total + 1) // 2
        assert minus == total // 2
        assert plus + minus == total


def test_spectrum_matches_nonsymmetric_dense_oracle():
    psf = make_gaussian_psf(5, 2.0)
    n = 16
    got = np.sort(preconditioned_spectrum(psf, n, 0.1))

    dense_t = materialize_dense(BlurOperator(psf, "zero", n))
    flipped = dense_t[::-1, :]
    grid = circulant_threshold(bccb_eigenvalues(psf, n), 0.1).eigs.real
    c_inv = materialize_dense(CirculantOperator(1.0 / grid), cap=n)
    raw = np.linalg.eigvals(c_inv @ flipped)
    assert np.abs(raw.imag).max() <= 1e-8
    want = np.sort(raw.real)
    assert np.abs(got - want).max() <= 1e-6
    assert grid.min() > 0.0


def _dense_spectrum(psf, n, eps):
    # the reference: C^{-1/2} (Y T) C^{-1/2} from three dense matrices
    target = materialize_dense(BlurOperator(psf, "zero", n))[::-1, :]
    if eps is not None:
        grid = circulant_threshold(bccb_eigenvalues(psf, n), eps).eigs
        inv_half = materialize_dense(CirculantOperator(grid ** -0.5))
        target = inv_half @ target @ inv_half
    return np.linalg.eigvalsh(0.5 * (target + target.T))


@pytest.mark.parametrize("eps", [0.1, None], ids=["eps0.1", "unpreconditioned"])
@pytest.mark.parametrize("psf, n", [(make_gaussian_psf(5, 2.0), 8), (make_gaussian_psf(5, 2.0), 16),
                                    (DELTA, 8)], ids=["gauss5-n8", "gauss5-n16", "delta-n8"])
def test_spectrum_matches_dense_products(psf, n, eps):
    want = _dense_spectrum(psf, n, eps)
    got = preconditioned_spectrum(psf, n, eps)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_spectrum_output_sorted_and_real():
    vals = preconditioned_spectrum(make_gaussian_psf(5, 2.0), 8, 0.1)
    assert vals.dtype.kind == "f"
    assert np.all(np.diff(vals) >= 0.0)
    assert vals.size == 64


def test_unpreconditioned_spectrum_approximates_symbol_distribution():
    # Without the preconditioner the flipped-system eigenvalues distribute as
    # +-|f|: the sorted absolute eigenvalues track the sorted |symbol| samples
    # with a mean absolute deviation that shrinks as n grows.
    psf = make_gaussian_psf(7, 2.0)
    mads = []
    for n in (8, 16, 32):
        vals = preconditioned_spectrum(psf, n, None)
        got = np.sort(np.abs(vals))
        want = np.sort(np.abs(full_grid(bccb_eigenvalues(psf, n))).ravel())
        mads.append(float(np.mean(np.abs(got - want))))
    assert mads[0] > mads[1] > mads[2]
    assert mads[2] < 0.01


def test_spectrum_norm_bound_from_symbol():
    psf = make_gaussian_psf(5, 2.0)
    for n in (8, 16):
        vals = preconditioned_spectrum(psf, n, 0.1)
        grid = circulant_threshold(bccb_eigenvalues(psf, n), 0.1).eigs.real
        sup_f = np.abs(bccb_eigenvalues(psf, 256)).max()
        bound = max(1.0, float(sup_f / grid.min()))
        assert np.abs(vals).max() <= bound + 1e-9


def test_spectrum_respects_dense_cap():
    with pytest.raises(ValueError, match="cap"):
        preconditioned_spectrum(make_gaussian_psf(5, 2.0), 128, 0.1)


# ---------------------------------------------------------------------------
# cluster_report


def test_cluster_report_tiny_example():
    rep = cluster_report([1.0, -1.0, 0.0], eps=0.1, delta=0.1)
    assert (rep.near_plus_one, rep.near_minus_one, rep.noise_band, rep.outliers) == (1, 1, 1, 0)
    assert rep.total == 3
    assert rep.outlier_fraction == 0.0


def test_cluster_report_delta_psf_n4():
    vals = preconditioned_spectrum(DELTA, 4, 0.1)
    rep = cluster_report(vals, eps=0.1, delta=0.2)
    assert (rep.near_plus_one, rep.near_minus_one, rep.noise_band, rep.outliers) == (8, 8, 0, 0)


def test_cluster_report_priority_order():
    # 0.9 is within delta of +1 AND could look like an outlier; +1 wins.
    rep = cluster_report([0.9, -0.9, 0.05, 3.0], eps=0.1, delta=0.2)
    assert (rep.near_plus_one, rep.near_minus_one, rep.noise_band, rep.outliers) == (1, 1, 1, 1)
    assert rep.outlier_fraction == 0.25


def test_cluster_report_validation():
    with pytest.raises(ValueError, match="positive"):
        cluster_report([0.0], eps=0.0, delta=0.2)
    with pytest.raises(ValueError, match="positive"):
        cluster_report([0.0], eps=0.1, delta=-0.1)
    with pytest.raises(ValueError, match="overlap"):
        cluster_report([0.0], eps=0.5, delta=0.5)


@pytest.mark.parametrize("eigenvalues, eps, delta", [
    ([1.0, np.nan], 0.1, 0.2),
    ([1.0, np.inf], 0.1, 0.2),
    ([], 0.1, 0.2),
    ([1.0], np.nan, 0.2),
    ([1.0], 0.1, np.nan),
], ids=["nan-eigenvalue", "inf-eigenvalue", "empty", "nan-eps", "nan-delta"])
def test_cluster_report_refuses_non_finite_or_empty(eigenvalues, eps, delta):
    with pytest.raises(ValueError, match="finite|positive|overlap"):
        cluster_report(eigenvalues, eps=eps, delta=delta)


def test_cluster_counts_sum_to_n_squared():
    vals = preconditioned_spectrum(make_gaussian_psf(5, 2.0), 8, 0.1)
    rep = cluster_report(vals, eps=0.1, delta=0.2)
    assert rep.total == 64
    assert rep.n == 8


def test_outlier_fraction_nonincreasing_across_sizes():
    psf = make_gaussian_psf(5, 2.0)
    fracs = []
    for n in (8, 16, 32):
        vals = preconditioned_spectrum(psf, n, 0.1)
        fracs.append(cluster_report(vals, eps=0.1, delta=0.2).outlier_fraction)
    assert fracs[0] >= fracs[1] >= fracs[2]
    # frozen dense-run values for this PSF/threshold combination
    for got, want in zip(fracs, (10 / 64, 29 / 256, 71 / 1024)):
        assert abs(got - want) <= 0.01


def test_cluster_report_as_text_format():
    rep = ClusterReport(n=4, eps=0.1, delta=0.2, near_plus_one=8,
                        near_minus_one=8, noise_band=0, outliers=0)
    assert rep.as_text() == (
        "n: 4\neps: 0.1\ndelta: 0.2\nnear_plus_one: 8\nnear_minus_one: 8\n"
        "noise_band: 0\noutliers: 0\ntotal: 16\noutlier_fraction: 0.0")


# ---------------------------------------------------------------------------
# smoothed-filter spectrum (frozen dense invariant)


def test_abs_tikhonov_top_eigenvalues_approach_one():
    # Frozen from a dense run: Gaussian 9x9 std-2 PSF, zero boundaries, n=32,
    # alpha=1e-3.  The 82 largest |eigenvalues| of C(filter) Y T all exceed
    # 0.9 (measured minimum 0.9507), the overall maximum is 2.4807, and the
    # fraction above 0.9 is 90/1024.
    psf = make_gaussian_psf(9, 2.0)
    n, alpha = 32, 1e-3
    dense_t = materialize_dense(BlurOperator(psf, "zero", n))
    filt = circulant_abs_tikhonov(bccb_eigenvalues(psf, n), alpha)
    dense_c = materialize_dense(filt, cap=n)
    raw = np.linalg.eigvals(dense_c @ dense_t[::-1, :])
    mags = np.sort(np.abs(raw))
    assert mags[-82:].min() > 0.9
    assert mags.max() <= 2.75
    frac = float(np.mean(mags > 0.9))
    assert 0.08 <= frac <= 0.10


# ---------------------------------------------------------------------------
# szego_distribution_check


def test_szego_delta_psf_zero_discrepancy():
    max_disc, per_moment = szego_distribution_check(DELTA, 8, moments=3)
    assert max_disc <= 1e-12
    assert all(d <= 1e-12 for d in per_moment)


def test_szego_averaging_psf_discrepancy_shrinks():
    d8, _ = szego_distribution_check(AVG3, 8, moments=2)
    d32, _ = szego_distribution_check(AVG3, 32, moments=2)
    assert d32 < d8


def test_szego_first_moment_exact():
    for psf in (AVG3, make_gaussian_psf(5, 1.5)):
        _, per_moment = szego_distribution_check(psf, 12, moments=2)
        assert per_moment[0] <= 1e-12
        # the eigenvalue mean IS the center PSF entry (operator trace / n^2)
        op = BlurOperator(psf, "zero", 12)
        eigs = np.linalg.eigvalsh(materialize_dense(op))
        center = psf.kernel[psf.center]
        assert abs(float(np.mean(eigs)) - center) <= 1e-12


@pytest.mark.parametrize("grid_size", [1024, 1023])
@pytest.mark.parametrize("psf", [AVG3, make_gaussian_psf(9, 2.0)], ids=["avg3", "gauss9"])
def test_szego_half_grid_means_match_full_grid(psf, grid_size):
    # the symbol means come from the half grid, columns 0 (and n/2 for even
    # n) counted once and the others twice; the full grid is the reference
    n = 12
    _, per_moment = szego_distribution_check(psf, n, moments=3, grid_size=grid_size)
    dense = materialize_dense(BlurOperator(psf, "zero", n))
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    symbol = full_grid(bccb_eigenvalues(psf, grid_size)).real
    for m, got in enumerate(per_moment, start=1):
        want = abs(float(np.mean(eigs ** m)) - float(np.mean(symbol ** m)))
        assert abs(got - want) <= 1e-15


def test_szego_rejects_nonsymmetric_psf():
    with pytest.raises(ValueError, match="180-degree"):
        szego_distribution_check(make_motion_psf(5, 30.0), 8)


def test_szego_requires_positive_moments():
    with pytest.raises(ValueError, match="moment"):
        szego_distribution_check(AVG3, 8, moments=0)
