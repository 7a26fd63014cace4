"""Independent reference implementations used as test oracles.

Everything here works on explicit dense matrices and, where possible, states
the method as its defining minimization (solve the least-squares problem over
an explicitly orthonormalized basis with ``numpy.linalg.lstsq``) instead of
reusing the recurrences under test.  Slow is fine; these run at desk scale.
"""

from __future__ import annotations

import math

import numpy as np

_BREAK = 1e-14


def flip_matrix(size: int) -> np.ndarray:
    """The exchange (anti-identity) matrix."""
    return np.eye(size)[::-1]


def symbol_direct(psf, n: int) -> np.ndarray:
    """Term-by-term evaluation of the PSF's generating polynomial.

    Entry (i, j) = sum over kernel entries h[r, c] of
    h * exp(1i * ((r - center_row) * 2*pi*i/n + (c - center_col) * 2*pi*j/n)),
    accumulated one kernel entry at a time with no factorization or FFT.
    """
    out = np.zeros((n, n), dtype=complex)
    theta = 2.0 * np.pi * np.arange(n) / n
    kr, kc = psf.kernel.shape
    for r in range(kr):
        for c in range(kc):
            h = psf.kernel[r, c]
            if h == 0.0:
                continue
            off_r = r - psf.center[0]
            off_c = c - psf.center[1]
            out += h * np.exp(1j * (off_r * theta[:, None] + off_c * theta[None, :]))
    return out


def _source_index(k: int, n: int, bc: str):
    """Field-of-view index that supplies out-of-range index k, or None."""
    if bc == "zero":
        return k if 0 <= k < n else None
    if bc == "periodic":
        return k % n
    # half-sample reflection: ... 1 0 | 0 1 ... n-1 | n-1 n-2 ..., period 2n
    k %= 2 * n
    return k if k < n else 2 * n - 1 - k


def blur_matrix_direct(psf, bc: str, n: int) -> np.ndarray:
    """Dense blur matrix built entry by entry from the boundary index rules.

    Output pixel p receives kernel entry h[r, c] times source pixel
    p - (r - center_row, c - center_col); a source outside the field of view
    is dropped (zero), wrapped modulo n (periodic), or mirrored about the
    half-sample edge (reflective).  No FFT and no padding is involved.
    """
    mat = np.zeros((n * n, n * n))
    kr, kc = psf.kernel.shape
    for i in range(n):
        for j in range(n):
            for r in range(kr):
                for c in range(kc):
                    si = _source_index(i - (r - psf.center[0]), n, bc)
                    sj = _source_index(j - (c - psf.center[1]), n, bc)
                    if si is None or sj is None:
                        continue
                    mat[i * n + j, si * n + sj] += psf.kernel[r, c]
    return mat


def dense_tikhonov_solve(mat: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Directly solve (A^T A + alpha I) x = A^T b."""
    size = mat.shape[1]
    return np.linalg.solve(mat.T @ mat + alpha * np.eye(size), mat.T @ b)


def arnoldi_basis(mat: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal Krylov basis via modified Gram-Schmidt, one reorth pass."""
    scale = np.linalg.norm(b)
    basis = [b / scale]
    for _ in range(k - 1):
        w = mat @ basis[-1]
        for _pass in range(2):
            for u in basis:
                w = w - (u @ w) * u
        norm = np.linalg.norm(w)
        if norm <= _BREAK * scale:
            break
        basis.append(w / norm)
    return np.stack(basis, axis=1)


def lanczos_basis(mat: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal Krylov basis of a symmetric map by the three-term
    recurrence (textbook Lanczos, no reorthogonalization)."""
    scale = np.linalg.norm(b)
    v_prev = np.zeros_like(b)
    v = b / scale
    basis = [v]
    beta = 0.0
    for _ in range(k - 1):
        w = mat @ v - beta * v_prev
        alpha = v @ w
        w = w - alpha * v
        beta = np.linalg.norm(w)
        if beta <= _BREAK * scale:
            break
        v_prev, v = v, w / beta
        basis.append(v)
    return np.stack(basis, axis=1)


def _minimize_over(mat, b, basis):
    """Per-iteration residual-minimizing iterates over nested basis prefixes."""
    image = mat @ basis
    res, xs = [], []
    for k in range(1, basis.shape[1] + 1):
        y, *_ = np.linalg.lstsq(image[:, :k], b, rcond=None)
        x = basis[:, :k] @ y
        xs.append(x)
        res.append(float(np.linalg.norm(b - mat @ x)))
    return res, xs


def reference_gmres(mat: np.ndarray, b: np.ndarray, iters: int):
    """GMRES as its definition: minimize ||b - A x|| over the Krylov space,
    by explicit least squares on an Arnoldi basis.  Returns (res_norms, xs)."""
    return _minimize_over(mat, b, arnoldi_basis(mat, b, iters))


def reference_fgmres(mat: np.ndarray, prec_mat_at, b: np.ndarray, iters: int):
    """Flexible GMRES dense oracle: flexible Arnoldi with two passes of
    modified Gram-Schmidt, the directions z_k = P_k v_k stored, and each
    iterate x = Z y with y the least-squares solution of the Hessenberg
    problem ``min ||beta e1 - Hbar y||``.  ``prec_mat_at`` maps the 0-based
    iteration index to a dense preconditioner matrix.  Returns (res_norms,
    xs)."""
    scale = float(np.linalg.norm(b))
    basis, zs = [b / scale], []
    hbar = np.zeros((iters + 1, iters))
    res, xs = [], []
    for k in range(iters):
        zs.append(prec_mat_at(k) @ basis[-1])
        w = mat @ zs[-1]
        for _pass in range(2):
            for i, u in enumerate(basis):
                coef = u @ w
                hbar[i, k] += coef
                w = w - coef * u
        hbar[k + 1, k] = np.linalg.norm(w)
        rhs = np.zeros(k + 2)
        rhs[0] = scale
        y, *_ = np.linalg.lstsq(hbar[:k + 2, :k + 1], rhs, rcond=None)
        x = np.stack(zs, axis=1) @ y
        xs.append(x)
        res.append(float(np.linalg.norm(b - mat @ x)))
        if hbar[k + 1, k] <= _BREAK * scale:
            break
        basis.append(w / hbar[k + 1, k])
    return res, xs


def reference_minres(mat: np.ndarray, b: np.ndarray, iters: int):
    """MINRES as its definition, over a Lanczos basis of the symmetric map."""
    return _minimize_over(mat, b, lanczos_basis(mat, b, iters))


def reference_lsqr(mat: np.ndarray, b: np.ndarray, iters: int):
    """Golub-Kahan / LSQR exactly as published (bidiagonalization plus one
    Givens rotation per step).  Returns (true_res_norms, xs)."""
    size = mat.shape[1]
    x = np.zeros(size)
    beta = float(np.linalg.norm(b))
    u = b / beta
    v = mat.T @ u
    alpha = float(np.linalg.norm(v))
    v = v / alpha
    w = v.copy()
    phibar, rhobar = beta, alpha
    res, xs = [], []
    for _ in range(iters):
        u = mat @ v - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u = u / beta
        v_new = mat.T @ u - beta * v
        alpha_new = float(np.linalg.norm(v_new))
        if alpha_new > 0.0:
            v_new = v_new / alpha_new
        rho = math.hypot(rhobar, beta)
        c, s = rhobar / rho, beta / rho
        theta = s * alpha_new
        rhobar = -c * alpha_new
        phi = c * phibar
        phibar = s * phibar
        x = x + (phi / rho) * w
        w = v_new - (theta / rho) * w
        v, alpha = v_new, alpha_new
        xs.append(x.copy())
        res.append(float(np.linalg.norm(b - mat @ x)))
        if beta <= _BREAK or alpha_new <= _BREAK:
            break
    return res, xs


def reference_cgls(mat: np.ndarray, b: np.ndarray, iters: int):
    """Conjugate gradients on the normal equations A^T A x = A^T b."""
    x = np.zeros(mat.shape[1])
    r = b.copy()
    s = mat.T @ r
    p = s.copy()
    gamma = float(s @ s)
    res, xs = [], []
    for _ in range(iters):
        q = mat @ p
        denom = float(q @ q)
        if denom == 0.0:
            break
        step = gamma / denom
        x = x + step * p
        r = r - step * q
        xs.append(x.copy())
        res.append(float(np.linalg.norm(r)))
        s = mat.T @ r
        gamma_new = float(s @ s)
        if gamma_new <= _BREAK * gamma or gamma_new == 0.0:
            gamma = gamma_new
            break
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return res, xs


def reference_flexible_gk(mat: np.ndarray, prec_mat_at, b: np.ndarray, iters: int):
    """Flexible Golub-Kahan dense oracle.

    Builds the two orthonormal bases explicitly (u from forward images of the
    preconditioned directions, v from adjoint images), stores the directions
    z_k = P_k v_k, and takes each iterate as the explicit least-squares
    minimizer of ||b - A Z y|| over the stored directions.  ``prec_mat_at``
    maps the 0-based iteration index to a dense preconditioner matrix.
    """
    scale = float(np.linalg.norm(b))
    u_basis = [b / scale]
    s = mat.T @ u_basis[0]
    v_basis = [s / np.linalg.norm(s)]
    zs = []
    res, xs = [], []
    for k in range(iters):
        z = prec_mat_at(k) @ v_basis[-1]
        zs.append(z)
        stacked = np.stack(zs, axis=1)
        y, *_ = np.linalg.lstsq(mat @ stacked, b, rcond=None)
        x = stacked @ y
        xs.append(x)
        res.append(float(np.linalg.norm(b - mat @ x)))
        w = mat @ z
        for u in u_basis:
            w = w - (u @ w) * u
        norm_w = float(np.linalg.norm(w))
        if norm_w <= _BREAK * scale:
            break
        u_basis.append(w / norm_w)
        snew = mat.T @ u_basis[-1]
        for v in v_basis:
            snew = snew - (v @ snew) * v
        norm_s = float(np.linalg.norm(snew))
        if norm_s <= _BREAK * scale:
            break
        v_basis.append(snew / norm_s)
    return res, xs


def reference_psnr(x: np.ndarray, x_true: np.ndarray) -> float:
    """Textbook PSNR in dB, ``10 log10(MAX^2 / MSE)``, with the peak MAX taken
    from the reference image."""
    x_true = np.asarray(x_true, dtype=float)
    mse = float(np.mean((np.asarray(x, dtype=float) - x_true) ** 2))
    return 10.0 * math.log10(float(x_true.max()) ** 2 / mse)


def random_symmetric(size: int, seed: int) -> np.ndarray:
    """Well-conditioned random symmetric indefinite matrix: orthogonal
    eigenvectors, eigenvalues of mixed sign with magnitudes in [1, 2]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    mags = rng.uniform(1.0, 2.0, size)
    signs = np.where(rng.uniform(size=size) < 0.5, -1.0, 1.0)
    return (q * (mags * signs)) @ q.T


def random_nonsymmetric(size: int, seed: int) -> np.ndarray:
    """Well-conditioned random nonsymmetric matrix (identity plus a scaled
    Gaussian perturbation, far from singular)."""
    rng = np.random.default_rng(seed)
    return np.eye(size) + 0.5 * rng.standard_normal((size, size)) / math.sqrt(size)


def motion_psf_stepped(length: int, angles):
    """Kernel and center of the one-sided motion PSF, rasterized one pixel at
    a time: step along the major axis of each angle from the center, round
    the minor coordinate, and accumulate ``1/length`` per pixel in a dict of
    offsets before renormalizing."""
    weighted = {}
    for angle in angles:
        theta = math.radians(float(angle))
        col_dir, row_dir = math.cos(theta), -math.sin(theta)
        for t in range(length):
            if abs(col_dir) >= abs(row_dir):
                step = 1 if col_dir >= 0 else -1
                offset = (round(t * step * (row_dir / col_dir)), t * step)
            else:
                step = 1 if row_dir >= 0 else -1
                offset = (t * step, round(t * step * (col_dir / row_dir)))
            weighted[offset] = weighted.get(offset, 0.0) + 1.0 / length
    r_lo = min(r for r, _ in weighted)
    c_lo = min(c for _, c in weighted)
    shape = (max(r for r, _ in weighted) - r_lo + 1, max(c for _, c in weighted) - c_lo + 1)
    kernel = np.zeros(shape)
    for (r, c), w in weighted.items():
        kernel[r - r_lo, c - c_lo] += w
    return kernel / kernel.sum(), (-r_lo, -c_lo)
