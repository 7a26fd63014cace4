"""Krylov solvers for ill-posed deblurring systems.

All solvers start from the zero vector, run at most ``max_iter`` steps, and
rely on early termination (discrepancy principle) rather than convergence:
on noisy data the error semi-converges, so the iteration count is the
regularization parameter.

Implemented methods:

* ``minres``          Lanczos three-term recurrence with Givens updates, for
  symmetric (possibly indefinite) maps such as the flip-symmetrized blur;
* ``minres_sym_prec`` MINRES on the two-sided symmetrically preconditioned
  system, reporting residuals of the original system;
* ``gmres``           full (non-restarted) Arnoldi, optional stationary right
  preconditioner;
* ``fgmres``          flexible Arnoldi: the preconditioner may change every
  iteration, the preconditioned directions are stored;
* ``lsqr``            Golub-Kahan bidiagonalization (no reorthogonalization),
  needs the adjoint; one iteration costs two operator applications;
* ``flsqr``           flexible Golub-Kahan with iteration-dependent right
  preconditioning and full orthogonalization of both bases.

``gmres``, ``fgmres`` and ``flsqr`` share one Arnoldi engine.  It keeps
preallocated bases orthonormal by classical Gram-Schmidt with delayed
reorthogonalization (DCGS2) in two passes a step, the second of which also
writes the iterate and ``b - A x`` from the Arnoldi relation.  The short
recurrences (MINRES and ``lsqr``) update ``b - A x`` with the same scalars as
the iterate, from images of the directions they already hold.

Each run returns a :class:`SolveRecord` with per-iteration true residual
norms, recurrence (projected) residual norms, and error metrics when the
ground truth is available.  When the stopping rule carries a noise norm, the
record also holds the discrepancy iterate: the first one with residual at
most ``eta * noise_norm``, kept whether or not the rule stops there.
``n_ops`` counts every operator application (forward plus adjoint) of the
solver loop; only the MINRES symmetry probe goes uncharged.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .metrics import psnr as _psnr
from .metrics import rre as _rre

__all__ = [
    "LinearMap",
    "StoppingRule",
    "SolveRecord",
    "minres",
    "minres_sym_prec",
    "gmres",
    "fgmres",
    "lsqr",
    "flsqr",
    "discrepancy_stop",
]

#: A candidate basis vector with norm below this times ||b|| ends the
#: iteration (Lanczos/Arnoldi/Golub-Kahan breakdown, including the happy
#: exact-solve kind); so does a Gram-Schmidt remainder below this times the
#: image it came from, which is rounding noise.
BREAKDOWN_RTOL = 1e-14

_SYMMETRY_RTOL = 1e-8

#: MINRES breaks down at a rotated diagonal gamma below this times ||T_k||_F:
#: T_k is singular and the Krylov space exhausted, to rounding that reaches
#: 4e-11 on 8x8 maps; on deblurring problems gamma stays above 1e-2 ||T_k||.
_SINGULAR_RTOL = 1e-8


class LinearMap:
    """A square linear operator given by callables on flat vectors."""

    def __init__(self, size: int, apply, apply_adjoint=None):
        self.size = int(size)
        self._apply = apply
        self._apply_adjoint = apply_adjoint

    def apply(self, x):
        return self._apply(x)

    def apply_adjoint(self, y):
        if self._apply_adjoint is None:
            raise ValueError("this linear map was built without an adjoint")
        return self._apply_adjoint(y)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "LinearMap":
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"need a square matrix, got shape {m.shape}")
        return cls(m.shape[0], lambda x: m @ x, lambda y: m.T @ y)


@dataclass(frozen=True)
class StoppingRule:
    """Iteration budget and optional discrepancy-principle stop.

    The discrepancy test fires at the first iterate whose residual norm is
    at most ``eta * noise_norm``.  With ``noise_norm == 0`` it can only fire
    at an exact solve.  A given ``noise_norm`` makes the solvers record that
    iterate; ``dp_enabled`` also stops them there.
    """

    max_iter: int = 100
    dp_enabled: bool = False
    eta: float = 1.01
    noise_norm: float | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.eta < 1.0:
            raise ValueError(f"eta must be at least 1, got {self.eta}")
        if self.dp_enabled and self.noise_norm is None:
            raise ValueError("dp_enabled requires a noise_norm")
        if self.noise_norm is not None and self.noise_norm < 0:
            raise ValueError(f"noise_norm must be nonnegative, got {self.noise_norm}")


def discrepancy_stop(residual_norm: float, rule: StoppingRule) -> bool:
    """True when the residual norm meets the discrepancy principle."""
    if rule.noise_norm is None:
        raise ValueError("discrepancy_stop needs a rule with a noise_norm")
    return residual_norm <= rule.eta * rule.noise_norm


@dataclass
class SolveRecord:
    """Everything a run produced, one list entry per iteration.

    ``dp_index`` (1-based) and ``x_dp`` are the discrepancy iterate, or None
    when the rule has no noise norm or no iterate met the threshold.
    ``iterates`` is always None: no solver keeps every iterate.

    ``stop_reason`` is ``"max_iter"``, ``"discrepancy"``, ``"breakdown"``
    (the Krylov space is exhausted, e.g. by an exact solve) or
    ``"nonfinite"``: a flexible preconditioner gave a non-finite direction,
    and the run stopped before applying A to it, on the previous iterate.
    """

    res_norm: list[float] = field(default_factory=list)
    res_norm_projected: list[float] = field(default_factory=list)
    rre: list[float] | None = None
    psnr: list[float] | None = None
    alpha: list[float | None] = field(default_factory=list)
    stop_reason: str = "max_iter"
    best_index: int = 0
    x_stop: np.ndarray | None = None
    x_best: np.ndarray | None = None
    dp_index: int | None = None
    x_dp: np.ndarray | None = None
    n_ops: int = 0
    skipped: list[int] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.res_norm)


class _Counted:
    """Wraps an operator, counting loop applications for the work metric."""

    def __init__(self, op):
        self.op = op
        self.count = 0

    def apply(self, x):
        self.count += 1
        return self.op.apply(x)

    def apply_adjoint(self, y):
        self.count += 1
        return self.op.apply_adjoint(y)


class _History:
    """Per-iteration bookkeeping shared by all solvers, including the one
    discrepancy test: the first pushed iterate that meets it is kept."""

    def __init__(self, truth, rule):
        self.truth = None if truth is None else np.asarray(truth, float).ravel()
        if self.truth is not None and not np.all(np.isfinite(self.truth)):
            raise ValueError("x_true must be finite")
        self.res_norm: list[float] = []
        self.res_proj: list[float] = []
        self.rre: list[float] | None = [] if truth is not None else None
        self.psnr: list[float] | None = [] if truth is not None else None
        self.alpha: list[float | None] = []
        self.rule = rule
        self.dp_index: int | None = None
        self.x_dp: np.ndarray | None = None
        self.best_index = 0
        self._best_key = math.inf
        self.x_best: np.ndarray | None = None
        self.skipped: list[int] = []

    def push(self, x, res_true, res_proj, alpha=None):
        self.res_norm.append(float(res_true))
        self.res_proj.append(float(res_proj))
        self.alpha.append(alpha)
        if self.truth is not None:
            self.rre.append(_rre(x, self.truth))
            self.psnr.append(_psnr(x, self.truth))
            key = self.rre[-1]
        else:
            key = float(res_true)
        if (self.dp_index is None and self.rule.noise_norm is not None
                and discrepancy_stop(res_true, self.rule)):
            self.dp_index = len(self.res_norm)
            self.x_dp = np.array(x, copy=True)
        if key < self._best_key:
            self._best_key = key
            self.best_index = len(self.res_norm)
            self.x_best = np.array(x, copy=True)

    def record(self, reason, x_stop, n_ops) -> SolveRecord:
        x_stop = np.array(x_stop, copy=True)
        return SolveRecord(
            res_norm=self.res_norm,
            res_norm_projected=self.res_proj,
            rre=self.rre,
            psnr=self.psnr,
            alpha=self.alpha,
            stop_reason=reason,
            best_index=self.best_index,
            x_stop=x_stop,
            x_best=x_stop if self.x_best is None else self.x_best,
            dp_index=self.dp_index,
            x_dp=self.x_dp,
            n_ops=n_ops,
            skipped=self.skipped,
        )


def _flat(b, size, what="right-hand side"):
    b = np.asarray(b, dtype=float).ravel()
    if b.size != size:
        raise ValueError(f"{what} has {b.size} entries, operator expects {size}")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{what} must be finite")
    return b


def _check_prec(prec, size):
    if prec is not None and prec.size != size:
        raise ValueError(f"preconditioner size {prec.size} does not match operator {size}")


def _sym_ortho(a: float, b: float):
    """Stable Givens rotation: returns (r, c, s) with c*a + s*b = r and
    -s*a + c*b = 0."""
    if b == 0.0:
        return abs(a), (1.0 if a >= 0 else -1.0), 0.0
    if a == 0.0:
        return abs(b), 0.0, (1.0 if b >= 0 else -1.0)
    if abs(b) > abs(a):
        tau = a / b
        s = math.copysign(1.0, b) / math.sqrt(1.0 + tau * tau)
        c = s * tau
        return b / s, c, s
    tau = b / a
    c = math.copysign(1.0, a) / math.sqrt(1.0 + tau * tau)
    s = c * tau
    return a / c, c, s


def _probe_symmetry(op):
    """Check <Ax, y> == <x, Ay> on three seeded random pairs."""
    rng = np.random.default_rng(0x5EED)
    for _ in range(3):
        x = rng.standard_normal(op.size)
        y = rng.standard_normal(op.size)
        lhs = float(np.dot(np.ravel(op.apply(x)), y))
        rhs = float(np.dot(x, np.ravel(op.apply(y))))
        bound = _SYMMETRY_RTOL * np.linalg.norm(x) * np.linalg.norm(y)
        if abs(lhs - rhs) > bound:
            raise ValueError(
                "operator failed the symmetry probe: |<Ax,y> - <x,Ay>| = "
                f"{abs(lhs - rhs):.3e} > {bound:.3e}; MINRES needs a symmetric "
                "map (flip-symmetrize the blur first)"
            )


# ---------------------------------------------------------------------------
# MINRES
# ---------------------------------------------------------------------------

def _minres_loop(step, v, b, rule, history, alpha):
    """The MINRES recurrence behind :func:`minres` and :func:`minres_sym_prec`.

    ``v`` is the system right-hand side.  ``step(v)`` applies A once and
    returns the system image of the Lanczos vector ``v``, the image ``A s`` of
    its solution direction, and ``s``.  ``d`` and ``A d`` share one
    recurrence, so ``x`` and ``b - A x`` take the same scalars.  A singular
    T_k (``_SINGULAR_RTOL``) or a residual at rounding level is a breakdown."""
    beta1 = float(np.linalg.norm(v))
    if beta1 == 0.0:
        return history.record("breakdown", np.zeros(b.size), 0)
    tol_break = BREAKDOWN_RTOL * beta1
    v_prev = np.zeros(b.size)
    v = v / beta1
    # rows [d, A d] of the two previous directions; rows [x, b - A x]
    dirs_prev, dirs_prev2 = np.zeros((2, b.size)), np.zeros((2, b.size))
    xr = np.stack((np.zeros(b.size), b))
    phibar = beta1
    c_prev2, s_prev2 = 1.0, 0.0
    c_prev, s_prev = 1.0, 0.0
    beta = 0.0
    t_norm2 = 0.0
    reason = "max_iter"
    for k in range(1, rule.max_iter + 1):
        image, a_dir, s_dir = step(v)
        alfa = float(np.dot(v, image))
        # next Lanczos vector in v_prev's buffer: ``image`` may also be ``a_dir``
        v_prev *= beta
        np.subtract(image - alfa * v, v_prev, out=v_prev)
        beta_next = float(np.linalg.norm(v_prev))
        t_norm2 += alfa * alfa + beta * beta + beta_next * beta_next
        # rotate the new tridiagonal column through the two stored rotations
        eps = s_prev2 * beta
        delta_tmp = c_prev2 * beta
        delta = c_prev * delta_tmp + s_prev * alfa
        gbar = -s_prev * delta_tmp + c_prev * alfa
        gamma, c, s = _sym_ortho(gbar, beta_next)
        if gamma <= _SINGULAR_RTOL * math.sqrt(t_norm2):
            reason = "breakdown"
            break
        tau = c * phibar
        phibar = -s * phibar
        dirs_prev2 *= eps
        for new, prev, fresh in zip(dirs_prev2, dirs_prev, (s_dir, a_dir)):
            np.subtract(fresh - delta * prev, new, out=new)
        dirs_prev2 /= gamma
        dirs_prev2, dirs_prev = dirs_prev, dirs_prev2
        del image, a_dir, s_dir, fresh  # not kept alive through the next step
        c_prev2, s_prev2 = c_prev, s_prev
        c_prev, s_prev = c, s
        xr[0] += tau * dirs_prev[0]
        xr[1] -= tau * dirs_prev[1]
        res_true = float(np.linalg.norm(xr[1]))
        history.push(xr[0], res_true, abs(phibar), alpha)
        if rule.dp_enabled and history.dp_index is not None:
            reason = "discrepancy"
            break
        if beta_next <= tol_break or abs(phibar) <= tol_break:
            reason = "breakdown"
            break
        v_prev /= beta_next
        v_prev, v = v, v_prev
        beta = beta_next
    return history.record(reason, xr[0], k)  # one A apply per step


def minres(A, b, rule: StoppingRule | None = None, x_true=None) -> SolveRecord:
    """MINRES on a symmetric map, from the zero initial guess.

    The map is probed for symmetry on three random vector pairs before any
    work is done; a non-symmetric map is rejected.
    """
    rule = rule or StoppingRule()
    b = _flat(b, A.size)
    _probe_symmetry(A)
    history = _History(x_true, rule)

    def step(v):
        av = np.ravel(A.apply(v))
        return av, av, v

    return _minres_loop(step, b, b, rule, history, None)


def minres_sym_prec(A, b, p_half, rule: StoppingRule | None = None,
                    x_true=None) -> SolveRecord:
    """MINRES on the symmetrically preconditioned system.

    Iterates on ``p_half A p_half z = p_half b`` and returns solutions
    ``x = p_half z``.  The recorded true residuals (and the discrepancy test)
    are those of the ORIGINAL system ``||b - A x||``; the projected residual
    series belongs to the preconditioned system.  Each step applies ``p_half``
    twice and A once; ``x`` and ``b - A x`` follow from those images.
    """
    rule = rule or StoppingRule()
    b = _flat(b, A.size)
    _check_prec(p_half, A.size)

    def step(z):
        pz = np.ravel(p_half.apply(z))
        apz = np.ravel(A.apply(pz))
        return np.ravel(p_half.apply(apz)), apz, pz

    _probe_symmetry(LinearMap(A.size, lambda z: step(z)[0]))
    history = _History(x_true, rule)
    return _minres_loop(step, np.ravel(p_half.apply(b)), b, rule, history,
                        getattr(p_half, "alpha", None))


# ---------------------------------------------------------------------------
# GMRES / FGMRES
# ---------------------------------------------------------------------------

#: Columns per slice of the blocked DCGS2 passes, so a slice stays in cache.
_BLOCK = 8192


def _mapped(rows: int, n: int) -> np.ndarray:
    """An uninitialized ``(rows, n)`` float array in an anonymous mapping of
    its own, unmapped when freed.  From malloc, a freed basis raises the mmap
    threshold, the next one lands in the heap, and whether it fits the hole
    decided whether the heap grew: peak memory of the same solves varied from
    run to run by a basis.  From 4 MiB up, huge pages as numpy asks for them."""
    buf = mmap.mmap(-1, max(rows * n * 8, 1))
    if rows * n * 8 >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, count=rows * n).reshape(rows, n)


class _Dcgs2:
    """Classical Gram-Schmidt with delayed reorthogonalization (DCGS2) on the
    rows of a preallocated basis: two passes over the basis per step
    (Swirydowicz et al., NLAA 2021; Bielich et al., Parallel Computing 2022).

    At step k, rows ``:k - 1`` are orthonormal, row ``k - 1`` holds the lagged
    vector ``v`` (projected once, not yet reorthogonalized) and row k the new
    vector ``w``.  :meth:`reduce` reads the basis once, for ``basis[:k + 1] @
    [v, w]^T``, which gives ``v' = (v - V s) / gamma`` and ``w' = w - [V, v']
    c``.  :meth:`update` writes them with one more pass, and with them any
    combination of ``[V, v', w']``, all linear in the uncorrected rows.
    """

    def __init__(self, basis: np.ndarray, tol_break: float):
        self.basis = basis
        self._tol = self.tol_break = tol_break
        self._out = np.empty((2, basis.shape[1]))

    def reduce(self, k: int):
        """Returns ``c`` and the Pythagoras estimate of ``||w'||``.  Keeps
        ``s``, ``gamma`` and ``tol_break``: below it, relative to ``||b||`` and
        ``||w||``, ``w'`` is rounding noise that ``gamma`` could not measure."""
        g = np.zeros((k + 1, 2))
        for j in range(0, self.basis.shape[1], _BLOCK):
            blk = self.basis[:k + 1, j:j + _BLOCK]
            g += blk @ blk[k - 1:].T
        m = k - 1
        self.k, self.s = k, g[:m, 0]
        self.tol_break = max(self._tol, BREAKDOWN_RTOL * math.sqrt(g[k, 1]))
        self.gamma = math.sqrt(g[m, 0] - self.s @ self.s)
        # rows of [V, v', w'] as combinations of the uncorrected rows
        self._lift = np.eye(k + 1)
        self._lift[m, :k] = np.append(-self.s, 1.0) / self.gamma
        c = g[:k, 1].copy()
        c[m] = (g[m, 1] - self.s @ g[:m, 1]) / self.gamma
        self._lift[k, :k] = -c @ self._lift[:k, :k]
        return c, math.sqrt(max(g[k, 1] - c @ c, 0.0))

    def update(self, rows=()):
        """Writes ``v'`` and ``w'`` over rows k - 1 and k, a slice at a time
        (read before written); returns ``||w'||`` and up to two combinations
        of ``[V, v', w']``, valid until the next update."""
        k = self.k
        coef = np.vstack((self._lift[k - 1:], np.reshape(rows, (-1, k + 1)) @ self._lift))
        out = self._out[:len(coef) - 2]
        for j in range(0, self.basis.shape[1], _BLOCK):
            blk = coef @ self.basis[:k + 1, j:j + _BLOCK]
            self.basis[k - 1:k + 1, j:j + _BLOCK] = blk[:2]
            out[:, j:j + _BLOCK] = blk[2:]
        return float(np.linalg.norm(self.basis[k])), out


class _Stop(Exception):
    """Raised by a direction map to end the run with the given stop reason."""


def _flexible(prec_at, b, history):
    """Direction map of the flexible solvers: ``z = P_k v`` with
    ``P_k = prec_at(k - 1, x_prev)``, or ``v`` when there is no callback or
    it returns None.  A degenerate ``z`` (e.g. zero weights) is recorded as
    skipped and ``v`` takes its place; a non-finite one stops the run."""
    tol_break = BREAKDOWN_RTOL * np.linalg.norm(b)

    def direction(k, v, x):
        prec = prec_at(k - 1, x) if prec_at is not None else None
        if prec is None:
            return v, None
        z = np.ravel(prec.apply(v))
        z_norm = np.linalg.norm(z)
        if not np.isfinite(z_norm):
            raise _Stop("nonfinite")
        if z_norm <= tol_break:
            history.skipped.append(k)
            z = v
        return z, getattr(prec, "alpha", None)

    return direction


def _arnoldi(counted, b, rule, history, *, direction, solution=None, flexible=False):
    """The one Arnoldi engine behind :func:`gmres`, :func:`fgmres` and
    :func:`flsqr`; ``counted`` is the operator wrapped in :class:`_Counted`.

    ``direction(k, v, x_prev)`` returns the vector ``z`` the operator is
    applied to at 1-based step k (``v``, ``P v``, ``P_k v``, or ``P_k`` times
    an adjoint image of ``v``) and the alpha to report, or raises
    :class:`_Stop`.  In flexible mode ``A Z = V Hbar`` holds on the stored
    directions and the iterate is ``Z y``; otherwise ``Z = V`` (times P) and
    the iterate is ``solution(V y)``.  DCGS2 keeps the preallocated basis
    orthonormal with two passes a step.  Correcting the lagged vector
    rewrites the previous column, and as the image is of the uncorrected
    ``v``, the new column is ``(c - Hbar s) / gamma`` unless flexible.  ``y``
    comes from a Householder QR that keeps every column, with the estimated
    subdiagonal, set to the exact ``||w'||`` afterwards.  The update pass
    also writes ``V y`` (unless flexible) and the true residual ``b - A Z y =
    V (beta e1 - H y) - omega y_k w'``: no division, so it holds at breakdown.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return history.record("breakdown", np.zeros(b.size), 0)
    basis = _mapped(rule.max_iter + 1, b.size)
    basis[0] = b / beta
    gs = _Dcgs2(basis, BREAKDOWN_RTOL * beta)
    dirs = _mapped(rule.max_iter, b.size) if flexible else None
    h = np.zeros((rule.max_iter + 1, rule.max_iter))
    x = np.zeros(b.size)
    reason = "max_iter"
    for k in range(1, rule.max_iter + 1):
        try:
            z, alpha_k = direction(k, basis[k - 1], x)
        except _Stop as stop:
            reason = str(stop)
            break
        if flexible:
            dirs[k - 1] = z
        basis[k] = np.ravel(counted.apply(z))
        m = k - 1
        c, estimate = gs.reduce(k)
        if m:
            h[:m, m - 1] += h[m, m - 1] * gs.s
            h[m, m - 1] *= gs.gamma
        omega = 1.0 if flexible else 1.0 / gs.gamma
        if not flexible:
            c = c - h[:k, :m] @ gs.s
        h[:k, m] = omega * c
        h[k, m] = omega * estimate
        q, r = np.linalg.qr(h[:k + 1, :k])
        try:
            y = np.linalg.solve(r, beta * q[0])
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(r, beta * q[0], rcond=None)[0]
        t = -(h[:k, :k] @ y)
        t[0] += beta
        residual = np.append(t, -omega * y[m])
        h_new, rows = gs.update([residual] if flexible else [np.append(y, 0.0), residual])
        h[k, m] = omega * h_new
        proj = math.hypot(float(np.linalg.norm(t)), y[m] * h[k, m])
        if flexible:
            x = y @ dirs[:k]
        else:
            x = rows[0] if solution is None else solution(rows[0])
        history.push(x, float(np.linalg.norm(rows[-1])), proj, alpha_k)
        if rule.dp_enabled and history.dp_index is not None:
            reason = "discrepancy"
            break
        if h_new <= gs.tol_break:
            reason = "breakdown"
            break
        basis[k] /= h_new
    return history.record(reason, x, counted.count)


def gmres(A, b, rule: StoppingRule | None = None, right_prec=None,
          x_true=None) -> SolveRecord:
    """Full GMRES with an optional stationary right preconditioner.

    With right preconditioning the Arnoldi space is built for ``A P`` and the
    returned iterates are ``x = P u``; the recorded true residual is that of
    the given system, which right preconditioning leaves invariant.
    """
    rule = rule or StoppingRule()
    b = _flat(b, A.size)
    _check_prec(right_prec, A.size)
    history = _History(x_true, rule)
    if right_prec is None:
        return _arnoldi(_Counted(A), b, rule, history, direction=lambda k, v, x: (v, None))
    alpha = getattr(right_prec, "alpha", None)
    return _arnoldi(_Counted(A), b, rule, history,
                    direction=lambda k, v, x: (np.ravel(right_prec.apply(v)), alpha),
                    solution=lambda u: np.ravel(right_prec.apply(u)))


def fgmres(A, b, prec_at=None, rule: StoppingRule | None = None,
           x_true=None) -> SolveRecord:
    """Flexible GMRES: ``prec_at(k, x_prev)`` supplies the preconditioner for
    0-based iteration k, given the previous solution estimate.

    The preconditioned directions are stored and combined directly, so the
    preconditioner may change freely; a non-finite direction stops the run.
    They are taken of the lagged basis vector, which storing them absorbs:
    with a constant identity callback they span the basis of :func:`gmres`,
    so the two agree to rounding.
    """
    rule = rule or StoppingRule()
    b = _flat(b, A.size)
    history = _History(x_true, rule)
    return _arnoldi(_Counted(A), b, rule, history,
                    direction=_flexible(prec_at, b, history), flexible=True)


# ---------------------------------------------------------------------------
# LSQR / FLSQR
# ---------------------------------------------------------------------------

def lsqr(A, b, rule: StoppingRule | None = None, right_prec=None,
         x_true=None) -> SolveRecord:
    """LSQR via Golub-Kahan bidiagonalization, no reorthogonalization.

    Needs ``apply_adjoint`` on the operator (and on the right preconditioner
    if one is given), which runs the bidiagonalization on ``A P``.  The
    direction recurrence is carried for ``P w`` and ``-A P w``, so ``x`` and
    ``b - A x`` are updated, never recomputed.  An iteration applies A and P
    once forward and once adjoint: the first adjoint comes before the loop,
    and none follows the last step, so ``n_ops`` is ``2k`` (``2k + 1`` when
    the adjoint of step k reveals a breakdown).
    """
    rule = rule or StoppingRule()
    b = _flat(b, A.size)
    _check_prec(right_prec, A.size)
    counted = _Counted(A)
    history = _History(x_true, rule)

    def forward(vec):
        if right_prec is not None:
            vec = np.ravel(right_prec.apply(vec))
        return np.ravel(counted.apply(vec)), vec

    def adjoint(vec):
        out = np.ravel(counted.apply_adjoint(vec))
        if right_prec is not None:
            out = np.ravel(right_prec.apply_adjoint(out))
        return out

    alpha_k = None if right_prec is None else getattr(right_prec, "alpha", None)
    beta1 = float(np.linalg.norm(b))
    if beta1 == 0.0:
        return history.record("breakdown", np.zeros(A.size), 0)
    tol_break = BREAKDOWN_RTOL * beta1
    u = b / beta1
    v = adjoint(u)
    alfa = float(np.linalg.norm(v))
    if alfa == 0.0:
        # b is orthogonal to the range: the zero vector already minimizes
        return history.record("breakdown", np.zeros(A.size), counted.count)
    # operator outputs may be their own input (identity): never update in place
    v = v / alfa
    # rows [P w, -A P w]; w_1 = v_1, so they start from zero; rows [x, b - A x]
    dirs = np.zeros((2, A.size))
    xr = np.stack((np.zeros(A.size), b))
    phibar = beta1
    rhobar = alfa
    reason = "max_iter"
    for k in range(1, rule.max_iter + 1):
        apv, pv = forward(v)
        dirs[0] += pv
        dirs[1] -= apv
        u = apv - alfa * u
        del apv, pv  # not kept alive through the adjoint
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u /= beta
        rho, c, s = _sym_ortho(rhobar, beta)
        phi = c * phibar
        phibar = s * phibar
        xr += (phi / rho) * dirs
        res_true = float(np.linalg.norm(xr[1]))
        history.push(xr[0], res_true, abs(phibar), alpha_k)
        if rule.dp_enabled and history.dp_index is not None:
            reason = "discrepancy"
            break
        if beta <= tol_break:
            reason = "breakdown"
            break
        if k == rule.max_iter:
            break  # no step follows that would use the next adjoint image
        v = adjoint(u) - beta * v
        alfa = float(np.linalg.norm(v))
        if alfa <= tol_break:
            reason = "breakdown"
            break
        v /= alfa
        theta = s * alfa
        rhobar = -c * alfa
        dirs *= -theta / rho
    return history.record(reason, xr[0], counted.count)


def flsqr(A, b, prec_at=None, rule: StoppingRule | None = None,
          x_true=None) -> SolveRecord:
    """Flexible LSQR: Golub-Kahan with an iteration-dependent right
    preconditioner supplied by ``prec_at(k, x_prev)``.

    Flexibility breaks the bidiagonal short recurrence, so the projected
    problem is upper Hessenberg: this is the flexible :func:`_arnoldi` engine
    on A, whose basis is ``U``, with directions ``P_k v_k``.  Each ``v_k`` is
    the adjoint image of the latest ``u`` made orthonormal to the earlier
    ones by DCGS2 as well.  The true residual is read from the flexible
    Golub-Kahan relation ``A Z_k = U_{k+1} Mbar_k``, so one iteration costs
    one forward and one adjoint application.  A non-finite preconditioned
    direction stops the run.  With a constant identity callback the projected
    problem is bidiagonal again and the method reduces to :func:`lsqr`.
    """
    rule = rule or StoppingRule()
    b = _flat(b, A.size)
    counted = _Counted(A)
    history = _History(x_true, rule)
    v_basis = _mapped(rule.max_iter, A.size)
    v_gs = _Dcgs2(v_basis, BREAKDOWN_RTOL * np.linalg.norm(b))
    preconditioned = _flexible(prec_at, b, history)

    def direction(k, u, x):
        v_basis[k - 1] = np.ravel(counted.apply_adjoint(u))
        if k == 1:
            v_norm = float(np.linalg.norm(v_basis[0]))
        else:
            v_gs.reduce(k - 1)
            v_norm, _ = v_gs.update()
        if v_norm <= v_gs.tol_break:
            raise _Stop("breakdown")
        v_basis[k - 1] /= v_norm
        return preconditioned(k, v_basis[k - 1], x)

    return _arnoldi(counted, b, rule, history, direction=direction, flexible=True)
