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

There are two engines.  ``gmres``, ``fgmres`` and ``flsqr`` share one
Arnoldi loop.  It takes its steps in blocks and keeps preallocated bases
orthonormal by classical Gram-Schmidt with delayed reorthogonalization
(DCGS2): one reduction and one update pass over the basis per block.  The
reduction yields one coefficient matrix F of the block's lagged rows L and
new rows W on the corrected basis, ``[L, W] = [V, L', W'] F``; the update
writes ``L'`` and ``W'`` from it, and Hbar's new columns come from F's.
Stationary GMRES applies the operator to a scaled monomial block of
``_S_STEP`` (four) vectors first (s-step GMRES); the flexible solvers, which
need the iterate of every step for the next direction, take blocks of one
row, and so does the FLSQR basis V.  The update pass writes basis rows and
stationary GMRES's iterates ``V y`` only; each step records ``||beta e1 -
Hbar y||``, the new rows weighted by their Gram as written, as its residual.
``minres``, ``minres_sym_prec`` and ``lsqr`` share one Givens
loop: it minimizes the residual through a Givens QR of a banded projected
matrix, the Lanczos tridiagonal or the Golub-Kahan bidiagonal (the same band
with a zero above the diagonal), one column a step; with P, a step applies
P P^T once.  It updates ``b - A x`` from the next basis vector the column
map hands it, so it keeps no image of a direction, and stops on a singular
R.  It updates ``x``, ``b - A x`` and two directions in place through one
scratch row, so with the operators' FFT workspace a steady-state step
allocates only the arrays the operators return.  Those are taken as they
come, flipped views included, and only read.
Every map a solver is handed has ``size``, ``apply`` and ``apply_adjoint``,
each taking input by :func:`kryblur.operators._map_input`, so a flat vector
maps to a flat vector; the solvers read nothing else of a map.

A solve carries one context, :class:`_History`, built from the entry point's
arguments before anything is applied: it checks the right-hand side, the size
of each stationary preconditioner and ``x_true``, applies A for the loop and
counts those applications, and keeps the record, whose every push also makes
the one discrepancy test.  Each run returns a :class:`SolveRecord` with
per-iteration residual norms as the loop carries them, and error metrics when
the ground truth is available.  When the stopping rule carries a noise norm,
the record also holds the discrepancy iterate: the first one with residual
at most ``eta * noise_norm``, kept whether or not the rule stops there.
``n_ops`` counts every operator application (forward plus adjoint) of the
solver loop; only the MINRES symmetry probe goes uncharged.  That includes
the applications of a GMRES block left unused: those after a stop inside the
block, and those of a near rank-deficient block, which takes its first step
only.
"""

from __future__ import annotations

import math
import mmap
import numbers
from dataclasses import dataclass, field

import numpy as np

from .metrics import psnr_from_error, rre_from_error
from .operators import _map_input
from .preconditioners import times_adjoint

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

#: A new Arnoldi basis vector with norm below this times the norm of the
#: vector before Gram-Schmidt ends the iteration: the Krylov space is
#: exhausted to rounding (breakdown, including the happy exact-solve kind),
#: and the test does not depend on the scale of A or b.  A flexible
#: direction ``P_k v`` with norm below this (``v`` is a unit vector) is
#: skipped.  MINRES and LSQR stop at a projected residual below this times
#: its starting value.
BREAKDOWN_RTOL = 1e-14

_SYMMETRY_RTOL = 1e-8

#: The Givens loop breaks down at a rotated diagonal gamma below this times
#: the Frobenius norm of the projected matrix (T_k or B_k): it is singular
#: and the Krylov space exhausted, to rounding that reaches 4e-11 on 8x8
#: maps; on deblurring problems gamma stays above 1e-2 ||T_k||.  A Lanczos
#: or Golub-Kahan subdiagonal below this times ``||T_k||_F`` is a breakdown
#: too, and so is an LSQR ``alpha_k`` (tested before the forward apply); on
#: deblurring runs of 100 steps both ratios stay above 0.05.
_SINGULAR_RTOL = 1e-8


class LinearMap:
    """A square linear operator given by callables on flat vectors, called on
    each flat vector of the input (:func:`kryblur.operators._map_input`)."""

    def __init__(self, size: int, apply, apply_adjoint=None):
        self.size = int(size)
        self._apply = apply
        self._apply_adjoint = apply_adjoint

    def _map(self, fn, x):
        arr, _ = _map_input(x, self.size)
        return np.array([fn(v) for v in arr.reshape(-1, self.size)]).reshape(arr.shape)

    def apply(self, x):
        return self._map(self._apply, x)

    def apply_adjoint(self, y):
        if self._apply_adjoint is None:
            raise ValueError("this linear map was built without an adjoint")
        return self._map(self._apply_adjoint, y)

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
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        if not 1.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be at least 1 and finite, got {self.eta}")
        if self.dp_enabled and self.noise_norm is None:
            raise ValueError("dp_enabled requires a noise_norm")
        if self.noise_norm is not None and not 0.0 <= self.noise_norm < math.inf:
            raise ValueError(
                f"noise_norm must be nonnegative and finite, got {self.noise_norm}")


def discrepancy_stop(residual_norm: float, rule: StoppingRule) -> bool:
    """True when the residual norm meets the discrepancy principle."""
    if rule.noise_norm is None:
        raise ValueError("discrepancy_stop needs a rule with a noise_norm")
    return residual_norm <= rule.eta * rule.noise_norm


@dataclass
class SolveRecord:
    """Everything a run produced, one list entry per iteration.

    A solver's bookkeeping appends to the record as it runs, and the run
    returns it.  ``dp_index`` (1-based) and ``x_dp`` are the discrepancy
    iterate, or None when the rule has no noise norm or no iterate met the
    threshold.  ``iterates`` is always None: no solver keeps every iterate.
    A preconditioner's alpha is not recorded: whoever built it chose it (the
    experiment driver writes it to ``history.csv`` from its schedule).
    ``res_norm`` is ``||b - A x||`` as the loop carries it: the Givens loop
    updates ``b - A x`` from the next basis vector, and the Arnoldi loop
    reads ``||beta e1 - Hbar y||``.

    ``stop_reason`` is ``"max_iter"``, ``"discrepancy"``, ``"breakdown"``
    (the Krylov space is exhausted, e.g. by an exact solve) or
    ``"nonfinite"``: an operator or preconditioner output was not finite,
    and the run stopped on the previous iterate.
    """

    res_norm: list[float] = field(default_factory=list)
    rre: list[float] | None = None
    psnr: list[float] | None = None
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


class _History:
    """The one context of a solve, built before anything is applied.  It
    takes the default rule, checks the right-hand side (kept as ``b``), the
    size of each stationary map in ``precs`` (None for none) and ``x_true``,
    which must be finite with a positive maximum, the PSNR peak.
    :meth:`apply` and :meth:`apply_adjoint` apply A for the loop and count
    those applications, which :meth:`record` reports as ``n_ops``.
    :meth:`push` appends an iterate's bookkeeping to the one
    :class:`SolveRecord` ``rec``, including the one discrepancy test: the
    first pushed iterate that meets it is kept.  RRE and PSNR come from one
    error vector, written into a buffer of its own, and one dot product;
    ``||x_true||`` and the peak are taken once, here.  The best iterate is
    copied into one buffer as it improves."""

    def __init__(self, A, b, rule, x_true, *precs):
        self.rule = rule or StoppingRule()
        self.b = _flat(b, A.size)
        for prec in precs:
            if prec is not None and prec.size != A.size:
                raise ValueError(f"preconditioner size {prec.size} does not match operator {A.size}")
        self.truth = None if x_true is None else _flat(x_true, A.size, "x_true")
        self._op, self.count = A, 0
        self.rec = SolveRecord()
        if self.truth is not None:
            self._peak = float(self.truth.max())
            if self._peak <= 0.0:  # all zero too, whose RRE is undefined
                raise ValueError(f"x_true has maximum {self._peak:g}, so its PSNR is undefined")
            self._truth_norm = float(np.linalg.norm(self.truth))
            self.rec.rre, self.rec.psnr = [], []
            self._err = np.empty_like(self.truth)
        self._best_key = math.inf

    def apply(self, x):
        self.count += 1
        return self._op.apply(x)

    def apply_adjoint(self, y):
        self.count += 1
        return self._op.apply_adjoint(y)

    def push(self, x, res) -> bool:
        """Records iterate ``x`` with residual norm ``res``; True when the
        rule stops here, at the discrepancy iterate."""
        rec = self.rec
        rec.res_norm.append(float(res))
        if self.truth is not None:
            err = np.subtract(x, self.truth, out=self._err)
            err2 = float(np.dot(err, err))
            rec.rre.append(rre_from_error(err2, self._truth_norm))
            rec.psnr.append(psnr_from_error(err2, self._peak, err.size))
            key = rec.rre[-1]
        else:
            key = float(res)
        if (rec.dp_index is None and self.rule.noise_norm is not None
                and discrepancy_stop(res, self.rule)):
            rec.dp_index = rec.iterations
            rec.x_dp = np.array(x, copy=True)
        if key < self._best_key:
            self._best_key = key
            rec.best_index = rec.iterations
            if rec.x_best is None:
                rec.x_best = np.empty_like(x)
            np.copyto(rec.x_best, x)
        return self.rule.dp_enabled and rec.dp_index is not None

    def record(self, reason, x_stop) -> SolveRecord:
        rec = self.rec
        rec.stop_reason, rec.n_ops = reason, self.count
        rec.x_stop = np.array(x_stop, copy=True)
        if rec.x_best is None:
            rec.x_best = rec.x_stop
        return rec


def _flat(b, size, what="right-hand side"):
    try:  # one vector or image, not a batch
        b = _map_input(b, size)[0].reshape(size)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{what} must be finite")
    return b


def _probe_symmetry(op):
    """Check <Ax, y> == <x, Ay> on three seeded random pairs."""
    rng = np.random.default_rng(0x5EED)
    for _ in range(3):
        x = rng.standard_normal(op.size)
        y = rng.standard_normal(op.size)
        lhs = float(np.dot(op.apply(x), y))
        rhs = float(np.dot(x, op.apply(y)))
        bound = _SYMMETRY_RTOL * np.linalg.norm(x) * np.linalg.norm(y)
        if not abs(lhs - rhs) <= bound:  # a NaN fails too
            raise ValueError(
                "operator failed the symmetry probe: |<Ax,y> - <x,Ay>| = "
                f"{abs(lhs - rhs):.3e} > {bound:.3e}; MINRES needs a symmetric "
                "map (flip-symmetrize the blur first)"
            )


class _Stop(Exception):
    """Raised by a direction or column map to end the run with the given
    stop reason."""


# ---------------------------------------------------------------------------
# MINRES / LSQR: the Givens short recurrence
# ---------------------------------------------------------------------------

def _givens_loop(column, beta1, history):
    """The one short-recurrence loop behind :func:`minres`,
    :func:`minres_sym_prec` and :func:`lsqr`: the Givens QR of a banded
    projected matrix, the Lanczos tridiagonal T_k or the Golub-Kahan
    bidiagonal B_k, minimizes ``||beta1 e1 - T y||``.

    ``column(k)`` returns the new column ``(upper, diag, sub)`` on rows
    k - 1, k and k + 1, the solution direction ``s`` and the next basis
    vector unnormalized, ``w = sub v_{k+1}``, or raises :class:`_Stop`; both
    are only read, as they may be views of other vectors.  ``x``, ``r = b - A
    x`` and the two previous directions, each times its gamma, are updated in
    place through one scratch row.  After the two previous rotations, a
    column's own rotation takes ``(gbar, sub)`` to ``(gamma, 0)``: ``gamma =
    hypot(gbar, sub)``, ``c, s = gbar / gamma, sub / gamma``, the identity at
    ``gamma == 0``.  ``x`` moves by ``tau / gamma`` times the direction, and
    ``r_k = s^2 r_{k-1} - (tau / gamma) w`` needs the three-term relation
    only, no image of a direction (Paige & Saunders, SINUM 1975).  A singular
    R or a subdiagonal at rounding level against ``||T_k||_F``, or a
    projected residual ``|phibar|`` at rounding level against ``beta1``, is a
    breakdown.  A non-finite column, seen once in ``||T_k||_F``, stops the
    run as ``"nonfinite"`` on the previous iterate.  ``history`` holds ``b``
    and the rule, and records the carried ``||b - A x||``."""
    b = history.b
    if beta1 == 0.0:
        return history.record("breakdown", np.zeros(b.size))
    d_prev, d_prev2, x = np.zeros(b.size), np.zeros(b.size), np.zeros(b.size)
    r, scratch = b.copy(), np.empty(b.size)
    phibar, t_norm2, reason = beta1, 0.0, "max_iter"
    c_prev2, s_prev2, g_prev2 = 1.0, 0.0, 1.0
    c_prev, s_prev, g_prev = 1.0, 0.0, 1.0
    for k in range(1, history.rule.max_iter + 1):
        try:
            (upper, diag, sub), s_dir, w = column(k)
        except _Stop as stop:
            reason = str(stop)
            break
        t_norm2 += upper * upper + diag * diag + sub * sub
        if not math.isfinite(t_norm2):
            reason = "nonfinite"
            break
        # rotate the new column through the two stored rotations
        eps = s_prev2 * upper
        delta_tmp = c_prev2 * upper
        delta = c_prev * delta_tmp + s_prev * diag
        gbar = -s_prev * delta_tmp + c_prev * diag
        gamma = math.hypot(gbar, sub)
        c, s = (gbar / gamma, sub / gamma) if gamma else (1.0, 0.0)
        if gamma <= _SINGULAR_RTOL * math.sqrt(t_norm2):
            reason = "breakdown"
            break
        tau = c * phibar
        phibar = -s * phibar
        # gamma d = fresh - delta d_prev - eps d_prev2 over the oldest row;
        # keeping gamma d saves the pass that would divide by gamma
        d_prev2 *= -eps / g_prev2
        d_prev2 += s_dir
        d_prev2 -= np.multiply(d_prev, delta / g_prev, out=scratch)
        d_prev2, d_prev = d_prev, d_prev2
        del s_dir  # not kept alive through the next step
        c_prev2, s_prev2, g_prev2 = c_prev, s_prev, g_prev
        c_prev, s_prev, g_prev = c, s, gamma
        step = tau / gamma
        x += np.multiply(d_prev, step, out=scratch)
        r *= s * s
        r -= np.multiply(w, step, out=scratch)
        if history.push(x, float(np.linalg.norm(r))):
            reason = "discrepancy"
            break
        if (sub <= _SINGULAR_RTOL * math.sqrt(t_norm2)
                or abs(phibar) <= BREAKDOWN_RTOL * beta1):
            reason = "breakdown"
            break
    return history.record(reason, x)


def _dual_norm(m, v):
    """``M v`` (``v`` if ``m`` is None) and ``sqrt(|<v, M v>|)``; ``<v, M v> < 0`` is rounding."""
    mv = v if m is None else m.apply(v)
    return mv, math.sqrt(abs(float(np.dot(v, mv))))


def _lanczos(history, m=None):
    """The Lanczos column map of MINRES on ``history``, and ``beta1``.  With
    ``m``, M = P P^T, it is preconditioned MINRES (Paige & Saunders, SINUM
    1975) on ``v`` and the solution direction ``z = M v`` (without, ``v``):
    ``beta_{k+1} v_{k+1} = A z_k - alpha_k v_k - beta_k v_{k-1}``, ``alpha_k =
    <z_k, A z_k>`` and ``beta^2 = <v, M v>``, one A and one M a step.  It
    hands the loop ``z_k`` and ``beta_{k+1} v_{k+1}``, normalized a step
    later; ``A z_k`` is used here only."""
    rhs = history.b
    mv, beta1 = _dual_norm(m, rhs)
    v = rhs / beta1 if beta1 else rhs
    z = v if m is None else mv / (beta1 or 1.0)
    v_next, scratch = np.zeros(rhs.size), np.empty(rhs.size)
    z_buf = None if m is None else np.empty(rhs.size)
    beta = 0.0

    def column(k):
        nonlocal v, v_next, z, mv, beta
        if k > 1:  # ``mv`` first, as it may be ``v_next`` itself; then freed
            z = v_next if m is None else np.multiply(mv, 1.0 / beta, out=z_buf)
            v_next *= 1.0 / beta
            v, v_next, mv = v_next, v, None
        image = history.apply(z)
        # vecdot reads a flipped image in place, where dot would copy it
        alfa = float(np.vecdot(z, image))
        # next dual vector in the previous one's buffer, in place; ``image``
        # may be a view of the operator's workspace, so it is only read
        v_next *= -beta
        v_next += image
        v_next -= np.multiply(v, alfa, out=scratch)
        upper = beta
        mv, beta = _dual_norm(m, v_next)
        return (upper, alfa, beta), z, v_next

    return column, beta1


def minres(A, b, rule: StoppingRule | None = None, x_true=None) -> SolveRecord:
    """MINRES on a symmetric map, from the zero initial guess.

    The map is probed for symmetry on three random vector pairs before any
    work is done; a non-symmetric map is rejected.
    """
    history = _History(A, b, rule, x_true)
    _probe_symmetry(A)
    return _givens_loop(*_lanczos(history), history)


def minres_sym_prec(A, b, p_half, rule: StoppingRule | None = None,
                    x_true=None) -> SolveRecord:
    """MINRES on the symmetrically preconditioned system.

    Iterates on ``p_half^T A p_half z = p_half^T b`` and returns solutions
    ``x = p_half z``.  The recorded true residuals (and the discrepancy test)
    are those of the ORIGINAL system ``||b - A x||``; only the breakdown test
    reads the preconditioned system's projected residual.  Each step applies
    A and M = ``p_half p_half^T`` once each (preconditioned MINRES).  Only A
    is probed for symmetry: M is positive semidefinite for any ``p_half``.
    """
    history = _History(A, b, rule, x_true, p_half)
    _probe_symmetry(A)
    return _givens_loop(*_lanczos(history, times_adjoint(p_half)), history)


# ---------------------------------------------------------------------------
# GMRES / FGMRES
# ---------------------------------------------------------------------------

#: Steps per block of stationary GMRES (s-step Arnoldi): the operator is
#: applied to a scaled monomial block of this many vectors, which one
#: reduction pass and one update pass over the basis then orthogonalize.  The
#: flexible solvers need the iterate of every step, so their blocks have one
#: row; with 1 here, so do GMRES's.
_S_STEP = 4

#: A block takes its first step only when ``||W^T W||_2`` over the smallest
#: eigenvalue of its Pythagoras Gram (W the scaled monomial images; ``W^T W``
#: less the Gram of their coefficients on the basis, see :class:`_Dcgs2`)
#: exceeds this bound: the projection is then too close to rank deficient to be
#: read from the Gram, and the defect of the Arnoldi relation grows like eps
#: times this ratio.  The ratio is infinite on identity maps, at an exhausted
#: Krylov space and when n < s; it reads 1.5e5 to 1.8e8 on acceptance 2's
#: random maps, 2e5 to 5e6 on a 7x7 Gaussian blur with zero boundaries, and
#: 2.6e2 to 5.1e2 on the flipped 512x512 reflective two-motion blur, apart from
#: its first block (1.7e5, 2.8e5 with the preconditioner), whose smooth start
#: vector makes the first monomials nearly parallel.
_BLOCK_COND = 1e4

#: Columns per slice of the DCGS2 passes, so a slice stays in cache (8192 by
#: 61 rows is 4 MB).  At 512x512, 4096 measured within the spread of 8192;
#: the slices fix the summation order, which the artifacts pin.
_BLOCK = 8192


def _mapped(rows: int, n: int) -> np.ndarray:
    """An uninitialized ``(rows, n)`` float array in a private anonymous
    mapping of its own, unmapped when freed.  From malloc, a freed basis
    raises the mmap threshold, the next one lands in the heap, and whether it
    fits the hole decided whether the heap grew: peak memory of the same
    solves varied from run to run by a basis.  From 4 MiB up it asks for
    transparent huge pages, which a shared (shmem) mapping would not get."""
    buf = mmap.mmap(-1, max(rows * n * 8, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if rows * n * 8 >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, count=rows * n).reshape(rows, n)


class _Dcgs2:
    """Classical Gram-Schmidt with delayed reorthogonalization (DCGS2) on the
    rows of a preallocated basis, one block of rows at a time, in two passes
    over the basis (Swirydowicz et al., NLAA 2021; Bielich et al., Parallel
    Computing 2022; for blocks, Carson, Lund, Rozloznik & Thomas, LAA 2022).
    ``out_rows`` is the number of combination rows an update may keep, and
    ``h`` the Arnoldi matrix Hbar on the basis, set and kept up to date by
    the Arnoldi loop (None for a basis without one).

    After k steps, rows ``:m`` are orthonormal, rows ``m:k + 1`` hold the
    lagged block ``L`` (projected once, not yet reorthogonalized) and the
    next t rows the new block ``W``.  :meth:`reduce` reads the basis once,
    for ``basis[:k + 1 + t] @ [L, W]^T``, and turns it into one coefficient
    matrix F (``f``) with ``[L, W] = [V, L', W'] F``.  Rows ``:m`` are the
    Gram's coefficients on V.  Rows ``m:`` are upper triangular: over the
    columns of L, the Cholesky factor of ``L^T L`` less its part on V; over
    those of W, the coefficients ``L'^T W`` and below them the factor of the
    Pythagoras Gram of W, ``W^T W`` less the Gram of ``F[:k + 1, lagged:]``.
    The rows of ``[L', W']`` are then ``F[m:]^-T`` times those of ``[L, W]
    - V F[:m]`` (the lift), and :meth:`update` writes them (orthonormal as
    far as the Gram is exact; the next block corrects it) with one more
    pass, and with them combinations of ``[V, L', W']``, all linear in the
    uncorrected rows.
    """

    def __init__(self, basis: np.ndarray, out_rows: int):
        self.basis = basis
        self.h = None
        self._out = np.empty((out_rows, basis.shape[1]))

    def reduce(self, k: int, lagged: int, t: int) -> int:
        """The reduction pass of the block after k steps, with ``lagged``
        lagged rows and t new ones.  Returns the number of rows the block
        keeps: all of them, or only the first when it is near rank deficient
        (``_BLOCK_COND``); ``f`` is then ``(k + 2) x (lagged + 1)``.  Keeps
        ``f`` and ``tol_break``: below it, relative to its own norm, a
        one-row block's ``||w'||`` is rounding noise.  Its last diagonal
        entry of F, the Pythagoras estimate of ``||w'||``, is at least
        ``tol_break``, so that a row lost to rounding is not divided by 0."""
        m = k + 1 - lagged
        f = np.zeros((k + 1 + t, lagged + t))
        for j in range(0, self.basis.shape[1], _BLOCK):
            blk = self.basis[:k + 1 + t, j:j + _BLOCK]
            f += blk @ blk[m:].T
        s = f[:m, :lagged]
        f[m:k + 1, :lagged] = np.linalg.cholesky(f[m:k + 1, :lagged] - s.T @ s, upper=True)
        c = f[:k + 1, lagged:]
        c[m:] = np.linalg.solve(f[m:k + 1, :lagged].T, c[m:] - s.T @ c[:m])
        gram = f[k + 1:, lagged:]
        pyth = gram - c.T @ c
        if t > 1 and not np.linalg.eigvalsh(pyth)[0] * _BLOCK_COND > np.linalg.norm(gram, 2):
            t, f, gram, pyth = 1, f[:k + 2, :lagged + 1], gram[:1, :1], pyth[:1, :1]
        self.k, self.m, self.t, self.f = k, m, t, f
        self.tol_break = BREAKDOWN_RTOL * math.sqrt(gram[0, 0])
        f[k + 1:, :lagged] = 0.0
        if t > 1:
            f[k + 1:, lagged:] = np.linalg.cholesky(pyth, upper=True)
        else:  # 1 for a zero row
            f[-1, -1] = max(math.sqrt(max(pyth[0, 0], 0.0)), self.tol_break) or 1.0
        # rows of [L', W'] as combinations of the uncorrected rows
        self._lift = np.linalg.solve(f[m:].T, np.hstack((-f[:m].T, np.eye(lagged + t))))
        return t

    def update(self, keep: np.ndarray):
        """The update pass: writes ``L'`` and ``W'`` over rows ``m:k + 1 +
        t``, a slice at a time (read before written), and nothing else but
        the combinations of ``keep``, rows of coefficients on ``[V, L',
        W']``.  Returns those (valid until the next update) and ``W'^T W'``
        as written."""
        m, t, n = self.m, self.t, self.k + 1 + self.t
        coef = np.vstack((self._lift, keep[:, m:] @ self._lift))
        coef[n - m:, :m] += keep[:, :m]
        out, gram = self._out[:len(keep)], np.zeros((t, t))
        for j in range(0, self.basis.shape[1], _BLOCK):
            blk = coef @ self.basis[:n, j:j + _BLOCK]
            self.basis[m:n, j:j + _BLOCK] = blk[:n - m]
            new = blk[n - m - t:n - m]
            gram += new @ new.T
            out[:, j:j + _BLOCK] = blk[n - m:]
        return out, gram

    def exhausted(self, gram) -> bool:
        """True when a one-row block's exact ``||w'|| = sqrt(W'^T W') F[-1,
        -1]``, with ``gram`` as :meth:`update` returned it, is rounding
        noise."""
        return self.t == 1 and math.sqrt(gram[0, 0]) * self.f[-1, -1] <= self.tol_break


def _flexible(prec_at, history):
    """Direction map of the flexible solvers: ``z = P_k v`` with
    ``P_k = prec_at(k - 1, x_prev)``, or ``v`` when there is no callback or
    it returns None.  A degenerate ``z`` (e.g. zero weights: ``||z||`` at
    most ``BREAKDOWN_RTOL``, against a ``v`` that is a unit vector as far as
    the Pythagoras estimate of its norm is exact) is recorded as skipped and
    ``v`` takes its place; a non-finite one stops the run."""

    def direction(k, v, x):
        prec = prec_at(k - 1, x) if prec_at is not None else None
        if prec is None:
            return v
        z = prec.apply(v)
        z_norm = np.linalg.norm(z)
        if not np.isfinite(z_norm):
            raise _Stop("nonfinite")
        if z_norm <= BREAKDOWN_RTOL:
            history.rec.skipped.append(k)
            return v
        return z

    return direction


def _least_squares(r, rhs):
    try:
        return np.linalg.solve(r, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(r, rhs, rcond=None)[0]


def _hessenberg(gs, sigma, flexible):
    """Brings Hbar (``gs.h``) up to date after the reduction pass of a
    block, from its coefficient matrix F (``gs.f``, ``[L, W] = [V, L', W']
    F``): its rows on ``L`` become rows on ``V`` and ``L'`` (times the
    lagged columns of F), and the block's columns are filled.  A flexible
    step's image is ``A z = w sigma``, so its column is ``F[:, lagged:]
    sigma``, and the earlier columns, images of stored directions, keep
    their values.  Otherwise the columns are images of ``L`` too and are
    multiplied by the inverse, and the block's follow from ``A X = W
    diag(sigma)``, where ``X = [L e_last, W[:-1]] = [V, L', W'] T_X`` with
    ``T_X = F[:, lagged - 1:-1]``: with ``U = T_X[k:]`` (triangular),
    ``(F[:, lagged:] diag(sigma) - Hbar T_X[:k]) U^-1``."""
    h, k, m, f = gs.h, gs.k, gs.m, gs.f
    n, lagged = f.shape[0], k + 1 - m
    h[:m, :k] += f[:m, :lagged] @ h[m:k + 1, :k]
    h[m:k + 1, :k] = f[m:k + 1, :lagged] @ h[m:k + 1, :k]
    if flexible:
        h[:n, k:n - 1] = f[:, lagged:] * sigma
        return
    h[:k + 1, m:k] -= h[:k + 1, :m] @ f[:m, :lagged - 1]
    h[:k + 1, m:k] = np.linalg.solve(f[m:k, :lagged - 1].T, h[:k + 1, m:k].T).T
    t_x = f[:, lagged - 1:-1]
    cols = f[:, lagged:] * sigma - h[:n, :k] @ t_x[:k]
    h[:n, k:n - 1] = np.linalg.solve(t_x[k:n - 1].T, cols.T).T


def _arnoldi(history, *, direction, solution=None, flexible=False):
    """The one Arnoldi loop behind :func:`gmres`, :func:`fgmres` and
    :func:`flsqr`, in blocks (s-step Arnoldi; Hoemmen, PhD thesis, Berkeley
    2010), on the ``b``, rule and operator of ``history``.

    ``direction(k, v, x_prev)`` returns the vector ``z`` the operator is
    applied to at 1-based step k (``v``, ``P v``, ``P_k v``, or ``P_k`` times
    an adjoint image of ``v``), or raises :class:`_Stop`; the maps it applies
    are read through their one contract, nothing else.  A block applies the
    operator to the last lagged row and then to each image in turn, copied
    into its basis row and scaled there by the reciprocal of its norm
    ``sigma`` (a non-finite one stops the run on the iterate before the
    block), and takes the steps of all of them with one reduction and one
    update pass (:class:`_Dcgs2`, with Hbar from :func:`_hessenberg`).
    Stationary GMRES takes blocks of ``_S_STEP`` steps: ``Z = V`` (times P),
    and the iterate is ``solution(V y)``, as storing ``Z = P V`` too would
    double the memory of the basis.  A near rank-deficient block takes its
    first step only and the next ``_S_STEP - 1`` steps go one at a time;
    after two such blocks in a row, every step does.  The flexible solvers
    need the iterate of every step for the next direction, so their blocks
    have one row: ``A Z = V Hbar`` holds on the stored directions, and the
    iterate is ``Z y``.

    One R-only Householder QR of ``[Hbar, beta e1]`` (column-prefix stable)
    solves every step j of the block on its leading ``k + j`` triangle.  The
    update pass writes basis rows and each ``V y`` (unless flexible); each
    step records ``||beta e1 - Hbar y||``, the new rows weighted by their Gram
    as written, as its residual, as if taken alone.  Breakdown shows in a
    one-row block, whose exact ``||w'||`` is rounding noise.  A stop inside a
    block leaves its later applications unused; ``n_ops`` counts them.
    """
    b, rule = history.b, history.rule
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return history.record("breakdown", np.zeros(b.size))
    basis = _mapped(rule.max_iter + 1, b.size)
    basis[0] = b / beta
    gs = _Dcgs2(basis, 0 if flexible else _S_STEP)
    gs.h = h = np.zeros((rule.max_iter + 1, rule.max_iter))
    dirs = _mapped(rule.max_iter, b.size) if flexible else None
    x = np.zeros(b.size)
    k, lagged, single, failed = 0, 1, 0, False
    while k < rule.max_iter:
        sigma = np.ones(1 if single or flexible else min(_S_STEP, rule.max_iter - k))
        for j in range(len(sigma)):
            try:
                z = direction(k + j + 1, basis[k + j], x)
            except _Stop as stop:
                return history.record(str(stop), x)
            if flexible:
                dirs[k + j] = z
            # the image goes into its basis row first, so its norm reads a
            # contiguous row (a flipped image is a reversed view)
            row = basis[k + j + 1]
            row[:] = history.apply(z)
            sigma[j] = np.linalg.norm(row) or 1.0
            if not math.isfinite(sigma[j]):
                return history.record("nonfinite", x)
            row *= 1.0 / sigma[j]
        del z  # not kept alive through the passes
        t = gs.reduce(k, lagged, len(sigma))
        if t < len(sigma):
            single = rule.max_iter if failed else _S_STEP - 1
        elif single:
            single -= 1
        if len(sigma) > 1:
            failed = t < len(sigma)
        _hessenberg(gs, sigma[:t], flexible)
        n = k + 1 + t
        r = np.linalg.qr(np.hstack((h[:n, :n - 1], beta * np.eye(n, 1))), mode="r")
        ys = np.zeros((t, n))
        for j in range(1, t + 1):
            ys[j - 1, :k + j] = _least_squares(r[:k + j, :k + j], r[:k + j, -1])
        res = -ys[:, :n - 1] @ h[:n, :n - 1].T  # beta e1 - Hbar y, zero past row k + j
        res[:, 0] += beta
        rows, gram = gs.update(ys[:0] if flexible else ys)
        tail = res[:, k + 1:]
        projs = np.sqrt(np.vecdot(res[:, :k + 1], res[:, :k + 1]) + np.vecdot(tail @ gram, tail))
        for j, proj in enumerate(projs):
            if flexible:
                x = ys[j, :k + j + 1] @ dirs[:k + j + 1]
            else:
                x = rows[j] if solution is None else solution(rows[j])
            if history.push(x, proj):
                return history.record("discrepancy", x)
        if gs.exhausted(gram):
            return history.record("breakdown", x)
        k, lagged = n - 1, t
    return history.record("max_iter", x)


def gmres(A, b, rule: StoppingRule | None = None, right_prec=None,
          x_true=None) -> SolveRecord:
    """Full GMRES with an optional stationary right preconditioner.

    With right preconditioning the Arnoldi space is built for ``A P`` and the
    returned iterates are ``x = P u``; the recorded residual is that of
    the given system, which right preconditioning leaves invariant.
    """
    history = _History(A, b, rule, x_true, right_prec)
    if right_prec is None:
        return _arnoldi(history, direction=lambda k, v, x: v)
    return _arnoldi(history, direction=lambda k, v, x: right_prec.apply(v),
                    solution=right_prec.apply)


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
    history = _History(A, b, rule, x_true)
    return _arnoldi(history, direction=_flexible(prec_at, history), flexible=True)


# ---------------------------------------------------------------------------
# LSQR / FLSQR
# ---------------------------------------------------------------------------

def lsqr(A, b, rule: StoppingRule | None = None, right_prec=None,
         x_true=None) -> SolveRecord:
    """LSQR via Golub-Kahan bidiagonalization, no reorthogonalization.

    Needs ``apply_adjoint`` on the operator (and on a P that is no
    circulant), which runs the bidiagonalization on ``A P``.  This is the
    Givens loop of :func:`minres` on the bidiagonal B_k, whose column k is
    ``(0, alpha_k, beta_{k+1})``, with solution direction ``P v_k = M q_k``
    (``v_k = P^T q_k``, ``alpha_k^2 = <q_k, M q_k>``) for M = P P^T
    (:func:`~kryblur.preconditioners.times_adjoint`).  ``x`` is updated with
    the direction and ``b - A x`` with ``beta_{k+1} u_{k+1}``, never
    recomputed; ``u`` and ``q`` are updated in place.
    Step k applies the adjoint for ``q_k``, M and A, and none follows the
    last step: k iterations cost ``2k`` applications, one more when the
    adjoint of the next step reveals an exhausted Golub-Kahan space
    (``alpha`` at most ``_SINGULAR_RTOL`` times ``||B_k||_F``, the test the
    singular R gets) or is not finite, and two more when the next column
    makes R singular.
    """
    history = _History(A, b, rule, x_true, right_prec)
    m = None if right_prec is None else times_adjoint(right_prec)
    z_buf = None if m is None else np.empty(A.size)
    beta1 = float(np.linalg.norm(history.b))
    u = history.b / beta1 if beta1 else history.b
    q = np.zeros(A.size)
    beta = b_norm2 = 0.0

    def column(k):
        nonlocal u, q, beta, b_norm2
        # alpha_k q_k = A^T u_k - beta_k q_{k-1} and beta_{k+1} u_{k+1} =
        # A P v_k - alpha_k u_k, each in its own buffer; operator outputs may
        # be their own input (identity), so they are only read
        if k > 1:  # the loop has read ``beta u``
            u *= 1.0 / beta
        q *= -beta
        q += history.apply_adjoint(u)
        mq, alfa = _dual_norm(m, q)
        b_norm2 += alfa * alfa
        if not alfa > _SINGULAR_RTOL * math.sqrt(b_norm2):  # ||B_k||_F
            raise _Stop("breakdown" if math.isfinite(b_norm2) else "nonfinite")
        s_dir = q if m is None else np.multiply(mq, 1.0 / alfa, out=z_buf)  # mq may be q
        q *= 1.0 / alfa
        del mq
        u *= -alfa
        u += history.apply(s_dir)
        beta = float(np.linalg.norm(u))
        b_norm2 += beta * beta
        return (0.0, alfa, beta), s_dir, u

    return _givens_loop(column, beta1, history)


def flsqr(A, b, prec_at=None, rule: StoppingRule | None = None,
          x_true=None) -> SolveRecord:
    """Flexible LSQR: Golub-Kahan with an iteration-dependent right
    preconditioner supplied by ``prec_at(k, x_prev)``.

    Flexibility breaks the bidiagonal short recurrence, so the projected
    problem is upper Hessenberg: this is the flexible :func:`_arnoldi` engine
    on A, whose basis is ``U``, with directions ``P_k v_k``.  Each ``v_k`` is
    the adjoint image of the latest ``u`` made orthonormal to the earlier
    ones by DCGS2 as well, in blocks of one row.  The residual comes from the
    flexible Golub-Kahan relation ``A Z_k = U_{k+1} Mbar_k``: one iteration
    costs one forward and one adjoint application.  A non-finite adjoint image
    or preconditioned direction stops the run.  With a constant identity
    callback the projected problem is bidiagonal again and the method reduces
    to :func:`lsqr`.
    """
    history = _History(A, b, rule, x_true)
    v_basis = _mapped(history.rule.max_iter, A.size)
    v_gs = _Dcgs2(v_basis, 0)
    preconditioned = _flexible(prec_at, history)

    def direction(k, u, x):
        # row k - 1 is a block of one row after k - 2 steps, with one lagged
        # row (none at step 1), and no combinations
        v_basis[k - 1] = history.apply_adjoint(u)
        if not math.isfinite(np.linalg.norm(v_basis[k - 1])):
            raise _Stop("nonfinite")
        v_gs.reduce(k - 2, min(k - 1, 1), 1)
        _, gram = v_gs.update(np.empty((0, k)))
        if v_gs.exhausted(gram):
            raise _Stop("breakdown")
        return preconditioned(k, v_basis[k - 1], x)

    return _arnoldi(history, direction=direction, flexible=True)
