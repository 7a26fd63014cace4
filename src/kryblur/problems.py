"""Test problems, the noise model, and experiment orchestration.

The module has three layers:

* image and PSF generators (:func:`phantom`, :func:`edges_image`,
  :func:`star_field`, :func:`natural_scene`, :func:`make_gaussian_psf`,
  :func:`make_motion_psf`, :func:`make_two_motion_psf`);
* problem construction with an exactly normalized noise term
  (:func:`make_problem`), so the discrepancy principle has a reliable
  noise norm to work with;
* a small experiment driver (:func:`run_experiment`) that plans every
  method label such as ``"YAPW FGMRES"`` on the problem, with every check
  the label can fail, before it runs any to the iteration budget and writes
  CSV, PGM, and summary artifacts per method.

Method labels follow the pattern ``(Y?)A(P?)(W?) SOLVER``: ``Y`` flips the
system to its symmetrized form, ``P`` adds the circulant filter (plain
Tikhonov on the unflipped system, absolute-value Tikhonov on the flipped
one), and ``W`` adds iteration-dependent sparsity reweighting, which
requires a flexible solver.  The combined ``PW`` preconditioner applies the
weights to the incoming direction first and the circulant filter second.
"""

from __future__ import annotations

import math
import re
import time
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .operators import (
    BlurOperator,
    BoundaryCondition,
    FlipComposedOperator,
    Psf,
    apply_flip,
    bccb_eigenvalues,
    load_psf,
)
from .preconditioners import (
    _FILTERS,
    ComposedOperator,
    PreconditionerSchedule,
    circulant_sqrt,
    sparsity_weights,
)
from . import solvers
from .solvers import SolveRecord, StoppingRule

__all__ = [
    "NoisyProblem",
    "ExperimentConfig",
    "MethodRun",
    "phantom",
    "edges_image",
    "star_field",
    "natural_scene",
    "make_gaussian_psf",
    "make_motion_psf",
    "make_two_motion_psf",
    "make_problem",
    "parse_config",
    "parse_method_label",
    "run_experiment",
    "write_pgm",
    "read_pgm",
    "load_image",
]


# ---------------------------------------------------------------------------
# Images


# Modified Shepp-Logan ellipses: (added value, semi-axis a, semi-axis b,
# center x, center y, rotation in degrees) on the [-1, 1]^2 square.
_SHEPP_LOGAN = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.1, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.1, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.1, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.605, 0.0),
)


def _square_side(n) -> int:
    n = int(n)
    if n < 2:
        raise ValueError(f"image side must be at least 2, got {n}")
    return n


def phantom(n: int) -> np.ndarray:
    """Modified Shepp-Logan head phantom on an n-by-n grid, values in [0, 1]."""
    n = _square_side(n)
    coords = (np.arange(n) + 0.5) * 2.0 / n - 1.0
    x = coords[None, :]
    y = -coords[:, None]
    img = np.zeros((n, n))
    for value, a, b, x0, y0, phi in _SHEPP_LOGAN:
        ang = math.radians(phi)
        c, s = math.cos(ang), math.sin(ang)
        xr = (x - x0) * c + (y - y0) * s
        yr = -(x - x0) * s + (y - y0) * c
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    return np.clip(img, 0.0, 1.0)


def _draw_line(img: np.ndarray, r0: float, c0: float, r1: float, c1: float) -> None:
    n = img.shape[0]
    steps = int(max(abs(r1 - r0), abs(c1 - c0))) + 1
    rows = np.rint(np.linspace(r0, r1, steps)).astype(int).clip(0, n - 1)
    cols = np.rint(np.linspace(c0, c1, steps)).astype(int).clip(0, n - 1)
    img[rows, cols] = 1.0


def edges_image(n: int) -> np.ndarray:
    """Sparse image of geometric outlines (mostly zeros, unit-bright edges)."""
    n = _square_side(n)
    img = np.zeros((n, n))

    r0, r1 = round(0.12 * n), round(0.50 * n)
    c0, c1 = round(0.10 * n), round(0.46 * n)
    _draw_line(img, r0, c0, r0, c1)
    _draw_line(img, r1, c0, r1, c1)
    _draw_line(img, r0, c0, r1, c0)
    _draw_line(img, r0, c1, r1, c1)

    cr, cc, rad = 0.64 * n, 0.66 * n, 0.20 * n
    angles = np.linspace(0.0, 2.0 * math.pi, max(16, int(8 * rad)), endpoint=False)
    rows = np.rint(cr + rad * np.sin(angles)).astype(int).clip(0, n - 1)
    cols = np.rint(cc + rad * np.cos(angles)).astype(int).clip(0, n - 1)
    img[rows, cols] = 1.0

    top = (round(0.62 * n), round(0.22 * n))
    left = (round(0.90 * n), round(0.08 * n))
    right = (round(0.90 * n), round(0.40 * n))
    _draw_line(img, *top, *left)
    _draw_line(img, *left, *right)
    _draw_line(img, *right, *top)
    return img


def star_field(n: int, seed: int = 1) -> np.ndarray:
    """Scattered small bright objects on a black background, peak value 1.

    Point sources get a Gaussian brightness profile of about 1.3 pixels so
    each object carries enough energy for reconstruction experiments to show
    semi-convergence; values below 1e-3 are cut to keep the image sparse.
    """
    n = _square_side(n)
    rng = np.random.default_rng(seed)
    img = np.zeros((n, n))
    count = max(12, n * n // 300)
    margin = max(2, n // 16)
    rows = rng.integers(margin, n - margin, size=count)
    cols = rng.integers(margin, n - margin, size=count)
    bright = rng.uniform(0.25, 1.0, size=count)
    np.maximum.at(img, (rows, cols), bright)
    profile_std = 1.3
    fr = np.fft.fftfreq(n)[:, None]
    fc = np.fft.rfftfreq(n)[None, :]
    profile = np.exp(-2.0 * (math.pi * profile_std) ** 2 * (fr**2 + fc**2))
    img = np.fft.irfft2(np.fft.rfft2(img) * profile, s=(n, n))
    img[img < 1e-3] = 0.0
    return img / img.max()


def natural_scene(n: int, seed: int = 7) -> np.ndarray:
    """Smooth band-limited random scene rescaled to [0, 1].

    White noise filtered by 1/(1 + |k|^2) gives the large, soft structures
    of a natural photograph without shipping one.
    """
    n = _square_side(n)
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((n, n))
    fr = np.fft.fftfreq(n)[:, None]
    fc = np.fft.rfftfreq(n)[None, :]
    gain = 1.0 / (1.0 + (np.hypot(fr, fc) * n / 4.0) ** 2)
    img = np.fft.irfft2(np.fft.rfft2(white) * gain, s=(n, n))
    lo, hi = img.min(), img.max()
    return (img - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# PSFs


def make_gaussian_psf(support: int, std: float) -> Psf:
    """Normalized truncated Gaussian on an odd support-by-support canvas."""
    support = int(support)
    if support < 1 or support % 2 == 0:
        raise ValueError(f"support must be a positive odd integer, got {support}")
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    half = support // 2
    rows, cols = np.mgrid[-half : half + 1, -half : half + 1]
    kernel = np.exp(-(rows**2 + cols**2) / (2.0 * float(std) ** 2))
    return Psf(kernel / kernel.sum(), (half, half))


def _motion_psf(length: int, angles) -> Psf:
    # Pixel-center rasterization stepping along each angle's major axis:
    # pixel t of the line sits at t times its direction over the larger
    # component, rounded.  The line starts at the PSF center and extends
    # one-sidedly: this keeps generic-angle kernels asymmetric under
    # 180-degree rotation.  Each pixel weighs 1/length; renormalized.
    length = int(length)
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    theta = [math.radians(float(angle)) for angle in angles]
    if not all(map(math.isfinite, theta)):
        raise ValueError(f"motion angles must be finite, got {tuple(angles)}")
    dirs = np.array([(-math.sin(th), math.cos(th)) for th in theta]).T[..., None]
    offsets = np.rint(np.arange(length) * (dirs / np.abs(dirs).max(axis=0))).astype(int)
    lo = offsets.min(axis=(1, 2))
    kernel = np.zeros(offsets.max(axis=(1, 2)) - lo + 1)
    np.add.at(kernel, tuple(offsets.reshape(2, -1) - lo[:, None]), 1.0 / length)
    return Psf(kernel / kernel.sum(), tuple(-lo))


def make_motion_psf(length: int, angle: float) -> Psf:
    """Normalized line kernel for unidirectional motion blur.

    The line starts at the PSF center and extends ``length`` pixels along
    ``angle`` (degrees, counterclockwise from the positive column axis), so
    any kernel longer than one pixel differs from its 180-degree rotation.
    """
    return _motion_psf(length, (angle,))


def make_two_motion_psf(length: int, angle1: float, angle2: float) -> Psf:
    """Motion blur in two directions: renormalized sum of two line kernels."""
    return _motion_psf(length, (angle1, angle2))


# ---------------------------------------------------------------------------
# Noise model


@dataclass(frozen=True)
class NoisyProblem:
    """A blur operator with data ``b = A x_true + noise`` and exact bookkeeping.

    The white-noise vector is rescaled so that ``norm(b - A x_true)`` equals
    ``sigma * norm(A x_true)`` to the last bit; ``noise_norm`` stores that
    value for discrepancy-principle stopping.
    """

    operator: BlurOperator
    b: np.ndarray
    sigma: float
    noise_norm: float
    x_true: np.ndarray
    seed: int


def make_problem(x_true: np.ndarray, psf: Psf, bc, sigma: float, seed: int) -> NoisyProblem:
    """Blur ``x_true`` and add seeded Gaussian noise of relative level ``sigma``."""
    x_true = np.asarray(x_true, dtype=float)
    if x_true.ndim != 2 or x_true.shape[0] != x_true.shape[1]:
        raise ValueError(f"x_true must be a square image, got shape {x_true.shape}")
    if not np.all(np.isfinite(x_true)):
        raise ValueError("x_true must have finite entries")
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    operator = BlurOperator(psf, bc, x_true.shape[0])
    blurred = operator.apply(x_true)
    if sigma == 0.0:
        b = blurred
        noise_norm = 0.0
    else:
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal(x_true.size)
        noise_norm = sigma * float(np.linalg.norm(blurred))
        b = blurred + (xi / np.linalg.norm(xi)).reshape(x_true.shape) * noise_norm
    return NoisyProblem(
        operator=operator,
        b=b,
        sigma=sigma,
        noise_norm=noise_norm,
        x_true=x_true,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# PGM and PNG files


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 16-bit binary PGM, min-max scaled, byte-deterministic."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image must have finite entries")
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.rint((img - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(img)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + scaled.astype(">u2").tobytes())


_PGM_TOKEN = re.compile(rb"#[^\n]*|(\S+)")


def _pgm_tokens(raw: bytes):
    # whitespace-separated header and P2 tokens, with ``#`` comments to the
    # end of their line skipped; each with the offset just past it
    for match in _PGM_TOKEN.finditer(raw):
        if match[1] is not None:
            yield match[1], match.end()


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 PGM into floats scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    tokens = _pgm_tokens(raw)
    try:
        magic, _ = next(tokens)
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, after = next(tokens)
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError) as exc:
        raise ValueError(f"{path}: malformed PGM header") from exc
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    if width < 1 or height < 1 or maxval < 1 or maxval > 65535:
        raise ValueError(f"{path}: malformed PGM header")
    count = width * height
    if magic == b"P2":
        values = np.array([int(tok) for tok, _ in tokens], dtype=float)
        if values.size != count:
            raise ValueError(f"{path}: expected {count} pixels, got {values.size}")
    else:
        data = raw[after + 1 :]  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        if len(data) < count * dtype.itemsize:
            raise ValueError(f"{path}: truncated pixel data")
        values = np.frombuffer(data[: count * dtype.itemsize], dtype=dtype).astype(float)
    return (values / maxval).reshape(height, width)


def load_image(path) -> np.ndarray:
    """Load a grayscale image (PGM natively, PNG and friends via Pillow)."""
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        return read_pgm(path)
    try:
        from PIL import Image
    except ImportError as exc:
        raise ImportError(
            f"reading {path.suffix or 'image'} files needs Pillow; "
            "install the 'png' extra"
        ) from exc
    with Image.open(path) as img:
        return np.asarray(img.convert("L"), dtype=float) / 255.0


# ---------------------------------------------------------------------------
# Experiment configuration


#: Each PSF kind's generator and the config keys of its arguments, in the
#: order of the spec string ``kind:VALUE:...`` (cast by the keys' types).
_PSF_KINDS = {
    "gaussian": (make_gaussian_psf, ("psf_support", "psf_std")),
    "motion": (make_motion_psf, ("psf_length", "psf_angle")),
    "motion2": (make_two_motion_psf, ("psf_length", "psf_angle", "psf_angle2")),
}
_BUILTIN_IMAGES = ("phantom", "edges")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated contents of a flat ``key = value`` experiment file: the
    fields without a default are the required keys."""

    image: str
    psf: str
    bc: BoundaryCondition
    sigma: float
    seed: int
    methods: tuple[str, ...]
    outdir: str
    n: int | None = None
    psf_support: int = 9
    psf_std: float = 2.0
    psf_length: int = 5
    psf_angle: float = 0.0
    psf_angle2: float = 90.0
    alpha0: float = 0.1
    q: float = 0.8
    eta: float = 1.01
    max_iter: int = 50


#: The type of each config key, by field name.
_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)


def _method_labels(text: str) -> tuple[str, ...]:
    labels = tuple(m.strip() for m in text.split(",") if m.strip())
    if not labels:
        raise ValueError("lists no method labels")
    for i, label in enumerate(labels):
        parse_method_label(label)
        if label in labels[:i]:
            raise ValueError(f"lists method label {label!r} twice")
    return labels


def _config_value(key: str, kind, text: str):
    """The value of config key ``key`` cast to its field type ``kind``; a
    float must be finite."""
    cast = {BoundaryCondition: BoundaryCondition.coerce,
            tuple[str, ...]: _method_labels, int | None: int}.get(kind, kind)
    try:
        value = cast(text)
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"config key {key} must be finite, got {text}")
    return value


def parse_config(path) -> ExperimentConfig:
    """Parse an experiment file of ``key = value`` lines.

    Unknown keys, missing required keys and values that do not cast to
    their field type are reported by name; ``#`` starts a comment.
    """
    text = Path(path).read_text(encoding="utf-8")
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key}")
        pairs[key] = value

    for key in pairs:
        if key not in _CONFIG_TYPES:
            raise ValueError(f"unknown config key {key}")
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in pairs:
            raise ValueError(f"missing config key: {f.name}")

    cfg = ExperimentConfig(**{key: _config_value(key, _CONFIG_TYPES[key], value)
                              for key, value in pairs.items()})
    if cfg.psf not in _PSF_KINDS and not cfg.psf.startswith("file:"):
        raise ValueError(
            f"config key psf expects one of {tuple(_PSF_KINDS)} or file:PATH, got {cfg.psf!r}"
        )
    if cfg.sigma < 0:
        raise ValueError(f"config key sigma must be nonnegative, got {cfg.sigma}")
    if cfg.alpha0 < 0:
        raise ValueError(f"config key alpha0 must be nonnegative, got {cfg.alpha0}")
    if not 0.0 < cfg.q <= 1.0:
        raise ValueError(f"config key q must lie in (0, 1], got {cfg.q}")
    if cfg.eta < 1.0:
        raise ValueError(f"config key eta must be at least 1, got {cfg.eta}")
    if cfg.max_iter < 1:
        raise ValueError(f"config key max_iter must be at least 1, got {cfg.max_iter}")
    if cfg.image in _BUILTIN_IMAGES and cfg.n is None:
        raise ValueError(f"missing config key: n (required for image = {cfg.image})")
    return cfg


def _resolve_image(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.image == "phantom":
        return phantom(cfg.n)
    if cfg.image == "edges":
        return edges_image(cfg.n)
    img = load_image(cfg.image)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"{cfg.image}: experiments need a square image, got {img.shape}")
    if cfg.n is not None and img.shape[0] != cfg.n:
        raise ValueError(f"{cfg.image}: image side {img.shape[0]} does not match n = {cfg.n}")
    return img


def _build_psf(cfg: ExperimentConfig) -> Psf:
    if cfg.psf.startswith("file:"):
        return load_psf(cfg.psf[len("file:") :])
    make, keys = _PSF_KINDS[cfg.psf]
    return make(*(getattr(cfg, key) for key in keys))


# ---------------------------------------------------------------------------
# Method labels and the experiment driver


_LABEL_RE = re.compile(r"(Y?)A(P?)(W?) (LSQR|FLSQR|GMRES|FGMRES|MINRES)\Z")

_FLEXIBLE = ("FGMRES", "FLSQR")


@dataclass(frozen=True)
class MethodSpec:
    flip: bool
    prec: bool
    weights: bool
    solver: str


def parse_method_label(label: str) -> MethodSpec:
    """Split a row label like ``"YAPW FGMRES"`` into its stack components."""
    match = _LABEL_RE.fullmatch(label.strip())
    if match is None:
        raise ValueError(
            f"unknown method label {label!r}; expected '(Y?)A(P?)(W?) SOLVER' "
            "with SOLVER one of LSQR, FLSQR, GMRES, FGMRES, MINRES"
        )
    spec = MethodSpec(
        flip=bool(match.group(1)),
        prec=bool(match.group(2)),
        weights=bool(match.group(3)),
        solver=match.group(4),
    )
    if spec.weights and spec.solver not in _FLEXIBLE:
        raise ValueError(
            f"method label {label!r}: sparsity reweighting (W) changes every "
            "iteration and needs a flexible solver (FGMRES or FLSQR)"
        )
    if spec.flip and spec.solver in ("LSQR", "FLSQR"):
        raise ValueError(
            f"method label {label!r}: the flip leaves least-squares iterations "
            "unchanged; drop the Y or switch to GMRES/MINRES"
        )
    if spec.solver == "MINRES" and not spec.flip:
        raise ValueError(
            f"method label {label!r}: MINRES needs the symmetrized system; "
            "use YA MINRES or YAP MINRES"
        )
    return spec


@dataclass(frozen=True)
class MethodRun:
    """One method's results plus the artifact directory it was written to."""

    label: str
    record: SolveRecord
    directory: Path
    best_iter: int
    best_rre: float
    best_psnr: float
    dp_iter: int | None
    dp_rre: float | None
    dp_psnr: float | None
    wall_time: float


def _flexible_supplier(schedule: PreconditionerSchedule | None, symbol,
                       weights: bool):
    """The ``prec_at`` of a flexible label: the schedule's filter for step k
    (``P``) after the sparsity weights of the previous iterate (``W``).  No
    weights are taken of a zero iterate, and None stands for no map."""
    if schedule is None and not weights:
        return None

    def supplier(k: int, x_prev: np.ndarray):
        circ = None if schedule is None else schedule.build(symbol, k)
        if not weights or not np.any(x_prev):
            return circ
        diag = sparsity_weights(x_prev)
        return diag if circ is None else ComposedOperator(diag, circ)

    return supplier


def _plan(spec: MethodSpec, problem: NoisyProblem, cfg: ExperimentConfig, symbol):
    """Resolve one label on ``problem``, with ``symbol`` the PSF's half grid
    (None without ``P`` labels), into ``(solve, alpha_at)``: ``solve()`` runs
    the solver and returns its record, and ``alpha_at(i)`` is the alpha of
    0-based step i (None without ``P``).  Every check the label can fail on
    this problem raises ``ValueError`` here, before any solve."""
    op = problem.operator
    if (spec.solver == "MINRES" and op.bc is BoundaryCondition.REFLECTIVE
            and not op.psf.centrally_symmetric):
        raise ValueError(
            "under reflective boundaries with a non-symmetric PSF the flipped "
            "system is only approximately symmetric, so MINRES does not "
            "apply; use GMRES instead"
        )
    # Y: the system, its right-hand side and the filter that suits it
    if spec.flip:
        system, rhs, kind = FlipComposedOperator(op), apply_flip(problem.b), "abs_tikhonov"
    else:
        system, rhs, kind = op, problem.b, "tikhonov"
    # P: a schedule inside the flexible solvers, a stationary filter elsewhere
    entry, prec, alpha_at = spec.solver.lower(), {}, None
    if spec.solver in _FLEXIBLE:
        schedule = PreconditionerSchedule(kind, cfg.alpha0, cfg.q) if spec.prec else None
        alpha_at = schedule.alpha_at if schedule else None
        prec = {"prec_at": _flexible_supplier(schedule, symbol, spec.weights)}
    elif spec.prec:
        circ = _FILTERS[kind](symbol, cfg.alpha0)
        alpha_at = lambda i: cfg.alpha0
        if spec.solver == "MINRES":
            entry, prec = "minres_sym_prec", {"p_half": circulant_sqrt(circ)}
        else:
            prec = {"right_prec": circ}
    # a noise norm without dp_enabled: the solver keeps the discrepancy
    # iterate and still runs to the full budget
    rule = StoppingRule(max_iter=cfg.max_iter, eta=cfg.eta,
                        noise_norm=problem.noise_norm)

    def solve() -> SolveRecord:
        # the entry point is looked up on the module at call time, so a
        # wrapper set there (a tracer, a test) sees the call
        return getattr(solvers, entry)(system, rhs, rule=rule, x_true=problem.x_true,
                                       **prec)

    return solve, alpha_at


def _write_artifacts(
    label: str,
    record: SolveRecord,
    alpha_at,
    problem: NoisyProblem,
    cfg: ExperimentConfig,
    directory: Path,
    wall_time: float,
) -> MethodRun:
    directory.mkdir(parents=True, exist_ok=True)
    n = problem.operator.n
    rows = ["iter,res_norm,rre,psnr,alpha"]
    for i in range(record.iterations):
        alpha = "" if alpha_at is None else repr(float(alpha_at(i)))
        rows.append(
            f"{i + 1},{record.res_norm[i]!r},{record.rre[i]!r},"
            f"{record.psnr[i]!r},{alpha}"
        )
    (directory / "history.csv").write_text("\n".join(rows) + "\n", encoding="ascii")

    best_iter = record.best_index
    best_rre = record.rre[best_iter - 1]
    best_psnr = record.psnr[best_iter - 1]
    write_pgm(directory / "best.pgm", record.x_best.reshape(n, n))

    dp_iter = record.dp_index
    dp_rre = dp_psnr = None
    if dp_iter is not None:
        dp_rre = record.rre[dp_iter - 1]
        dp_psnr = record.psnr[dp_iter - 1]
        write_pgm(directory / "dp.pgm", record.x_dp.reshape(n, n))

    lines = [
        f"method: {label}",
        f"image: {cfg.image}  n: {n}  bc: {problem.operator.bc.value}"
        f"  sigma: {problem.sigma!r}  seed: {problem.seed}",
        f"iterations run: {record.iterations}  stop reason: {record.stop_reason}",
        f"operator applications: {record.n_ops}",
        f"best: iter {best_iter}  rre {best_rre!r}  psnr {best_psnr!r}",
    ]
    if dp_iter is None:
        lines.append(
            f"dp: not reached within {record.iterations} iterations"
            f" (threshold {cfg.eta * problem.noise_norm!r})"
        )
    else:
        lines.append(f"dp: iter {dp_iter}  rre {dp_rre!r}  psnr {dp_psnr!r}")
    lines.append(f"wall time: {wall_time:.3f} s")
    (directory / "summary.txt").write_text("\n".join(lines) + "\n", encoding="ascii")

    return MethodRun(
        label=label,
        record=record,
        directory=directory,
        best_iter=best_iter,
        best_rre=best_rre,
        best_psnr=best_psnr,
        dp_iter=dp_iter,
        dp_rre=dp_rre,
        dp_psnr=dp_psnr,
        wall_time=wall_time,
    )


def run_experiment(cfg: ExperimentConfig) -> list[MethodRun]:
    """Plan every configured method label, then run each and write its
    artifact files.  Every label is checked against the problem before the
    first solve, so one that cannot run here raises ``ValueError`` and no
    method directory is written.

    Each method gets ``outdir/<label-with-dashes>/`` containing
    ``history.csv`` (iter, residual norm, RRE, PSNR, alpha), ``best.pgm``
    (minimum-RRE iterate), ``dp.pgm`` (discrepancy-principle iterate, only
    if the threshold was reached), and ``summary.txt`` (with the wall time
    of the solve alone).  Solvers run to the configured iteration budget and
    record the first iterate that meets the discrepancy threshold on the
    way, so one run yields both readings.
    """
    x_true = _resolve_image(cfg)
    psf = _build_psf(cfg)
    problem = make_problem(x_true, psf, cfg.bc, cfg.sigma, cfg.seed)
    specs = [parse_method_label(label) for label in cfg.methods]
    symbol = bccb_eigenvalues(psf, problem.operator.n) if any(s.prec for s in specs) else None
    plans = []
    for label, spec in zip(cfg.methods, specs):
        try:
            plans.append(_plan(spec, problem, cfg, symbol))
        except ValueError as exc:
            raise ValueError(f"method label {label!r}: {exc}") from None
    outdir = Path(cfg.outdir)
    runs = []
    for label, (solve, alpha_at) in zip(cfg.methods, plans):
        start = time.perf_counter()
        record = solve()
        wall = time.perf_counter() - start
        directory = outdir / label.replace(" ", "-")
        runs.append(_write_artifacts(label, record, alpha_at, problem, cfg, directory, wall))
    return runs
