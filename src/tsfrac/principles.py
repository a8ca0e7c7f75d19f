"""Maximum-principle verification harness.

The theorems being checked are conditionals: *if* the data have the right
signs, *then* the solution is nonnegative (classical and weak forms) or
attains its extrema on the parabolic boundary, which is the initial slice
plus the lateral (exterior-adjacent) layer -- the terminal interior slice
is excluded.  Each check therefore first validates the hypotheses; when
they fail, the outcome is a distinct "hypotheses-violated" report, never
a theorem failure.

Checks are stated at the discrete level, where the monotone L1 + M-matrix
scheme makes them exact: nonnegativity holds exactly, and a negative
global minimum can only ever be attained at t = 0 (any later attainment
would force a negative forcing value through the M-matrix row structure).
The randomized driver sweeps an (alpha, beta) lattice with clipped random
Fourier bumps and aggregates the worst violation, reproducibly from a
single seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fraclap import SpaceGrid
from .kernels import TimeMesh
from .solver import l1_stepper

__all__ = [
    "BoundaryClass",
    "PrincipleReport",
    "TrialConfig",
    "classify",
    "check_nonnegativity",
    "check_parabolic_boundary",
    "run_trials",
]


class BoundaryClass(enum.Enum):
    INTERIOR = "interior"
    LATERAL = "lateral"
    INITIAL = "initial"
    TERMINAL = "terminal"


def classify(nx: int, M: int, i: int, n: int) -> BoundaryClass:
    """Tag a space-time index on the extended grid i = 0..nx+1, n = 0..M.

    nx counts the interior nodes and M the time steps.  i = 0 and
    i = nx + 1 are the boundary/ghost nodes carrying the zero exterior
    condition; together with the exterior-adjacent interior layer
    (i = 1, nx) they form the lateral class at every time.  The initial
    class is the rest of the t = 0 slice, the terminal class the rest of
    the t = T slice; precedence lateral > initial > terminal makes the four
    tags a partition.
    """
    if not 0 <= i <= nx + 1:
        raise ValueError(f"node index {i} outside 0..{nx + 1}")
    if not 0 <= n <= M:
        raise ValueError(f"time index {n} outside 0..{M}")
    if i <= 1 or i >= nx:
        return BoundaryClass.LATERAL
    if n == 0:
        return BoundaryClass.INITIAL
    if n == M:
        return BoundaryClass.TERMINAL
    return BoundaryClass.INTERIOR


@dataclass
class PrincipleReport:
    """Outcome of one maximum-principle check (or an aggregate of trials)."""

    kind: str  # nonneg | boundary-min | weak-nonneg
    status: str  # pass | fail | hypotheses-violated
    extremal_value: float
    location: tuple[int, int]  # (node index on the extended grid, time index)
    location_class: BoundaryClass
    violation: float  # max(0, -slack); 0 when passing
    trials: int = 1
    seeds: list = dc_field(default_factory=list)
    lattice: list = dc_field(default_factory=list)
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "status": self.status,
            "worst": self.extremal_value,
            "violation": self.violation,
            "location": list(self.location),
            "location_class": self.location_class.value,
            "trials": self.trials,
            "seeds": [int(s) for s in self.seeds],
            "lattice": [list(p) for p in self.lattice],
            "detail": self.detail,
        }


def _hypotheses_report(kind: str, detail: str) -> PrincipleReport:
    return PrincipleReport(
        kind=kind,
        status="hypotheses-violated",
        extremal_value=float("nan"),
        location=(-1, -1),
        location_class=BoundaryClass.INTERIOR,
        violation=0.0,
        detail=detail,
    )


def _extended_argmin(states: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Global minimum over the closed cylinder, ghost columns included.

    Returns the value and its (i, n) location on the extended grid, taking
    the first attainment in time-major order so that ties involving the
    initial slice resolve to it.  The ghost node (0, 0) holds 0 and comes
    first, so it wins unless some state is negative (or nan, which is
    reported where it sits).
    """
    flat = int(np.argmin(states))
    n, j = divmod(flat, states.shape[1])
    vmin = float(states[n, j])
    if not vmin >= 0.0:
        return vmin, (j + 1, n)
    return 0.0, (0, 0)


def check_nonnegativity(states: np.ndarray, forcing: np.ndarray) -> PrincipleReport:
    """Nonnegativity check: u0 >= 0 and f >= 0 imply min u >= 0.

    ``states`` (u^0..u^M) is an (M+1, n) array.  f is read only through
    its smallest and largest value, so ``forcing`` may be the (M+1, n)
    samples or any array with the same extremes, such as the pair
    [min f, max f].  The scheme is monotone and its inverse has no
    negative entry, so the statement holds exactly in floating point, with
    no tolerance; any negative state, however small, is a failure.
    """
    kind = "nonneg"
    if np.any(states[0] < 0.0):
        return _hypotheses_report(kind, "u0 takes negative values")
    if np.any(forcing < 0.0):
        return _hypotheses_report(kind, "forcing takes negative values")
    vmin, loc = _extended_argmin(states)
    cls = classify(states.shape[1], states.shape[0] - 1, *loc)
    return PrincipleReport(
        kind=kind,
        status="pass" if vmin >= 0.0 else "fail",
        extremal_value=vmin,
        location=loc,
        location_class=cls,
        violation=max(0.0, -vmin),
    )


def check_parabolic_boundary(states: np.ndarray, forcing: np.ndarray) -> PrincipleReport:
    """Minimum-location check: with f >= 0 the global minimum sits on the parabolic boundary.

    The arrays are those of check_nonnegativity, and f is again read only
    through its smallest and largest value.  The hypothesis f >= 0 makes
    the discrete solution a supersolution.  The check is the
    argmin-membership form: the first attainment of the global minimum
    over the closed cylinder (ghost columns included) must be classified
    initial or lateral, never interior or terminal.  The equation is
    linear, so the maximum statement (f <= 0) is
    check_parabolic_boundary(-states, -forcing).
    """
    kind = "boundary-min"
    if np.any(forcing < 0.0):
        return _hypotheses_report(kind, "forcing takes negative values")
    vmin, loc = _extended_argmin(states)
    cls = classify(states.shape[1], states.shape[0] - 1, *loc)
    ok = cls in (BoundaryClass.INITIAL, BoundaryClass.LATERAL)
    # Degenerate near-ties: an interior attainment within 1e-12 of the data
    # scale of the parabolic-boundary minimum is not a violation.
    if not ok:
        pb_best = min(float(np.min(states[0])), 0.0)  # initial slice and lateral zeros
        scale = max(1.0, float(np.max(np.abs(states[0]))), float(np.max(np.abs(forcing))))
        ok = abs(vmin - pb_best) <= 1e-12 * scale
    return PrincipleReport(
        kind=kind,
        status="pass" if ok else "fail",
        extremal_value=vmin,
        location=loc,
        location_class=cls,
        violation=0.0 if ok else abs(vmin),
    )


_MODES = 5  # Fourier modes in each random bump


@dataclass(frozen=True)
class TrialConfig:
    """Randomized-trial specification for the principle checks."""

    kind: str  # nonneg | boundary-min | weak-nonneg
    trials: int
    seed: int
    alphas: tuple
    betas: tuple
    grid: SpaceGrid
    mesh: TimeMesh

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if len(self.alphas) == 0 or len(self.betas) == 0:
            raise ValueError("empty (alpha, beta) lattice")
        if self.kind not in ("nonneg", "boundary-min", "weak-nonneg"):
            raise ValueError(f"unknown trial kind {self.kind!r}")


_BATCH_BYTES = 4 * 2**20  # most bytes of a batch's forcing samples, which its states overwrite


def _run_batch(kind: str, grid: SpaceGrid, mesh: TimeMesh, step, seeds) -> list:
    """Solve a batch of one lattice point's trials in one call of its stepper; check each.

    Each trial draws from its own seed, in order: the u0 bump (_MODES
    uniforms), the forcing bump (_MODES uniforms), omega, phase and, for
    weak-nonneg, the slack.  A bump is the sum of its uniforms times the
    sine modes sin(k pi s), k = 1.._MODES, s = (x - a)/(b - a), and u0 is
    its bump, clipped at 0 unless the kind is boundary-min.  The forcing is
    max(bump(x) cos(omega t + phase), 0) + slack, the slack 0 unless drawn:
    weak-nonneg manufactures a supersolution of the slack-free problem by
    a strictly positive slack, and checks the conclusion (nonnegativity)
    exactly.

    The batch is one (M+1, K, n) array of its own: trial k's forcing is
    drawn into its column k, and the stepper writes the states over it.
    Before that, each trial's smallest and largest forcing sample are
    taken, and its check reads the states column and that (2,) pair, all
    the checks need of f.
    """
    lows = [-1.0] * 2 * _MODES + [0.0, 0.0] + [0.5] * (kind == "weak-nonneg")
    highs = [1.0] * 2 * _MODES + [4.0, 2 * np.pi] + [1.5] * (kind == "weak-nonneg")
    draws = np.array([np.random.default_rng(seed).uniform(lows, highs) for seed in seeds])
    s = (grid.nodes() - grid.a) / (grid.b - grid.a)
    modes = np.sin(np.arange(1, _MODES + 1)[:, None] * np.pi * s)
    u0, bump = (sum(draws[:, j + k, None] * modes[k] for k in range(_MODES)) for j in (0, _MODES))
    if kind != "boundary-min":
        np.maximum(u0, 0.0, out=u0)
    omega, phase = draws[:, 2 * _MODES], draws[:, 2 * _MODES + 1]
    batch = np.empty((mesh.M + 1, len(seeds), grid.n))
    np.einsum("tk,kx->tkx", np.cos(mesh.times()[:, None] * omega + phase), bump, out=batch)
    np.maximum(batch, 0.0, out=batch)
    if kind == "weak-nonneg":
        batch += draws[:, -1, None]
    extremes = np.stack([batch.min(axis=0).min(axis=1), batch.max(axis=0).max(axis=1)], axis=1)
    states = step(u0, batch)
    check = check_parabolic_boundary if kind == "boundary-min" else check_nonnegativity
    return [check(states[:, k], extremes[k]) for k in range(len(seeds))]


def run_trials(config: TrialConfig) -> PrincipleReport:
    """Run seeded randomized trials over the lattice; aggregate the worst case.

    Trials sweep the lattice round-robin, and each trial draws its u0 and
    forcing samples as arrays from its own seed, once.  Each lattice point
    builds one L1 stepper, so A is assembled and b_0 I + A inverted once
    per point.  A point's trials are split into balanced batches whose
    forcing samples stay under _BATCH_BYTES, each batch one call of the
    stepper with one right-hand side per trial.  The stepper writes the
    states over the samples, in an array each batch allocates for itself;
    each check reads its trial's forcing extremes, taken before the
    overwrite.  The worst report is picked in trial order.
    Deterministic: the same config yields the identical report.
    """
    master = np.random.default_rng(config.seed)
    seeds = [int(s) for s in master.integers(0, 2**31 - 1, config.trials)]
    lattice = [(float(al), float(be)) for al in config.alphas for be in config.betas]
    grid, mesh = config.grid, config.mesh
    width = max(1, _BATCH_BYTES // (8 * (mesh.M + 1) * grid.n))

    reports = {}  # trial index -> report
    for p, (alpha, beta) in enumerate(lattice):
        group = np.arange(p, config.trials, len(lattice))
        if len(group) == 0:
            continue
        step = l1_stepper(alpha, beta, grid, mesh)
        for batch in np.array_split(group, -(-len(group) // width)):
            found = _run_batch(config.kind, grid, mesh, step, [seeds[i] for i in batch])
            reports.update(zip(batch.tolist(), found))

    worst: PrincipleReport | None = None
    for idx in range(config.trials):
        report = reports[idx]
        if worst is None or report.violation > worst.violation or (
            report.status != "pass" and worst.status == "pass"
        ):
            worst = report

    assert worst is not None
    worst.trials = config.trials
    worst.seeds = seeds
    worst.lattice = lattice
    worst.kind = config.kind
    return worst
