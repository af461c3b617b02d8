"""Coupler-parameter optimization and robustness sweeps.

The objective is the T1 herald probability conditioned on double-pair
emission, measured by simulating the canonical circuit's elements — never
taken from the closed-form prefactor, so the closed form stays a test target
instead of an input assumption.  Phases are excluded from the search: they
provably change the heralded component only by a global phase.

``maximize`` does a coarse grid scan to locate the basin (the objective
vanishes on every face of the unit cube, so the scan covers the interior)
followed by bounded Nelder-Mead refinement.  Both evaluate the objective
with :func:`herald_objective_batch`, an engine on the source rows: every
element is linear and keeps colors apart, and the input |2_B, 2_R> sits on
one channel, so each heralded amplitude needs only row ``SOURCE_CHANNEL`` of
each color's transfer matrix (a permanent with repeated rows; Scheel,
quant-ph/0406127).  The engine keeps those rows as per-channel lists,
``rows[color][channel]``, and pushes them through the element blocks of
:mod:`wchip.elements` as explicit sums over the block entries.  Each entry
broadcasts: an array over a slab of r1 planes in the scan, a numpy scalar at
a Nelder-Mead point, with the same operations in the same order in both, so
a point gives the bits of its grid cell.  The reported value comes from one
sparse :func:`herald_objective` call at the chosen point, so the result is
also checked against the full Fock engine.

scipy is imported on the first :func:`maximize` call, not with this module:
it is the only user of scipy, and loading ``scipy.optimize`` triples the
import time of every other command.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import (
    CANONICAL_CHANNELS,
    CANONICAL_COUPLERS,
    CANONICAL_ROUTER,
    SIGNAL_CHANNELS,
    SOURCE_CHANNEL,
    T1_CHANNEL,
    build_transform,
    canonical_w_circuit,
)
from .elements import adddrop_block, coupler_block, transmission, two_pair_state
from .errors import GridTooLarge, ParamOutOfRange, ValidationError
from .fock import Color, apply_mode_transform
from .herald import HERALD_TERMS, Branch, herald

#: Channels of a term counted by :func:`_w_fidelity_colorblind`, in basis
#: (channel-major) order, and the position of the T1 photon among them: the
#: T1 key of the herald term table, whatever the T1 photon's color.
_COLORBLIND_CHANNELS, _T1_POSITION = next(
    (channels, k) for channels, (branch, k, _) in HERALD_TERMS.items() if branch is Branch.T1
)

#: Default coarse-grid step of :func:`maximize`.  The objective factorizes
#: into three single-variable terms each with one interior maximum, so a
#: 0.04 scan already brackets the basin.  At 0.04 over the default bounds
#: the scan is three engine calls of a few milliseconds together, and the
#: whole ``maximize`` takes about 20 ms, most of it Nelder-Mead.
GRID_STEP = 0.04

#: Default coarse-grid bounds; the objective is identically zero whenever
#: any r_i reaches 0 or 1, so the scan needs only the interior.
GRID_BOUNDS = (0.1, 0.9)

#: Tolerance, in steps, with which a grid point counts as lying on the upper
#: bound.
_GRID_TOL = 1e-9

#: Most cells one grid may hold: the default cap of a :class:`SweepSpec`
#: and the bound on the scan of :func:`maximize`.  The scan, and a sweep
#: read by the CLI, are sized from their axis lengths before any axis is
#: built.
CELL_CAP = 10**6

#: Cells per engine call of the grid scan: seven r1 planes of the default
#: 21-point axis, so the default scan takes three calls.  Finer grids take
#: fewer planes per call (at least one), which bounds the temporaries.
_SCAN_SLAB_CELLS = 7 * 21 * 21


def _check_unit_interval(r1, r2, r3) -> None:
    inside = [(val >= 0.0) & (val <= 1.0) for val in (r1, r2, r3)]
    if np.asarray(inside[0] & inside[1] & inside[2]).all():  # one reduction
        return
    for name, val, ok in zip(("r1", "r2", "r3"), (r1, r2, r3), inside):
        if not np.all(ok):
            raise ParamOutOfRange(f"{name} must lie in [0, 1], got {val}")


def herald_objective(r1: float, r2: float, r3: float) -> float:
    """P(T1 herald | double pair) of the canonical circuit, from simulation."""
    _check_unit_interval(float(r1), float(r2), float(r3))
    spec = canonical_w_circuit(float(r1), float(r2), float(r3))
    state = apply_mode_transform(two_pair_state(0), build_transform(spec))
    return herald(state, Branch.T1).probability


def _source_rows(r1, r2, r3) -> list[list]:
    """Row ``SOURCE_CHANNEL`` of each color's transfer matrix of the
    canonical circuit, as ``rows[color][channel]``.

    Each entry broadcasts over ``(r1, r2, r3)``: an array on a grid, a numpy
    scalar at a single point.  The couplers act identically on both colors,
    so one row goes through them before it is split for the router.
    """
    r = (r1, r2, r3)
    row = [0j] * len(CANONICAL_CHANNELS)
    row[SOURCE_CHANNEL] = 1.0 + 0j
    for chans, k in CANONICAL_COUPLERS:
        rk = 1.0 if k is None else r[k]
        _apply_block(row, chans, coupler_block(rk, transmission(rk)))
    input_channel, through, drop, resonant = CANONICAL_ROUTER
    rows = []
    for color in Color:
        color_row = list(row)
        block = adddrop_block(0.0, color is resonant)
        _apply_block(color_row, (input_channel, through, drop), block)
        rows.append(color_row)
    return rows


def _apply_block(row: list, channels, block) -> None:
    """``row[channels] = row[channels] @ block`` in place, as explicit sums
    over the block's entries: no array views, so the same code is fast on a
    grid slab and on one simplex point."""
    old = [row[ch] for ch in channels]
    for ch, column in zip(channels, zip(*block)):
        row[ch] = sum(map(operator.mul, old, column))


def _norm_sq(z):
    return z.real * z.real + z.imag * z.imag


def herald_objective_batch(r1, r2, r3):
    """:func:`herald_objective` on broadcast arrays of reflectivities.

    After the circuit, each color's photon pair is (1/sqrt 2)(sum_j u_j
    a_j^dag)^2 |0>, so a pair on distinct modes j, k has amplitude
    sqrt(2) u_j u_k.  A T1 herald puts one Red photon at ``T1_CHANNEL`` and
    one photon on each signal channel: the other Red photon on one signal
    channel, the two Blue photons on the remaining two.  Its probability is
    the sum of those pattern weights over the four-photon norm
    |u_R|^4 |u_B|^4.
    """
    # [()] unwraps a 0-d array into a numpy scalar, whose arithmetic is
    # several times cheaper; arrays pass through unchanged.
    r = tuple(np.asarray(v, dtype=float)[()] for v in (r1, r2, r3))
    _check_unit_interval(*r)
    red, blue = _source_rows(*r)
    weight = 0.0
    for s in SIGNAL_CHANNELS:
        j, k = (ch for ch in SIGNAL_CHANNELS if ch != s)
        weight = weight + _norm_sq(2.0 * red[T1_CHANNEL] * red[s] * blue[j] * blue[k])
    norm_red = sum(_norm_sq(u) for u in red)
    norm_blue = sum(_norm_sq(u) for u in blue)
    return weight / (norm_red * norm_red * norm_blue * norm_blue)


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


class OptimizationResult(NamedTuple):
    r1: float
    r2: float
    r3: float
    value: float


def maximize(
    tol: float = 1e-4,
    *,
    grid_step: float = GRID_STEP,
    grid_bounds: tuple[float, float] = GRID_BOUNDS,
) -> OptimizationResult:
    """Locate the reflectivities maximizing the herald probability.

    A coarse scan with the given step over ``grid_bounds`` (per axis, from
    ``lo`` to the last point not past ``hi``) feeds the best cell into
    Nelder-Mead refinement, clamped to the unit cube.
    Both use :func:`herald_objective_batch`; the returned value is
    :func:`herald_objective` at the returned point.  Deterministic: ties
    resolve to the first grid cell in lexicographic order.

    `tol` is scipy's ``xatol``, the simplex width at which the search may
    stop.  scipy stops only once ``fatol`` (fixed at 1e-14) holds as well.
    The objective is quadratic at its peak, so its values across the simplex
    agree to 1e-14 only once the simplex is about 1e-7 wide; ``fatol``
    therefore decides when the search ends for any `tol` above that, and
    `tol` of 1e-2, 1e-4 and 1e-6 return the same point.
    """
    if not tol > 0.0:
        raise ParamOutOfRange(f"tol must be positive, got {tol}")
    if not 0.0 < grid_step < 0.5:
        raise ParamOutOfRange(f"grid_step must lie in (0, 0.5), got {grid_step}")
    lo, hi = (float(grid_bounds[0]), float(grid_bounds[1]))
    if not 0.0 <= lo < hi <= 1.0:
        raise ParamOutOfRange(f"grid bounds must satisfy 0 <= lo < hi <= 1, got {grid_bounds}")
    # The axis stops at the last point not past hi; the tolerance keeps a
    # point that rounding puts a hair beyond it, and min() pins that to hi.
    # Clamping the step count keeps floor() finite for a subnormal step.
    steps = math.floor(min((hi - lo) / grid_step + _GRID_TOL, CELL_CAP))
    if (steps + 1) ** 3 > CELL_CAP:
        raise ParamOutOfRange(
            f"grid_step {grid_step} over [{lo}, {hi}] scans more than {CELL_CAP} cells"
        )
    axis = [min(lo + k * grid_step, hi) for k in range(steps + 1)]
    grid = np.array(axis)
    plane_r2, plane_r3 = grid[:, np.newaxis], grid[np.newaxis, :]
    planes = max(1, _SCAN_SLAB_CELLS // (len(axis) * len(axis)))
    best_val = -1.0
    best = (axis[0], axis[0], axis[0])
    for start in range(0, len(axis), planes):
        slab = herald_objective_batch(
            grid[start : start + planes, np.newaxis, np.newaxis], plane_r2, plane_r3
        )
        i1, i2, i3 = np.unravel_index(np.argmax(slab), slab.shape)
        if slab[i1, i2, i3] > best_val:  # strict: earlier slabs win ties
            best_val = float(slab[i1, i2, i3])
            best = (axis[start + i1], axis[i2], axis[i3])

    def negated(x: np.ndarray) -> float:
        xc = np.clip(x, 0.0, 1.0)
        return -float(herald_objective_batch(xc[0], xc[1], xc[2]))

    refined = minimize(
        negated,
        x0=np.array(best),
        method="Nelder-Mead",
        bounds=[(0.0, 1.0)] * 3,
        options={
            "xatol": float(tol),
            "fatol": 1e-14,
            "maxiter": 2000,
            "initial_simplex": _initial_simplex(best, grid_step),
        },
    )
    candidate = tuple(float(v) for v in np.clip(refined.x, 0.0, 1.0))
    value = herald_objective(*candidate)
    if value < best_val:  # refinement must never lose to the scan
        candidate = best
        value = herald_objective(*best)
    return OptimizationResult(candidate[0], candidate[1], candidate[2], value)


def _initial_simplex(center: Sequence[float], scale: float) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    simplex = np.tile(c, (4, 1))
    for k in range(3):
        step = scale if c[k] + scale <= 1.0 else -scale
        simplex[k + 1, k] += step
    return simplex


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian parameter grid and the metric to evaluate on each cell."""

    r1: tuple[float, ...]
    r2: tuple[float, ...]
    r3: tuple[float, ...]
    ad2_extinction: tuple[float, ...] = (0.0,)
    metric: str = "herald_probability"
    cell_cap: int = CELL_CAP

    def __post_init__(self):
        for name in ("r1", "r2", "r3", "ad2_extinction"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValidationError(f"sweep axis {name} is empty")
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise ParamOutOfRange(f"sweep axis {name} leaves [0, 1]: {vals}")
            object.__setattr__(self, name, vals)
        if self.metric not in ("herald_probability", "w_fidelity"):
            raise ValidationError(f"unknown sweep metric {self.metric!r}")
        if int(self.cell_cap) < 1:
            raise ValidationError("cell cap must be positive")
        object.__setattr__(self, "cell_cap", int(self.cell_cap))

    @property
    def n_cells(self) -> int:
        return len(self.r1) * len(self.r2) * len(self.r3) * len(self.ad2_extinction)


@dataclass(frozen=True)
class SweepTable:
    """Sweep output: a header and one row per grid cell."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def check_cell_count(n_cells: int, cell_cap: int) -> None:
    """Raise :class:`GridTooLarge` when a grid holds more cells than its cap."""
    if n_cells > cell_cap:
        raise GridTooLarge(f"grid has {n_cells} cells, exceeding the cap of {cell_cap}")


def sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the metric over the grid, rows in lexicographic cell order."""
    check_cell_count(spec.n_cells, spec.cell_cap)
    rows = []
    for r1, r2, r3, eps in itertools.product(
        spec.r1, spec.r2, spec.r3, spec.ad2_extinction
    ):
        circuit = canonical_w_circuit(r1, r2, r3, ad2_extinction=eps)
        state = apply_mode_transform(two_pair_state(0), build_transform(circuit))
        if spec.metric == "herald_probability":
            value = herald(state, Branch.T1).probability
        else:
            value = _w_fidelity_colorblind(state)
        rows.append((r1, r2, r3, eps, float(value)))
    return SweepTable(
        columns=("r1", "r2", "r3", "ad2_extinction", spec.metric),
        rows=tuple(rows),
    )


def _w_fidelity_colorblind(state) -> float:
    """W fidelity of the T1-conditioned state when the herald detector is
    color-blind (counts photons but not colors).

    With an imperfect router a blue photon can leak to T1; its signal
    partners carry the wrong color pattern and dilute the W overlap, so this
    is the robustness metric for extinction sweeps.  Computed as
    sum_env |<W|psi_env>|^2 / sum_env |psi_env|^2 over the T1-photon color
    environments.

    A term counts when it holds one photon in each signal channel and one at
    T1 and nothing else: four single photons whose channels, in the basis
    order, are :data:`_COLORBLIND_CHANNELS`.  It overlaps W when exactly two
    of its signal photons are Blue.  Each term is classified in one pass over
    its pairs, in term order, so the sums run in a fixed order.
    """
    w_amp = 1.0 / math.sqrt(3.0)
    overlap_by_env: dict[Color, complex] = {}
    norm_sq = 0.0
    for basis, amp in state.items():
        if len(basis) != 4:
            continue
        ((ch0, c0), n0), ((ch1, c1), n1), ((ch2, c2), n2), ((ch3, c3), n3) = basis
        if (
            n0 != 1 or n1 != 1 or n2 != 1 or n3 != 1
            or (ch0, ch1, ch2, ch3) != _COLORBLIND_CHANNELS
        ):
            continue
        norm_sq += amp.real * amp.real + amp.imag * amp.imag
        env = (c0, c1, c2, c3)[_T1_POSITION]
        if c0 + c1 + c2 + c3 - env == 2:  # Blue is 1: two Blue signal photons
            overlap_by_env[env] = overlap_by_env.get(env, 0.0) + w_amp * amp
    if norm_sq <= 0.0:
        return 0.0
    return sum(abs(o) ** 2 for o in overlap_by_env.values()) / norm_sq
