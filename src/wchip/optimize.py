"""Coupler-parameter optimization and robustness sweeps.

The objective is the T1 herald probability conditioned on double-pair
emission, measured by simulating the canonical circuit's elements — never
taken from the closed-form prefactor, so the closed form stays a test target
instead of an input assumption.  Phases are excluded from the search: they
provably change the heralded component only by a global phase.

``maximize`` does a coarse grid scan to locate the basin (the objective
vanishes on every face of the unit cube, so the scan covers the interior)
followed by bounded Nelder-Mead refinement (:func:`minimize`, a port of
scipy's, so the package needs only numpy at runtime).  The scan, each
Nelder-Mead step and every cell of ``sweep`` run on an engine on the source
rows: every element is linear and keeps colors apart, and the input
|2_B, 2_R> sits on one channel, so each amplitude a metric counts needs only
row ``SOURCE_CHANNEL`` of each color's transfer matrix (a permanent with
repeated rows; Scheel, quant-ph/0406127).  The engine keeps those rows as
per-channel lists, ``rows[color][channel]``, and pushes them through the
element blocks as explicit sums over the block entries.  Each entry
broadcasts: an array over a slab of r1 planes in the scan and the sweep, a
Python float at a Nelder-Mead point, with the same operations in the same
order in both, so a point gives the bits of its grid cell.  Each call is
checked once against the full sparse Fock engine: ``maximize`` reports
:func:`herald_objective` at the chosen point, and ``sweep`` compares its
first cell's amplitudes with the propagated state's.
"""

from __future__ import annotations

import functools
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
from .elements import adddrop_block, transmission, two_pair_state
from .errors import GridTooLarge, ParamOutOfRange, ValidationError
from .fock import Color, apply_mode_transform, basis_from_pattern
from .herald import Branch, herald

#: Default coarse-grid step of :func:`maximize`.  The objective factorizes
#: into three single-variable terms each with one interior maximum, so a
#: 0.04 scan already brackets the basin.  At 0.04 over the default bounds
#: the scan is three engine calls of about 2 ms together, and the whole
#: ``maximize`` takes about 5 ms, most of it the ~140 Nelder-Mead steps.
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


def _source_rows(r1, r2, r3, columns) -> list[list]:
    """Row ``SOURCE_CHANNEL`` of each color's transfer matrix of the
    canonical circuit, as ``rows[color][channel]``, with ``columns[color]``
    the columns of that color's router block (:func:`_router_columns`).

    Every phase of the canonical circuit is 0, so a coupler's block
    ``coupler_block(r, t, 0)`` is the real ``((t, r), (-r, t))``: it sends
    the entries ``(u_a, u_b)`` of its channels to ``(t u_a - r u_b, r u_a +
    t u_b)``; complex rows would only add imaginary parts of exactly +-0.
    Each entry broadcasts over ``(r1, r2, r3)`` and the columns.  The
    couplers act alike on both colors, so one row goes through them.
    """
    r = (r1, r2, r3)
    row = [0.0] * len(CANONICAL_CHANNELS)
    row[SOURCE_CHANNEL] = 1.0
    for (a, b), k in CANONICAL_COUPLERS:
        rk = 1.0 if k is None else r[k]
        tk = transmission(rk)
        ua, ub = row[a], row[b]
        row[a], row[b] = ua * tk - ub * rk, ua * rk + ub * tk
    old = [row[ch] for ch in _ROUTER_PORTS]
    rows = []
    for color_columns in columns:
        color_row = list(row)
        for ch, column in zip(_ROUTER_PORTS, color_columns):
            color_row[ch] = _total(map(operator.mul, old, column))
        rows.append(color_row)
    return rows


def _router_columns(extinction) -> tuple:
    """Each color's router-block columns at `extinction`, a float or an array."""
    return tuple(tuple(zip(*adddrop_block(extinction, c is CANONICAL_ROUTER[3]))) for c in Color)


_IDEAL_ROUTER = _router_columns(0.0)  # the router the search assumes
_ROUTER_PORTS = CANONICAL_ROUTER[:3]  # its (input, through, drop) channels


def _total(terms):
    """Left-to-right sum of `terms`.  Unlike the built-in ``sum``, which
    compensates the rounding of float terms from Python 3.12 on, it rounds
    Python floats, numpy scalars and arrays alike."""
    return functools.reduce(operator.add, terms)


def herald_objective_batch(r1, r2, r3):
    """:func:`herald_objective` on broadcast arrays of reflectivities."""
    # [()] unwraps a 0-d array into a numpy scalar; arrays pass through.
    r = tuple(np.asarray(v, dtype=float)[()] for v in (r1, r2, r3))
    _check_unit_interval(*r)
    return _herald_probability(_source_rows(*r, _IDEAL_ROUTER))


def _t1_amplitudes(rows, color: Color) -> list:
    """Amplitude of each term with one photon of `color` at T1 and one on
    each signal channel, per split ``(s, j, k)``: a color's pair is (1/sqrt
    2)(sum_j u_j a_j^dag)^2 |0>, with amplitude sqrt(2) u_j u_k on modes
    j != k, so the term with the other photon of `color` on s and the other
    color's pair on j, k has 2 u_T1 u_s v_j v_k."""
    u, v = rows[color], rows[1 - color]
    return [2.0 * u[T1_CHANNEL] * u[s] * v[j] * v[k] for s, j, k in _SIGNAL_SPLITS]


def _herald_probability(rows):
    """P(T1 herald | double pair): the weight of the terms with a Red
    photon at T1 and one photon on each signal channel, over the
    four-photon norm |u_R|^4 |u_B|^4."""
    red, blue = rows
    weight = 0.0
    for s, j, k in _SIGNAL_SPLITS:  # _t1_amplitudes(rows, RED), inlined: hot in the search
        amp = 2.0 * red[T1_CHANNEL] * red[s] * blue[j] * blue[k]
        weight = weight + amp * amp
    norm_red = _total(map(operator.mul, red, red))
    norm_blue = _total(map(operator.mul, blue, blue))
    return weight / (norm_red * norm_red * norm_blue * norm_blue)


def _colorblind_fidelity(rows):
    """W fidelity of the T1-conditioned state when the T1 detector counts
    photons but not colors, the robustness metric of extinction sweeps: a
    Blue photon leaked to T1 leaves signal photons that do not overlap W,
    so it is |sum of the Red T1 amplitudes|^2 / 3 over the weight of all
    six T1 terms, and 0.0 where that weight is 0."""
    red_t1 = _t1_amplitudes(rows, Color.RED)
    overlap = _total(red_t1)
    total = _total(amp * amp for amp in red_t1 + _t1_amplitudes(rows, Color.BLUE))
    return np.divide(overlap * overlap / 3.0, total, out=np.zeros_like(total), where=total > 0.0)


#: Each signal channel with the two signal channels left beside it.
_SIGNAL_SPLITS = tuple(
    (s, *(ch for ch in SIGNAL_CHANNELS if ch != s)) for s in SIGNAL_CHANNELS
)


def _trial(xbar: list, worst: list, a: float, b: float) -> list:
    """The trial point ``a xbar - b worst`` of a Nelder-Mead step, clipped
    to the unit cube as ``np.clip`` does it."""
    point = (a * c - b * w for c, w in zip(xbar, worst))
    return [1.0 if x > 1.0 else (x if x > 0.0 else 0.0) for x in point]


def minimize(fun, simplex, *, xatol: float, fatol: float, maxiter: int) -> tuple[float, ...]:
    """The vertex minimizing `fun` found by Nelder-Mead on the unit cube: a
    port of scipy's bounded ``_minimize_neldermead`` (non-adaptive:
    reflection 1, expansion 2, contraction 1/2, shrink 1/2) on lists of
    floats.

    It takes the same steps in the same order with the same arithmetic as
    ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead", bounds=[(0,
    1)] * n, options={"initial_simplex": simplex, "xatol": xatol, "fatol":
    fatol, "maxiter": maxiter})``, so it visits the same points bit for bit
    and evaluates `fun` (on a list of floats) as often.  Every trial point is
    clipped to the cube.  The search stops once the vertices lie within
    `xatol` of the best one in every coordinate and their values within
    `fatol` of its value, or after `maxiter` iterations.
    """
    # scipy first reflects the vertices past an upper bound back inside and
    # clips them.  That never fires on the simplex of maximize, whose
    # vertices step down whenever stepping up would pass 1, by less than
    # 1/2, so it is left out: the simplex must lie in the cube.
    sim = [[float(c) for c in vertex] for vertex in simplex]
    fsim = [fun(vertex) for vertex in sim]
    n = len(sim) - 1

    def by_value() -> None:
        # stable; scipy's argsort gives the same order on distinct values
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    by_value()
    iterations = 1
    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if (
            max(abs(c - b) for vertex in sim[1:] for c, b in zip(vertex, best)) <= xatol
            and max(abs(fbest - f) for f in fsim[1:]) <= fatol
        ):
            break
        xbar = [_total(column) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        xr = _trial(xbar, worst, 2.0, 1.0)
        fxr = fun(xr)
        if fxr < fbest:
            xe = _trial(xbar, worst, 3.0, 2.0)
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = _trial(xbar, worst, 1.5, 0.5)
                fxc = fun(xc)
                accepted = fxc <= fxr
            else:  # inside contraction
                xc = _trial(xbar, worst, 0.5, -0.5)
                fxc = fun(xc)
                accepted = fxc < fsim[-1]
            if accepted:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex; scipy's clip of the
                # result never fires, as it lies between two vertices in the cube
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (c - b) for c, b in zip(sim[j], best)]
                    fsim[j] = fun(sim[j])
        iterations += 1
        by_value()
    return tuple(sim[0])


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
    Nelder-Mead refinement (:func:`minimize`) on the unit cube.
    Both use the row engine of :func:`herald_objective_batch`; the returned
    value is :func:`herald_objective` at the returned point.  Deterministic:
    ties resolve to the first grid cell in lexicographic order.

    `tol` is the ``xatol`` of :func:`minimize`, the simplex width at which
    the search may stop.  It stops only once ``fatol`` (fixed at 1e-14)
    holds as well.  The objective is quadratic at its peak, so its values
    across the simplex agree to 1e-14 only once the simplex is about 1e-7
    wide; ``fatol`` therefore decides when the search ends for any `tol`
    above that, and `tol` of 1e-2, 1e-4 and 1e-6 return the same point.
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

    # Simplex points are lists of floats inside the cube, so the objective
    # runs on Python floats and skips the checks of the batch entry point.
    candidate = minimize(
        lambda x: -_herald_probability(_source_rows(*x, _IDEAL_ROUTER)),
        _initial_simplex(best, grid_step),
        xatol=float(tol),
        fatol=1e-14,
        maxiter=2000,
    )
    value = herald_objective(*candidate)
    if value < best_val:  # refinement must never lose to the scan
        candidate = best
        value = herald_objective(*best)
    return OptimizationResult(candidate[0], candidate[1], candidate[2], value)


def _initial_simplex(center: Sequence[float], scale: float) -> list[list[float]]:
    """The scan's best cell and one vertex `scale` away along each axis:
    upwards unless that passes 1, else downwards.  With `scale` below 1/2
    every vertex stays in the unit cube, as :func:`minimize` requires."""
    simplex = [list(center)]
    for k in range(len(center)):
        vertex = list(center)
        vertex[k] += scale if center[k] + scale <= 1.0 else -scale
        simplex.append(vertex)
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
    """Evaluate the metric over the grid, rows in lexicographic cell order.

    The grid runs on the source-row engine, as broadcast arrays in slabs of
    r1 planes (at most ``_SCAN_SLAB_CELLS`` cells, at least one plane).  No
    amplitude is pruned, so a cell whose amplitudes are tiny but nonzero
    reads its true metric.  The first cell is checked against the sparse
    Fock engine (:func:`_check_on_fock`).
    """
    check_cell_count(spec.n_cells, spec.cell_cap)
    metric = _herald_probability if spec.metric == "herald_probability" else _colorblind_fidelity
    r2 = np.array(spec.r2)[:, np.newaxis, np.newaxis]
    r3 = np.array(spec.r3)[:, np.newaxis]
    columns = _router_columns(np.array(spec.ad2_extinction))
    plane = (len(spec.r2), len(spec.r3), len(spec.ad2_extinction))
    planes = max(1, _SCAN_SLAB_CELLS // math.prod(plane))
    values = []
    for start in range(0, len(spec.r1), planes):
        r1 = np.array(spec.r1[start : start + planes])[:, np.newaxis, np.newaxis, np.newaxis]
        rows = _source_rows(r1, r2, r3, columns)
        if start == 0:
            _check_on_fock(spec, rows)
        values += np.broadcast_to(metric(rows), (len(r1), *plane)).ravel().tolist()
    cells = itertools.product(spec.r1, spec.r2, spec.r3, spec.ad2_extinction)
    return SweepTable(
        columns=("r1", "r2", "r3", "ad2_extinction", spec.metric),
        rows=tuple((*cell, value) for cell, value in zip(cells, values)),
    )


def _check_on_fock(spec: SweepSpec, rows) -> None:
    """Check the six T1 amplitudes of the first cell of `spec`, which leads
    each entry of `rows`, against the state the sparse Fock engine
    propagates (0 where it pruned one), within 1e-12.  Amplitudes, not the
    metric, are compared: pruning moves a ratio of tiny amplitudes.  A
    mismatch is a bug, not an input error, so it raises a RuntimeError."""
    cell = (spec.r1[0], spec.r2[0], spec.r3[0], spec.ad2_extinction[0])
    circuit = canonical_w_circuit(*cell[:3], ad2_extinction=cell[3])
    state = apply_mode_transform(two_pair_state(SOURCE_CHANNEL), build_transform(circuit))
    for color in Color:
        other = Color(1 - color)
        for (s, j, k), amp in zip(_SIGNAL_SPLITS, _t1_amplitudes(rows, color)):
            basis = basis_from_pattern(2 * color.letter + 2 * other.letter, (T1_CHANNEL, s, j, k))
            fock, engine = state.amplitude(basis), np.ravel(amp)[0]
            if not abs(fock - engine) <= 1e-12:
                raise RuntimeError(
                    f"row engine disagrees with the Fock engine at cell {cell} on "
                    f"{basis!r}: {engine!r} against {fock!r}"
                )
