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
Nelder-Mead step and every cell of ``sweep`` run on one straight-line engine
on the source rows: every element is linear and keeps colors apart, and the
input |2_B, 2_R> sits on one channel, so each amplitude a metric counts
needs only row ``SOURCE_CHANNEL`` of each color's transfer matrix (a
permanent with repeated rows; Scheel, quant-ph/0406127), which has six
nonzero entries on the canonical circuit (:func:`_source_amplitudes`).  Each
entry broadcasts: an array over a slab of r1 planes in the scan and the
sweep, a Python float at a Nelder-Mead point, with the same operations in
the same order in both, so a point gives the bits of its grid cell.  Each
call is checked once against the full sparse Fock engine, relatively, and a
mismatch raises a RuntimeError: ``maximize`` compares the engine's value at
the chosen point with :func:`herald_objective`'s, and ``sweep`` the T1
amplitudes and the metric value of one cell inside the cube, as its slab
computed them, with the propagated state's.  The CLI's ``simulate`` and
``herald`` read the general complex rows of any circuit
(``circuit.transfer_rows``, ``herald.herald_rows``).  Both engines read the
heralding terms from one table, ``herald.heralding_terms``, and build each
amplitude with ``herald.heralding_amplitude``.  This real-float case of the
canonical circuit stays separate because it is cheap: an objective call at
a new point takes about 0.9-1.1 us against about 165-185 us through the
general rows (``canonical_w_circuit``, ``transfer_rows``, ``herald_rows``),
which build the full transfer matrix (timeit, best of 7 runs over 1,000 new
points, three processes, 2-core Xeon, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import (
    SIGNAL_CHANNELS,
    SOURCE_CHANNEL,
    T1_CHANNEL,
    build_transform,
    canonical_w_circuit,
    parse_integer,
)
from .elements import adddrop_block, transmission, two_pair_state
from .errors import GridTooLarge, ParamOutOfRange, ValidationError
from .fock import Color, apply_mode_transform
from .herald import Branch, _scaled, herald, heralding_amplitude, heralding_terms

#: Default coarse-grid step of :func:`maximize`.  The objective factorizes
#: into three single-variable terms each with one interior maximum, so a
#: 0.04 scan already brackets the basin.  At 0.04 over the default bounds
#: ``maximize`` takes about 0.86-1.0 ms: the scan's three engine calls
#: about 0.3 ms, the ~140 Nelder-Mead steps about 0.35 ms and the Fock
#: check about 0.19-0.21 ms (timeit, best of 7, three processes, on the
#: host of the module docstring).
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

#: Most cells per engine call of the scan and the sweep (:func:`_slabs`),
#: 32 kB per float64 temporary: on four grid shapes the time per cell fell
#: steeply up to about 3,000 cells a call, and on two it rose past 9,000.
_SCAN_SLAB_CELLS = 4096


def _slabs(planes: int, plane_cells: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of the fewest runs of r1 planes of `plane_cells`
    cells that fit ``_SCAN_SLAB_CELLS`` (one plane at least), split evenly."""
    count = -(-planes // max(1, _SCAN_SLAB_CELLS // plane_cells))
    return [(k * planes // count, (k + 1) * planes // count) for k in range(count)]


#: The input of every Fock check: :func:`apply_mode_transform` never changes it.
_TWO_PAIRS = two_pair_state(SOURCE_CHANNEL)


def herald_objective(r1: float, r2: float, r3: float) -> float:
    """P(T1 herald | double pair) of the canonical circuit, from simulation;
    an r outside [0, 1] raises the coupler's :class:`ParamOutOfRange`,
    "reflectivity must lie in [0, 1], got ..."."""
    spec = canonical_w_circuit(r1, r2, r3)
    state = apply_mode_transform(_TWO_PAIRS, build_transform(spec))
    return herald(state, Branch.T1).probability


def _router(extinction) -> tuple:
    """The resonant (Blue) entries ``(sqrt(eps), sqrt(1 - eps))`` of the
    router's input row at `extinction`, a float or an array."""
    return adddrop_block(extinction, resonant=True)[0][1:]


_IDEAL_ROUTER = _router(0.0)  # the router the search assumes


def _source_amplitudes(r1, r2, r3, router=_IDEAL_ROUTER) -> tuple:
    """The six nonzero entries of row ``SOURCE_CHANNEL`` of each color's
    transfer matrix of the canonical circuit: ``(Red T1, Blue T1, Blue T2,
    ch 2, ch 3, ch 4)``, so entry ``color`` is that color's T1 entry.

    Every phase is 0, so coupler k acts on both colors as the real
    ``((t_k, r_k), (-r_k, t_k))``: h = r1 reaches the herald arm, t1 r2 ch 2,
    and the crossing (t = 0) moves t1 t2 to ch 3, leaving ch 0 empty; the
    last coupler splits it into t3 on ch 3 and r3 on ch 4.  The router passes
    Red's h to T1 and splits Blue's by ``router = (sqrt(eps), sqrt(1 -
    eps))`` (:func:`_router`; ideal by default) into T1 and T2.  The products
    keep the order of the full matrix pass, which only adds exact zeros (x +
    0.0 == x), so the bits are its own up to the sign of a zero, which every
    metric squares away.  Entries broadcast over r1, r2, r3 and `router`.
    """
    leak, drop = router
    t1 = transmission(r1)
    t12 = t1 * transmission(r2)
    return r1, r1 * leak, r1 * drop, t1 * r2, t12 * transmission(r3), t12 * r3


def _herald_probability(rows):
    """P(T1 herald | double pair): the weight of the terms with a Red
    photon at T1 and one photon on each signal channel, over the
    four-photon norm |u_R|^4 |u_B|^4."""
    red_t1, blue_t1, blue_t2, s2, s3, s4 = rows
    # the three Red T1 amplitudes (heralding_amplitude), inlined: hot in the search
    a2 = 2.0 * red_t1 * s2 * s3 * s4
    a3 = 2.0 * red_t1 * s3 * s2 * s4
    a4 = 2.0 * red_t1 * s4 * s2 * s3
    signal = s2 * s2 + s3 * s3 + s4 * s4
    norm_red = signal + red_t1 * red_t1
    norm_blue = signal + blue_t1 * blue_t1 + blue_t2 * blue_t2
    return (a2 * a2 + a3 * a3 + a4 * a4) / (norm_red * norm_red * norm_blue * norm_blue)


def _colorblind_fidelity(rows):
    """W fidelity of the T1-conditioned state when the T1 detector counts
    photons but not colors, the robustness metric of extinction sweeps: a
    Blue photon leaked to T1 leaves signal photons that do not overlap W.
    The colors share the signal entries, so the fidelity, |sum of the Red T1
    amplitudes|^2 / 3 over the weight of all six, is the ratio ``1 / (1 +
    (Blue T1 / Red T1)^2)``, which no underflow reaches; 0.0 where the Red
    T1 entry or a signal entry is 0 (each tested: their product can underflow)."""
    red_t1, blue_t1, _, s2, s3, s4 = rows
    red_lit = red_t1 != 0.0
    ratio = blue_t1 / np.where(red_lit, red_t1, 1.0)  # no 0/0 where Red is dark
    lit = red_lit & (s2 != 0.0) & (s3 != 0.0) & (s4 != 0.0)
    return np.where(lit, 1.0 / (1.0 + ratio * ratio), 0.0)


def _trial(pairs: list, a: float, b: float) -> list:
    """The trial point ``a xbar - b worst`` of a Nelder-Mead step, from the
    ``(xbar, worst)`` coordinate pairs, clipped to the unit cube as
    ``np.clip`` does it."""
    return [1.0 if (x := a * c - b * w) > 1.0 else (x if x > 0.0 else 0.0) for c, w in pairs]


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
    clipped to the cube.  The search stops once the vertices' values lie
    within `fatol` of the best one and their coordinates within `xatol` of
    its coordinates, or after `maxiter` iterations.

    scipy sorts the simplex by value after every step.  Here it stays
    sorted instead: a step other than a shrink replaces only the worst
    vertex and leaves the others in order, so a stable sort would put the
    new vertex after every vertex of lower or equal value, which is where
    ``bisect.bisect_right`` inserts it.  On distinct values every sort,
    scipy's argsort too, gives that order; on ties this port keeps the
    stable one.  A shrink moves every vertex but the best and is followed
    by a full stable sort.  On sorted values the `fatol` test is the
    spread ``fsim[-1] - fsim[0]``.  Sorting needs a total order, so `fun`
    must not return NaN.
    """
    # scipy first reflects the vertices past an upper bound back inside and
    # clips them.  That never fires on the simplex of maximize, whose
    # vertices step down whenever stepping up would pass 1, by less than
    # 1/2, so it is left out: the simplex must lie in the cube.
    sim = [[float(c) for c in vertex] for vertex in simplex]
    fsim = [fun(vertex) for vertex in sim]
    n = len(sim) - 1

    def by_value() -> None:
        order = sorted(range(n + 1), key=fsim.__getitem__)  # stable
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    by_value()
    for _ in range(1, maxiter):
        best = sim[0]
        if fsim[-1] - fsim[0] <= fatol and all(
            abs(c - b) <= xatol for vertex in sim[1:] for c, b in zip(vertex, best)
        ):
            break
        total = best
        for vertex in sim[1:-1]:  # the centroid, summed left to right
            total = map(operator.add, total, vertex)
        pairs = [(s / n, w) for s, w in zip(total, sim[-1])]
        xr = _trial(pairs, 2.0, 1.0)
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = _trial(pairs, 3.0, 2.0)
            fxe = fun(xe)
            x, fx = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            x, fx = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                x = _trial(pairs, 1.5, 0.5)
                fx = fun(x)
                accepted = fx <= fxr
            else:  # inside contraction
                x = _trial(pairs, 0.5, -0.5)
                fx = fun(x)
                accepted = fx < fsim[-1]
            if not accepted:  # shrink towards the best vertex; scipy's clip
                # of the result never fires, as it lies between two vertices
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (c - b) for c, b in zip(sim[j], best)]
                    fsim[j] = fun(sim[j])
                by_value()
                continue
        del sim[-1], fsim[-1]
        at = bisect.bisect_right(fsim, fx)
        sim.insert(at, x)
        fsim.insert(at, fx)
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
    Both call the row engine (:func:`_herald_probability` of
    :func:`_source_amplitudes`) on points inside the cube; the returned
    value is :func:`herald_objective` at the returned point, where the engine
    must agree with it within 1e-12 relative (else a RuntimeError).  Deterministic:
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
    best_val = -1.0
    best = (axis[0], axis[0], axis[0])
    for start, stop in _slabs(len(axis), len(axis) * len(axis)):
        r1 = grid[start:stop, np.newaxis, np.newaxis]
        slab = _herald_probability(_source_amplitudes(r1, plane_r2, plane_r3))
        i1, i2, i3 = np.unravel_index(np.argmax(slab), slab.shape)
        if slab[i1, i2, i3] > best_val:  # strict: earlier slabs win ties
            best_val = float(slab[i1, i2, i3])
            best = (axis[start + i1], axis[i2], axis[i3])

    # Simplex points are lists of floats inside the cube, so the objective
    # runs on Python floats, with no range check, as the scan does.
    candidate = minimize(
        lambda x: -_herald_probability(_source_amplitudes(*x)),
        _initial_simplex(best, grid_step),
        xatol=float(tol),
        fatol=1e-14,
        maxiter=2000,
    )
    value = herald_objective(*candidate)
    engine = _herald_probability(_source_amplitudes(*candidate))
    if not _agrees(engine, value, value):  # a bug, not an input error
        raise RuntimeError(
            f"row engine disagrees with the Fock engine at {candidate}: {engine!r} against {value!r}"
        )
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
            if any(not (v == 0.0 or sys.float_info.min <= v <= 1.0) for v in vals):
                raise ParamOutOfRange(f"sweep axis {name} leaves [0, 1] or is subnormal: {vals}")
            object.__setattr__(self, name, vals)
        if self.metric not in ("herald_probability", "w_fidelity"):
            raise ValidationError(f"unknown sweep metric {self.metric!r}")
        object.__setattr__(self, "cell_cap", parse_integer(self.cell_cap, "cell_cap"))
        if self.cell_cap < 1:
            raise ValidationError("cell cap must be positive")

    @property
    def n_cells(self) -> int:
        return len(self.r1) * len(self.r2) * len(self.r3) * len(self.ad2_extinction)


class _Rows:
    """The rows of a :class:`SweepTable`, built as they are read: ``cell +
    (value,)`` for each grid cell in lexicographic order, the metric value a
    Python float."""

    __slots__ = ("_axes", "_values")

    def __init__(self, axes: tuple[tuple[float, ...], ...], values: np.ndarray):
        self._axes, self._values = axes, values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return map(tuple.__add__, itertools.product(*self._axes), zip(self._values.tolist()))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep output: the header, the four axes ``(r1, r2, r3,
    ad2_extinction)`` and one read-only float64 array holding the metric
    value of every cell in lexicographic cell order (the last axis fastest).
    ``rows`` reads them as ``cell + (value,)`` tuples without storing any."""

    columns: tuple[str, ...]
    axes: tuple[tuple[float, ...], ...]
    values: np.ndarray

    @property
    def rows(self) -> _Rows:
        return _Rows(self.axes, self.values)


def check_cell_count(n_cells: int, cell_cap: int) -> None:
    """Raise :class:`GridTooLarge` when a grid holds more cells than its cap."""
    if n_cells > cell_cap:
        raise GridTooLarge(f"grid has {n_cells} cells, exceeding the cap of {cell_cap}")


def sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the metric over the grid, values in lexicographic cell order.

    The grid runs on the source-row engine, as broadcast arrays in slabs of
    r1 planes (:func:`_slabs`), each written straight into the table's value
    array; no row is built.  One cell's entries and metric value, as its
    slab computed them, are checked against the sparse Fock engine
    (:func:`_check_on_fock`).
    """
    check_cell_count(spec.n_cells, spec.cell_cap)
    checked = _checked_cell(spec)
    metric = _herald_probability if spec.metric == "herald_probability" else _colorblind_fidelity
    r2 = np.array(spec.r2)[:, np.newaxis, np.newaxis]
    r3 = np.array(spec.r3)[:, np.newaxis]
    router = _router(np.array(spec.ad2_extinction))
    plane = (len(spec.r2), len(spec.r3), len(spec.ad2_extinction))
    values = np.empty((len(spec.r1), *plane))
    for start, stop in _slabs(len(spec.r1), math.prod(plane)):
        r1 = np.array(spec.r1[start:stop])[:, np.newaxis, np.newaxis, np.newaxis]
        rows = _source_amplitudes(r1, r2, r3, router)
        values[start:stop] = metric(rows)  # broadcasts over the slab
        if start <= checked[0] < stop:
            at = (checked[0] - start, *checked[1:])  # an entry's length-1 axes read 0
            entries = [e.item(tuple(map(operator.mod, at, e.shape))) for e in rows]
            _check_on_fock(spec, checked, entries, values.item(checked))
    values = values.reshape(-1)
    values.flags.writeable = False
    return SweepTable(
        columns=("r1", "r2", "r3", "ad2_extinction", spec.metric),
        axes=(spec.r1, spec.r2, spec.r3, spec.ad2_extinction),
        values=values,
    )


def _checked_cell(spec: SweepSpec) -> tuple[int, int, int, int]:
    """Index of the cell :func:`_check_on_fock` checks: on each axis the
    inside value nearest 1/2, the first on ties, so that every T1 amplitude,
    the leaked Blue ones too, is nonzero and, where the axis allows, far
    from underflow.  Inside means in (0, 1) for r1, r2 and r3 and above 0 for
    the extinction; an axis with no inside value gives its first."""
    index = []
    for axis, top in ((spec.r1, 1.0), (spec.r2, 1.0), (spec.r3, 1.0), (spec.ad2_extinction, math.inf)):
        best, gap = 0, math.inf
        for i, v in enumerate(axis):
            if 0.0 < v < top and abs(v - 0.5) < gap:  # strict: the first wins ties
                best, gap = i, abs(v - 0.5)
        index.append(best)
    return tuple(index)


#: The T1 terms the check compares, ``(four-photon basis, color, (s, j,
#: l))`` with s, j and l the signal channels' positions in the source-row
#: entries (:func:`_source_amplitudes`), Red's :data:`_RED_TERMS` first.
_T1_TERMS = tuple(
    (b, c, tuple(3 + SIGNAL_CHANNELS.index(ch) for ch in split))
    for c in Color
    for split, b, _ in heralding_terms(T1_CHANNEL, c)
)
_RED_TERMS = len(SIGNAL_CHANNELS)  # one per signal split


def _agrees(engine: float, reference, scale: float) -> bool:
    """Whether `engine` lies within 1e-12 `scale` of `reference`, `scale` taken
    as at least the least normal float: below it floats lose relative precision."""
    return abs(reference - engine) <= 1e-12 * max(scale, sys.float_info.min)


def _check_on_fock(spec: SweepSpec, index: tuple[int, ...], entries, value: float) -> None:
    """Check the cell at `index` of `spec` against the state the sparse Fock
    engine propagates (:func:`_agrees`): the six T1 amplitudes of its source-row
    `entries` within 1e-12 * 2**-m, 2**m bringing the largest Fock one into
    [0.5, 1) (:func:`herald._scaled`), and its metric `value`, as its slab
    computed it, within 1e-12 times itself.  A mismatch is a bug: RuntimeError;
    Fock amplitudes that underflow at nonzero entries are a ParamOutOfRange."""
    axes = (spec.r1, spec.r2, spec.r3, spec.ad2_extinction)
    cell = tuple(axis[i] for axis, i in zip(axes, index))
    circuit = canonical_w_circuit(*cell[:3], ad2_extinction=cell[3])
    amplitude = apply_mode_transform(_TWO_PAIRS, build_transform(circuit)).amplitude
    fock = [(basis, amplitude(basis)) for basis, _, _ in _T1_TERMS]
    scaled, m = _scaled(fock)
    squares = [abs(a) ** 2 for _, a in scaled]
    weight = sum(squares)  # 0 only with no nonzero amplitude
    if spec.metric == "herald_probability":
        metric = math.ldexp(sum(squares[:_RED_TERMS]), -2 * m)
    else:
        metric = abs(sum(a for _, a in scaled[:_RED_TERMS])) ** 2 / 3.0 / weight if weight else 0.0
    # the largest part below 2**-1022, the normal floats, or none at all
    if (not weight or m >= 1022) and entries[0] and all(entries[3:]):
        raise ParamOutOfRange(f"the T1 amplitudes of cell {cell} underflow on the Fock engine")
    unit = math.ldexp(1.0, -m)  # the largest Fock part lies in [unit / 2, unit)
    checks = [  # both colors share the signal entries
        (basis, heralding_amplitude(entries[color], entries[s], entries[j], entries[l]), reference, unit)
        for (basis, color, (s, j, l)), (_, reference) in zip(_T1_TERMS, fock)
    ]
    checks.append((spec.metric, value, metric, metric))
    for what, engine, reference, scale in checks:
        if not _agrees(engine, reference, scale):
            raise RuntimeError(
                f"row engine disagrees with the Fock engine at cell {cell} on {what}: "
                f"{engine!r} against {reference!r}"
            )
