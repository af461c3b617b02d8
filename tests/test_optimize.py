"""Tests for the coupler optimization and the robustness sweeps."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

import wchip.optimize

from wchip.circuit import SOURCE_CHANNEL, build_transform, canonical_w_circuit
from wchip.elements import two_pair_state
from wchip.errors import GridTooLarge, ParamOutOfRange, ValidationError, WchipError
from wchip.fock import Color, FockBasisState, ModeLabel, PureState, apply_mode_transform
from wchip.herald import Branch, herald
from wchip.optimize import (
    GRID_STEP,
    OptimizationResult,
    SweepSpec,
    _herald_probability,
    _source_amplitudes,
    herald_objective,
    maximize,
    sweep,
)

from oracles import (
    OPTIMAL_R,
    eager_sweep_rows,
    exact_herald_probability,
    herald_prefactor,
    min_checked_cell,
    per_cell_sweep,
    scipy_maximize,
    sorted_minimize,
    sweep_csv,
    split_w_fidelity_colorblind,
    t1_amplitudes_underflow,
    w_fidelity_colorblind,
)


def test_objective_equals_herald_probability():
    rng = np.random.default_rng(20)
    for _ in range(5):
        r1, r2, r3 = rng.uniform(0.1, 0.9, size=3)
        state = apply_mode_transform(
            two_pair_state(0), build_transform(canonical_w_circuit(r1, r2, r3))
        )
        assert herald_objective(r1, r2, r3) == pytest.approx(
            herald(state, Branch.T1).probability, abs=1e-15
        )


def test_objective_tracks_prefactor():
    assert herald_objective(0.3, 0.6, 0.8) == pytest.approx(
        12.0 * herald_prefactor(0.3, 0.6, 0.8), rel=1e-9
    )


def test_objective_vanishes_on_cube_faces():
    assert herald_objective(0.0, 0.5, 0.5) == 0.0
    assert herald_objective(0.5, 1.0, 0.5) == 0.0


#: Ulps by which either engine may miss the exact law inside [0.01, 0.99]^3.
#: Measured worst on the row engine: 71 ulp over 200,000 uniform points of
#: the cube and 96 ulp over 100,000 in [0.9, 0.99]^3, where 1 - r*r cancels
#: most; on the Fock engine, 73 ulp over 40,000 uniform points and 76 ulp
#: over 3,000 in that corner.  The bound leaves a third on top for points
#: those draws missed.
LAW_ULP = 128


def _law_ulps(value, exact):
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


class TestScalingLawOracle:
    """Both engines against the paper's law in exact rational arithmetic
    at the same float inputs (oracles.exact_herald_probability)."""

    @settings(max_examples=200)
    @given(st.tuples(*[st.floats(0.01, 0.99)] * 3))
    def test_engines_are_within_the_ulp_bound(self, r):
        exact = exact_herald_probability(*r)
        assert _law_ulps(herald_objective(*r), exact) <= LAW_ULP
        assert _law_ulps(_herald_probability(_source_amplitudes(*r)), exact) <= LAW_ULP

    def test_near_r1_one_both_engines_lose_digits_to_one_minus_r_squared(self):
        # Recorded at r1 = 1 - 1e-8: both engines miss by 1.65e-9 relative.
        # t1**2 = 1 - r1*r1 inherits the rounding of r1*r1, up to 2**-54, over
        # 1 - r1**2 = 2e-8, and P_T1 holds t1**6; a transmission that avoids
        # the cancellation would fail the lower bound, and this record must
        # then move to the interior bound.
        r = (1.0 - 1e-8, *OPTIMAL_R[1:])
        exact = exact_herald_probability(*r)
        one_minus_r1_sq = float(1 - Fraction(r[0]) ** 2)
        bound = 3 * 2.0**-54 / one_minus_r1_sq + LAW_ULP * 2.0**-52
        for value in (herald_objective(*r), _herald_probability(_source_amplitudes(*r))):
            relative = float(abs(Fraction(value) / exact - 1))
            assert 1e-10 < relative <= bound


def test_objective_gates_parameters():
    # one gate, the coupler's, reads each r
    for k in range(3):
        for bad in (-0.1, 1.2, math.nan):
            cell = [0.5, 0.5, 0.5]
            cell[k] = bad
            message = rf"^reflectivity must lie in \[0, 1\], got {bad}$"
            with pytest.raises(ParamOutOfRange, match=message):
                herald_objective(*cell)
            with pytest.raises(ParamOutOfRange, match=message):
                canonical_w_circuit(*cell)


def test_per_axis_optima_match_scalar_minimizer():
    # cross-check the analytic targets with an independent 1-d optimizer on
    # each factor of the separable objective
    factors = (
        lambda r: r * (1 - r * r) ** 1.5,
        lambda r: r * (1 - r * r),
        lambda r: r * math.sqrt(1 - r * r),
    )
    for factor, target in zip(factors, OPTIMAL_R):
        res = minimize_scalar(lambda r: -factor(r), bounds=(0, 1), method="bounded")
        assert res.x == pytest.approx(target, abs=1e-6)


class TestBatchedEngine:
    """The batched source-row engine against the sparse Fock engine."""

    def test_matches_sparse_objective_on_random_cells(self):
        cells = np.random.default_rng(41).uniform(0.0, 1.0, size=(200, 3))
        batched = _herald_probability(_source_amplitudes(cells[:, 0], cells[:, 1], cells[:, 2]))
        assert batched.shape == (200,)
        for (r1, r2, r3), value in zip(cells, batched):
            assert abs(value - herald_objective(r1, r2, r3)) <= 1e-12

    def test_matches_sparse_objective_on_cube_faces(self):
        axis = (0.0, 0.35, 0.8, 1.0)
        faces = [c for c in itertools.product(axis, repeat=3) if {0.0, 1.0} & set(c)]
        batched = _herald_probability(_source_amplitudes(*np.array(faces).T))
        for cell, value in zip(faces, batched):
            assert herald_objective(*cell) == 0.0
            assert value == 0.0

    def test_broadcasts_a_grid_plane(self):
        axis = np.array([0.2, 0.45, 0.7])
        rows = _source_amplitudes(0.5, axis[:, np.newaxis], axis[np.newaxis, :])
        plane = _herald_probability(rows)
        assert plane.shape == (3, 3)
        for (i, r2), (j, r3) in itertools.product(enumerate(axis), repeat=2):
            assert plane[i, j] == pytest.approx(herald_objective(0.5, r2, r3), abs=1e-12)

    def test_scalar_cell_at_the_optimum(self):
        value = _herald_probability(_source_amplitudes(*OPTIMAL_R))
        assert np.ndim(value) == 0
        assert value == pytest.approx(3 / 64, abs=1e-15)


# Reflectivities in the unit cube, the faces (where the objective is 0) drawn
# as often as the interior.
_R = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_CELLS = st.lists(st.tuples(_R, _R, _R), min_size=1, max_size=8)
# Extinction over [0, 1], the ideal and the disabled router drawn as often
# as the interior.
_EPS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# A sweep axis value, r or extinction: any value SweepSpec accepts, which
# is any in [0, 1] but a subnormal, the faces drawn as often as the interior.
_AXIS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False))


class TestBatchedEngineProperties:
    @settings(max_examples=60)
    @given(_CELLS)
    def test_scalar_call_equals_its_array_cell_bit_for_bit(self, cells):
        array = _herald_probability(_source_amplitudes(*np.array(cells).T))
        for cell, value in zip(cells, array):
            scalar = _herald_probability(_source_amplitudes(*(np.float64(r) for r in cell)))
            assert np.ndim(scalar) == 0
            assert np.float64(scalar).tobytes() == value.tobytes()

    @settings(max_examples=60)
    @given(_CELLS)
    def test_matches_the_sparse_objective(self, cells):
        array = _herald_probability(_source_amplitudes(*np.array(cells).T))
        for cell, value in zip(cells, array):
            assert abs(value - herald_objective(*cell)) <= 1e-12


# As _R, with -0.0, which passes the unit-interval check, drawn as often.
_R_SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))


class TestSourceAmplitudes:
    """The straight-line source-row engine: its entries against the full
    transfer matrix, and its float calls against its array cells."""

    @settings(max_examples=60)
    @given(st.lists(st.tuples(_R_SIGNED, _R_SIGNED, _R_SIGNED), min_size=1, max_size=8))
    def test_a_float_point_equals_its_array_cell_bit_for_bit(self, cells):
        array = _herald_probability(_source_amplitudes(*np.array(cells).T))
        for cell, value in zip(cells, array):
            # the Nelder-Mead objective: Python floats, no checks
            point = wchip.optimize._herald_probability(
                wchip.optimize._source_amplitudes(*cell)
            )
            assert type(point) is float
            assert np.float64(point).tobytes() == value.tobytes()

    @settings(max_examples=60)
    @given(_R, _R, _R, _EPS)
    def test_entries_are_the_transfer_matrix_rows(self, r1, r2, r3, eps):
        o = wchip.optimize
        amplitudes = o._source_amplitudes(r1, r2, r3, o._router(eps))
        signal = dict(zip((2, 3, 4), amplitudes[3:]))
        expected = {
            Color.RED: {**signal, 5: amplitudes[0]},
            Color.BLUE: {**signal, 5: amplitudes[1], 6: amplitudes[2]},
        }
        transform = build_transform(canonical_w_circuit(r1, r2, r3, ad2_extinction=eps))
        for color in Color:
            row = transform.matrix[transform.modes.index(ModeLabel(0, color))]
            for mode, entry in zip(transform.modes, row):
                want = expected[color].get(mode.channel, 0.0) if mode.color is color else 0.0
                assert abs(entry - want) <= 1e-12, (color, mode, entry, want)


def _sparse_maximize(tol, step, lo, hi):
    """Reference maximize on the sparse engine: lexicographic scan of
    herald_objective, then the same bounded Nelder-Mead refinement."""
    axis = [lo + k * step for k in range(int(round((hi - lo) / step)) + 1)]
    best_val, best = -1.0, None
    for cell in itertools.product(axis, repeat=3):
        val = herald_objective(*cell)
        if val > best_val:
            best_val, best = val, cell
    simplex = np.tile(np.array(best), (4, 1))
    for k in range(3):
        simplex[k + 1, k] += step if best[k] + step <= 1.0 else -step
    refined = minimize(
        lambda x: -herald_objective(*(float(v) for v in np.clip(x, 0.0, 1.0))),
        x0=np.array(best),
        method="Nelder-Mead",
        bounds=[(0.0, 1.0)] * 3,
        options={"xatol": tol, "fatol": 1e-14, "maxiter": 2000, "initial_simplex": simplex},
    )
    candidate = tuple(float(v) for v in np.clip(refined.x, 0.0, 1.0))
    value = herald_objective(*candidate)
    if value < best_val:
        candidate, value = best, best_val
    return (*candidate, value)


class TestMaximize:
    def test_equals_the_sparse_reference_exactly(self):
        res = maximize(1e-3, grid_step=0.2, grid_bounds=(0.2, 0.8))
        assert tuple(res) == _sparse_maximize(1e-3, 0.2, 0.2, 0.8)

    def test_reports_one_sparse_objective_call(self, monkeypatch):
        calls = []
        sparse = wchip.optimize.herald_objective

        def counted(*cell):
            calls.append(cell)
            return sparse(*cell)

        monkeypatch.setattr(wchip.optimize, "herald_objective", counted)
        res = maximize(1e-3, grid_step=0.2, grid_bounds=(0.2, 0.8))
        assert calls == [(res.r1, res.r2, res.r3)]

    def test_a_wrong_row_engine_raises(self, monkeypatch):
        # a scaled objective peaks at the same point, so only the check
        # against the Fock engine can see it
        probability = wchip.optimize._herald_probability
        monkeypatch.setattr(
            wchip.optimize, "_herald_probability", lambda rows: probability(rows) * 1.001
        )
        with pytest.raises(RuntimeError, match="row engine disagrees") as info:
            maximize(1e-3, grid_step=0.2, grid_bounds=(0.2, 0.8))
        assert not isinstance(info.value, WchipError)

    def test_a_fock_value_off_by_1e_11_relative_raises(self, monkeypatch):
        # about 4.7e-13 apart at the optimum, inside an absolute 1e-12
        objective = wchip.optimize.herald_objective
        monkeypatch.setattr(
            wchip.optimize, "herald_objective", lambda *r: objective(*r) * (1.0 + 1e-11)
        )
        with pytest.raises(RuntimeError, match="row engine disagrees"):
            maximize()

    def test_refines_through_the_module_level_minimize(self, monkeypatch):
        # maximize looks minimize up at call time, so a wrapper installed on
        # the module (as the traced benchmark does) sees every refinement
        plain = maximize(1e-3, grid_step=0.2)
        calls = []
        lazy = wchip.optimize.minimize

        def counted(*args, **kwargs):
            calls.append(1)
            return lazy(*args, **kwargs)

        monkeypatch.setattr(wchip.optimize, "minimize", counted)
        assert maximize(1e-3, grid_step=0.2) == plain
        assert len(calls) >= 1

    @pytest.mark.parametrize(
        "grid_step, expected",
        [
            (0.04, (0.5000000080433744, 0.5773502902689587, 0.7071068343276299, 0.046874999999998716)),
            (0.05, (0.5000000508939544, 0.5773502065338378, 0.7071067999793315, 0.046874999999996926)),
            (0.1, (0.5000000419575632, 0.5773503902699719, 0.7071068111593468, 0.04687499999999257)),
        ],
    )
    def test_golden_results(self, grid_step, expected):
        # exact tuples: a change to the engine that moves any objective value
        # by one ulp changes the Nelder-Mead path and shows here
        assert tuple(maximize(1e-4, grid_step=grid_step)) == expected

    def test_finds_the_known_optimum(self):
        res = maximize(1e-4, grid_step=0.1, grid_bounds=(0.2, 0.9))
        assert isinstance(res, OptimizationResult)
        assert res.r1 == pytest.approx(OPTIMAL_R[0], abs=1e-3)
        assert res.r2 == pytest.approx(OPTIMAL_R[1], abs=1e-3)
        assert res.r3 == pytest.approx(OPTIMAL_R[2], abs=1e-3)
        assert res.value == pytest.approx(3 / 64, abs=1e-6)

    def test_is_deterministic(self):
        a = maximize(1e-3, grid_step=0.15, grid_bounds=(0.2, 0.8))
        b = maximize(1e-3, grid_step=0.15, grid_bounds=(0.2, 0.8))
        assert a == b

    def test_refinement_beats_the_coarse_grid(self):
        res = maximize(1e-5, grid_step=0.2, grid_bounds=(0.2, 0.8))
        grid_best = max(
            herald_objective(r1, r2, r3)
            for r1 in (0.2, 0.4, 0.6, 0.8)
            for r2 in (0.2, 0.4, 0.6, 0.8)
            for r3 in (0.2, 0.4, 0.6, 0.8)
        )
        assert res.value >= grid_best

    def test_parameter_gates(self):
        with pytest.raises(ParamOutOfRange):
            maximize(0.0)
        with pytest.raises(ParamOutOfRange):
            maximize(1e-4, grid_step=0.7)
        with pytest.raises(ParamOutOfRange):
            maximize(1e-4, grid_bounds=(0.9, 0.1))


# tol log-uniform over [1e-9, 1e-1]; grid bounds at least 0.05 apart.
_TOL = st.floats(-9.0, -1.0).map(lambda e: 10.0**e)
_STEP = st.floats(0.02, 0.45)


@st.composite
def _grid_bounds(draw):
    lo = draw(st.floats(0.0, 0.9))
    return lo, draw(st.floats(min(lo + 0.05, 1.0), 1.0))


def _rosenbrock(x):
    """The 3-D Rosenbrock valley, minimum at 0.75 per axis, scaled into the
    unit cube; plain float arithmetic, so lists and arrays give the same
    bits."""
    y = [4.0 * float(c) - 2.0 for c in x]
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(y, y[1:]))


@st.composite
def _simplices(draw):
    center = draw(st.tuples(*[st.floats(0.0, 1.0)] * 3))
    return wchip.optimize._initial_simplex(center, draw(st.floats(0.01, 0.49)))


class TestNelderMeadPort:
    """``minimize`` is scipy's bounded Nelder-Mead step for step, and
    ``maximize`` returns what it returned on scipy and complex rows (kept in
    oracles.py) bit for bit."""

    @settings(max_examples=40)
    @given(_TOL, _STEP, _grid_bounds())
    def test_maximize_equals_the_scipy_version(self, tol, step, bounds):
        expected = scipy_maximize(tol, grid_step=step, grid_bounds=bounds)
        assert tuple(maximize(tol, grid_step=step, grid_bounds=bounds)) == expected

    @staticmethod
    def _assert_minimize_equals_scipy(simplex, xatol, fun=_rosenbrock):
        """Run both on `fun`; return the port's number of evaluations."""
        ref = minimize(
            fun,
            x0=np.array(simplex[0]),
            method="Nelder-Mead",
            bounds=[(0.0, 1.0)] * 3,
            options={"xatol": xatol, "fatol": 1e-12, "maxiter": 400,
                     "initial_simplex": np.array(simplex)},
        )
        points = []

        def recorded(x):
            points.append(x)
            return fun(x)

        x = wchip.optimize.minimize(recorded, simplex, xatol=xatol, fatol=1e-12, maxiter=400)
        assert x == tuple(ref.x) and fun(x) == ref.fun
        assert len(points) == ref.nfev
        return len(points)

    @settings(max_examples=40)
    @given(_simplices(), _TOL)
    def test_minimize_equals_scipy(self, simplex, xatol):
        self._assert_minimize_equals_scipy(simplex, xatol)

    def test_stops_with_the_simplex_exactly_xatol_wide(self):
        simplex = wchip.optimize._initial_simplex((0.5, 0.5, 0.5), 0.25)
        assert self._assert_minimize_equals_scipy(simplex, 0.25, fun=lambda x: 0.0) == 4

    def test_takes_every_kind_of_step(self, monkeypatch):
        # each step evaluates one trial point (coefficients a, b of
        # a xbar - b worst) or, for a shrink, the n non-best vertices
        trials = []
        trial = wchip.optimize._trial

        def counted(pairs, a, b):
            trials.append((a, b))
            return trial(pairs, a, b)

        monkeypatch.setattr(wchip.optimize, "_trial", counted)
        # from a corner of the cube, where clipped trial points force shrinks
        simplex = wchip.optimize._initial_simplex((0.0, 0.1, 0.0), 0.2)
        nfev = self._assert_minimize_equals_scipy(simplex, 1e-8)
        kinds = {"expand": (3.0, 2.0), "outside": (1.5, 0.5), "inside": (0.5, -0.5)}
        counts = {kind: trials.count(ab) for kind, ab in kinds.items()}
        counts["shrink"], rest = divmod(nfev - len(simplex) - len(trials), 3)
        assert rest == 0
        assert min(counts.values()) >= 1, counts

    def test_maximize_never_loads_scipy(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(wchip.optimize.__file__).resolve().parents[1])
        code = (
            "import sys, wchip.optimize as o; o.maximize(1e-4, grid_step=0.2); "
            "print('scipy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _negated_herald(x):
    """The objective ``maximize`` hands to ``minimize``."""
    return -wchip.optimize._herald_probability(wchip.optimize._source_amplitudes(*x))


def _quantised(x):
    """A bowl at 0.3 per axis cut into steps of 1/8, so most values tie."""
    return math.floor(8.0 * sum((c - 0.3) ** 2 for c in x)) / 8.0


_OBJECTIVES = {"herald": _negated_herald, "rosenbrock": _rosenbrock, "quantised": _quantised}


@st.composite
def _edge_simplices(draw):
    """Simplices of ``maximize``'s shape, centred on corners, faces and
    interior points of the cube alike."""
    coordinate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    center = draw(st.tuples(*[coordinate] * 3))
    return wchip.optimize._initial_simplex(center, draw(st.floats(0.01, 0.49)))


def _bits_of_run(minimizer, fun, simplex, **options):
    """The points `minimizer` evaluates `fun` at, in order, and its result,
    each coordinate as its exact bits."""
    points = []

    def recorded(x):
        points.append(tuple(map(float.hex, x)))
        return fun(x)

    result = minimizer(recorded, simplex, **options)
    return points, tuple(map(float.hex, result))


class TestSortedInsertion:
    """``minimize`` keeps the simplex sorted by inserting each new vertex;
    the version that re-sorted it after every step (``sorted_minimize`` in
    oracles.py) must visit the same points and return the same vertex bit
    for bit.  Ties are included: the quantised objective gives many, where
    only the stable order is a reference and scipy's argsort is not."""

    @settings(max_examples=80, deadline=None)
    @given(_edge_simplices(), st.sampled_from(sorted(_OBJECTIVES)), _TOL, st.integers(1, 400))
    def test_visits_the_points_of_the_resorting_version(self, simplex, name, xatol, maxiter):
        options = {"xatol": xatol, "fatol": 1e-14, "maxiter": maxiter}
        fun = _OBJECTIVES[name]
        expected = _bits_of_run(sorted_minimize, fun, simplex, **options)
        assert _bits_of_run(wchip.optimize.minimize, fun, simplex, **options) == expected

    @settings(max_examples=12, deadline=None)
    @given(_edge_simplices(), st.sampled_from(sorted(_OBJECTIVES)))
    def test_every_maxiter_up_to_the_natural_stop(self, simplex, name):
        # a run cut by maxiter ends after any kind of step, a shrink too
        fun = _OBJECTIVES[name]
        natural = _bits_of_run(sorted_minimize, fun, simplex, xatol=1e-4, fatol=1e-14, maxiter=200)
        for maxiter in range(1, 201):
            options = {"xatol": 1e-4, "fatol": 1e-14, "maxiter": maxiter}
            run = _bits_of_run(wchip.optimize.minimize, fun, simplex, **options)
            assert run == _bits_of_run(sorted_minimize, fun, simplex, **options)
            if run == natural:
                break
        assert run == natural


@settings(max_examples=60, deadline=None)
@given(
    _edge_simplices(),
    st.sampled_from(sorted(_OBJECTIVES)),
    _TOL,
    st.one_of(st.integers(1, 8), st.integers(1, 400)),  # runs cut early, and whole ones
)
def test_minimize_never_returns_a_vertex_worse_than_its_start(simplex, name, xatol, maxiter):
    # the best vertex is only ever replaced by a better one, so maximize
    # needs no fallback to the scan's best cell
    fun = _OBJECTIVES[name]
    x = wchip.optimize.minimize(fun, simplex, xatol=xatol, fatol=1e-14, maxiter=maxiter)
    assert fun(list(x)) <= min(map(fun, simplex))


class TestSweep:
    def test_axes_are_validated(self):
        with pytest.raises(ValidationError):
            SweepSpec(r1=(), r2=(0.5,), r3=(0.5,))
        with pytest.raises(ParamOutOfRange):
            SweepSpec(r1=(1.5,), r2=(0.5,), r3=(0.5,))
        with pytest.raises(ValidationError):
            SweepSpec(r1=(0.5,), r2=(0.5,), r3=(0.5,), metric="coupling")

    @given(st.sampled_from(("r1", "r2", "r3", "ad2_extinction")),
           st.floats(0.0, sys.float_info.min, exclude_min=True, exclude_max=True))
    def test_a_subnormal_axis_value_is_refused(self, name, value):
        axes = {"r1": (0.5,), "r2": (0.5,), "r3": (0.5,), "ad2_extinction": (0.0,)}
        with pytest.raises(ParamOutOfRange, match=rf"sweep axis {name} leaves \[0, 1\] or is subnormal"):
            SweepSpec(**{**axes, name: (0.0, value)})
        assert SweepSpec(**{**axes, name: (0.0, sys.float_info.min)}).n_cells == 2

    @pytest.mark.parametrize("cap", [2.7, True, False, "3", None, 0, -1, 0.0])
    def test_a_cell_cap_that_is_no_positive_integer_is_refused(self, cap):
        with pytest.raises(ValidationError):
            SweepSpec(r1=(0.5,), r2=(0.5,), r3=(0.5,), cell_cap=cap)

    @pytest.mark.parametrize("cap, taken", [(3, 3), (3.0, 3), (10**6, 10**6)])
    def test_an_integral_cell_cap_is_taken(self, cap, taken):
        spec = SweepSpec(r1=(0.5,), r2=(0.5,), r3=(0.5,), cell_cap=cap)
        assert spec.cell_cap == taken and type(spec.cell_cap) is int

    def test_cell_cap(self):
        axis = tuple(np.linspace(0.1, 0.9, 101))
        spec = SweepSpec(r1=axis, r2=axis, r3=axis)
        with pytest.raises(GridTooLarge):
            sweep(spec)

    def test_rows_are_lexicographic_and_match_objective(self):
        spec = SweepSpec(r1=(0.3, 0.5), r2=(0.4, 0.6), r3=(0.7,))
        table = sweep(spec)
        assert table.columns == ("r1", "r2", "r3", "ad2_extinction", "herald_probability")
        assert len(table.rows) == 4
        assert [row[:2] for row in table.rows] == [
            (0.3, 0.4),
            (0.3, 0.6),
            (0.5, 0.4),
            (0.5, 0.6),
        ]
        for r1, r2, r3, _, value in table.rows:
            assert value == pytest.approx(herald_objective(r1, r2, r3), abs=1e-15)

    def test_csv_is_deterministic_text(self):
        from wchip.cli import _sweep_document

        spec = SweepSpec(r1=(0.5,), r2=(0.5,), r3=(0.5,))
        text = "".join(_sweep_document(sweep(spec), "csv"))
        assert text == "".join(_sweep_document(sweep(spec), "csv")) == sweep_csv(sweep(spec))
        assert text.startswith("r1,r2,r3,ad2_extinction,")

    def test_fidelity_metric_ideal_router(self):
        spec = SweepSpec(
            r1=(OPTIMAL_R[0],), r2=(OPTIMAL_R[1],), r3=(OPTIMAL_R[2],),
            metric="w_fidelity",
        )
        (row,) = sweep(spec).rows
        assert row[-1] == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_metric_degrades_as_one_over_one_plus_extinction(self):
        # a blue photon leaking to a color-blind T1 detector heralds the
        # wrong-color branch; its weight relative to the true branch is the
        # extinction, hence F = 1 / (1 + eps)
        eps_axis = (0.0, 0.1, 0.25, 0.5, 1.0)
        spec = SweepSpec(
            r1=(OPTIMAL_R[0],), r2=(OPTIMAL_R[1],), r3=(OPTIMAL_R[2],),
            ad2_extinction=eps_axis,
            metric="w_fidelity",
        )
        table = sweep(spec)
        for row, eps in zip(table.rows, eps_axis):
            assert row[-1] == pytest.approx(1.0 / (1.0 + eps), abs=1e-12)

    def test_fidelity_metric_off_optimum_stays_in_unit_interval(self):
        spec = SweepSpec(
            r1=(0.3, 0.7), r2=(0.4,), r3=(0.6,), ad2_extinction=(0.2,),
            metric="w_fidelity",
        )
        for *_, value in sweep(spec).rows:
            assert 0.0 <= value <= 1.0


_PHI = st.floats(-3.2, 3.2)


def _axis(values):
    return st.lists(values, min_size=1, max_size=3, unique=True).map(sorted)


@st.composite
def _sweep_specs(draw):
    metric = draw(st.sampled_from(("herald_probability", "w_fidelity")))
    return SweepSpec(
        r1=draw(_axis(_AXIS)), r2=draw(_axis(_AXIS)), r3=draw(_axis(_AXIS)),
        ad2_extinction=draw(_axis(_AXIS)), metric=metric,
    )


def _checked(spec):
    """The cell the in-run check reads (:func:`min_checked_cell`)."""
    axes = (spec.r1, spec.r2, spec.r3, spec.ad2_extinction)
    return tuple(axis[i] for axis, i in zip(axes, min_checked_cell(spec)))


#: Axis values with exact ties about 1/2 (0.25 and 0.75, 0.375 and 0.625),
#: the faces 0.0, -0.0 and 1.0, and 1/2 itself.
_CHECKED_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.25, 0.75, 0.375, 0.625, 0.5]),
    st.floats(0.0, 1.0, allow_subnormal=False),
)


class TestCheckedCell:
    """The cell the in-run check reads is the generator-and-``min`` rule it
    replaced (:func:`min_checked_cell`), ties and faces included; fixed
    examples are in ``TestColorblindRatio``."""

    @given(st.lists(st.lists(_CHECKED_VALUES, min_size=1, max_size=6), min_size=4, max_size=4))
    def test_is_the_min_rule(self, axes):
        spec = SweepSpec(*axes)
        assert wchip.optimize._checked_cell(spec) == min_checked_cell(spec)


def _sweep_or_underflow(spec):
    """``sweep(spec)``, or None where it raises ParamOutOfRange, which it
    must do exactly when the Fock engine's T1 amplitudes underflow at the
    checked cell, and name that cell."""
    cell = _checked(spec)
    try:
        table = sweep(spec)
    except ParamOutOfRange as exc:
        assert t1_amplitudes_underflow(cell) and f"cell {cell} underflow" in str(exc)
        return None
    assert not t1_amplitudes_underflow(cell)
    return table


def _scale_an_entry(monkeypatch, k, factor=1.001):
    """Make the row engine wrong where the sweep writes from it: entry `k`
    of each slab's source rows (0 is Red T1, 4 ch 3, 1 the Blue T1 leak)
    scaled by `factor` when the rows are arrays, left as is on Python
    floats."""
    source_amplitudes = wchip.optimize._source_amplitudes

    def scaled(*args):
        rows = source_amplitudes(*args)
        if np.ndim(rows[k]) == 0:
            return rows
        return (*rows[:k], rows[k] * factor, *rows[k + 1 :])

    monkeypatch.setattr(wchip.optimize, "_source_amplitudes", scaled)


class TestSweepEngine:
    """The row engine against the per-cell Fock loop it replaced, and the
    one-cell check against the Fock engine that every sweep runs."""

    @settings(max_examples=60)
    @given(_sweep_specs())
    def test_matches_the_per_cell_loop(self, spec):
        table = _sweep_or_underflow(spec)
        if table is None:
            return
        expected = per_cell_sweep(spec)
        assert len(table.rows) == len(expected)
        for row, ref in zip(table.rows, expected):
            assert row[:4] == ref[:4]
            # where the Fock engine's amplitudes underflow, the closed form
            value = 1.0 / (1.0 + row[3]) if ref[4] is None else ref[4]
            assert abs(row[4] - value) <= 1e-12, (row, ref)

    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    def test_a_wrong_row_engine_raises(self, monkeypatch, metric):
        _scale_an_entry(monkeypatch, 4)
        spec = SweepSpec(r1=(0.5,), r2=(0.6,), r3=(0.7,), ad2_extinction=(0.1,), metric=metric)
        with pytest.raises(RuntimeError) as info:
            sweep(spec)
        assert not isinstance(info.value, WchipError)

    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    @pytest.mark.parametrize(
        "entry, r2, extinction",
        [(4, (0.0, 0.6), (0.1,)), (4, (-0.0, 1.0, 0.6), (0.1,)), (1, (0.6,), (0.0, 0.1))],
        ids=["ch3-one-face", "ch3-two-faces", "leak-at-zero-extinction"],
    )
    def test_a_wrong_row_engine_raises_on_a_grid_that_starts_on_a_face(
        self, monkeypatch, metric, entry, r2, extinction
    ):
        # Every amplitude is 0 on a face of the cube, and the Blue T1 ones
        # at zero extinction, where the mutant is right, so the checked
        # cell must be one inside the cube and off zero extinction.
        _scale_an_entry(monkeypatch, entry)
        spec = SweepSpec(r1=(0.5,), r2=r2, r3=(0.7,), ad2_extinction=extinction, metric=metric)
        with pytest.raises(RuntimeError, match=r"at cell \(0\.5, 0\.6, 0\.7, 0\.1\)"):
            sweep(spec)

    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    def test_a_wrong_row_engine_raises_where_every_amplitude_is_tiny(self, monkeypatch, metric):
        # The T1 amplitudes are about 1e-14 and the probability 3e-27, each
        # far below an absolute 1e-12.
        _scale_an_entry(monkeypatch, 0, factor=2.0)
        spec = SweepSpec(r1=(1e-13,), r2=(0.5,), r3=(0.5,), metric=metric)
        with pytest.raises(RuntimeError, match=r"at cell \(1e-13, 0\.5, 0\.5, 0\.0\)"):
            sweep(spec)

    def test_the_checked_cell_is_read_from_its_own_slab(self, monkeypatch):
        # One r1 plane per slab: the checked cell (r1 = 0.5) lies in the third slab.
        monkeypatch.setattr(wchip.optimize, "_SCAN_SLAB_CELLS", 1)
        _scale_an_entry(monkeypatch, 4)
        spec = SweepSpec(r1=(0.0, 1.0, 0.5, 0.4), r2=(0.6,), r3=(0.7,), ad2_extinction=(0.1,))
        with pytest.raises(RuntimeError, match=r"at cell \(0\.5, 0\.6, 0\.7, 0\.1\)"):
            sweep(spec)

    def test_a_fidelity_weighting_blue_twice_raises(self, monkeypatch):
        # Its amplitudes are right, so only the check of the value sees it.
        colorblind_fidelity = wchip.optimize._colorblind_fidelity

        def blue_twice(rows):
            red_t1, blue_t1, *rest = rows
            return colorblind_fidelity((red_t1, blue_t1 * math.sqrt(2.0), *rest))

        monkeypatch.setattr(wchip.optimize, "_colorblind_fidelity", blue_twice)
        spec = SweepSpec((0.0, 0.5), (0.6,), (0.7,), (0.0, 0.1), metric="w_fidelity")
        with pytest.raises(RuntimeError, match=r"at cell \(0\.5, 0\.6, 0\.7, 0\.1\) on w_fidelity"):
            sweep(spec)

    def test_a_scaled_herald_probability_raises(self, monkeypatch):
        herald_probability = wchip.optimize._herald_probability
        monkeypatch.setattr(
            wchip.optimize, "_herald_probability", lambda rows: herald_probability(rows) * 1.001
        )
        spec = SweepSpec((0.0, 0.5), (0.6,), (0.7,), (0.0, 0.1))
        with pytest.raises(
            RuntimeError, match=r"at cell \(0\.5, 0\.6, 0\.7, 0\.1\) on herald_probability"
        ) as info:
            sweep(spec)
        assert not isinstance(info.value, WchipError)

    def test_a_grid_with_no_cell_inside_is_checked_at_its_first_cell(self, monkeypatch):
        checked = []
        fock_state = wchip.optimize.apply_mode_transform

        def spy(state, transform):
            checked.append(transform)
            return fock_state(state, transform)

        monkeypatch.setattr(wchip.optimize, "apply_mode_transform", spy)
        table = sweep(SweepSpec(r1=(0.0, 1.0), r2=(0.5,), r3=(0.7,)))
        assert table.values.tolist() == [0.0, 0.0] and len(checked) == 1


@st.composite
def _slab_grids(draw):
    """A sweep over a grid of random shape: planes of 1 to 200 cells, 1 to
    30 of them, any values in the unit cube, either metric."""
    sizes = draw(st.tuples(*(st.integers(1, n) for n in (30, 10, 4, 5))))
    axes = [draw(st.lists(_AXIS, min_size=n, max_size=n)) for n in sizes]
    metric = draw(st.sampled_from(("herald_probability", "w_fidelity")))
    return SweepSpec(*axes, metric=metric)


class TestSlabs:
    """A grid runs in the fewest slabs of r1 planes that fit the slab cap,
    split evenly, and the values do not depend on the cap."""

    @pytest.mark.parametrize(
        "planes, plane_cells, bounds",
        [
            (21, 21 * 21, [(0, 7), (7, 14), (14, 21)]),  # maximize's default scan
            (21, 21 * 8, [(0, 21)]),  # a 21 x 21 x 1 x 8 sweep
            (3, 10**4, [(0, 1), (1, 2), (2, 3)]),  # a plane past the cap
            (10, 1000, [(0, 3), (3, 6), (6, 10)]),
        ],
    )
    def test_bounds(self, planes, plane_cells, bounds):
        assert wchip.optimize._slabs(planes, plane_cells) == bounds

    @given(st.integers(1, 500), st.integers(1, 10**5))
    def test_fewest_even_slabs_within_the_cap(self, planes, plane_cells):
        bounds = wchip.optimize._slabs(planes, plane_cells)
        fit = max(1, wchip.optimize._SCAN_SLAB_CELLS // plane_cells)
        sizes = [stop - start for start, stop in bounds]
        assert bounds[0][0] == 0 and bounds[-1][1] == planes
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) == -(-planes // fit)  # no fewer slabs can fit
        assert 1 <= min(sizes) and max(sizes) <= fit and max(sizes) - min(sizes) <= 1

    @settings(max_examples=100, deadline=None)
    @given(_slab_grids())
    def test_sweep_values_do_not_depend_on_the_cap(self, spec):
        # one plane per slab, the default, and one slab for the whole grid
        values = []
        for cap in (1, wchip.optimize._SCAN_SLAB_CELLS, spec.n_cells + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wchip.optimize, "_SCAN_SLAB_CELLS", cap)
                table = _sweep_or_underflow(spec)
                values.append(None if table is None else table.values.tobytes())
        assert values[0] == values[1] == values[2]

    @pytest.mark.parametrize("grid_step", [GRID_STEP, 0.1])
    def test_maximize_does_not_depend_on_the_cap(self, monkeypatch, grid_step):
        cells = len(np.arange(0.1, 0.9 + 1e-9, grid_step)) ** 3
        results = []
        for cap in (1, wchip.optimize._SCAN_SLAB_CELLS, cells + 1):
            monkeypatch.setattr(wchip.optimize, "_SCAN_SLAB_CELLS", cap)
            results.append(maximize(grid_step=grid_step))
        assert results[0] == results[1] == results[2]


def test_the_shared_double_pair_is_left_as_built():
    shared = wchip.optimize._TWO_PAIRS
    sweep(SweepSpec((0.3, 0.5), (0.6,), (0.7,), (0.0, 0.1), metric="w_fidelity"))
    sweep(SweepSpec((0.3, 0.5), (0.6,), (0.7,), (0.0, 0.1)))
    herald_objective(0.5, 0.6, 0.7)
    built = two_pair_state(SOURCE_CHANNEL)
    assert len(shared) == 1
    assert [(b, a.real.hex(), a.imag.hex()) for b, a in shared.items()] == [
        (b, a.real.hex(), a.imag.hex()) for b, a in built.items()
    ]


class TestInRunCheck:
    """Every call is checked against the Fock engine exactly once, whatever
    its slab count: the wrapped functions count the calls, as the benchmark's
    tracer counts them."""

    @staticmethod
    def _count(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(wchip.optimize, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(wchip.optimize, name, counted)
        return calls

    @pytest.mark.parametrize("cap", [1, wchip.optimize._SCAN_SLAB_CELLS, 10**6])
    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    def test_each_sweep_propagates_one_cell(self, monkeypatch, cap, metric):
        monkeypatch.setattr(wchip.optimize, "_SCAN_SLAB_CELLS", cap)
        calls = self._count(monkeypatch, "build_transform", "apply_mode_transform")
        axis = tuple(np.linspace(0.05, 0.95, 21).tolist())
        spec = SweepSpec(axis, axis, (0.7,), (0.0, 0.01, 0.1), metric=metric)
        for expected in (1, 2):
            sweep(spec)
            assert calls == {"build_transform": expected, "apply_mode_transform": expected}

    @pytest.mark.parametrize("cap", [1, wchip.optimize._SCAN_SLAB_CELLS, 10**6])
    @pytest.mark.parametrize("grid_step", [GRID_STEP, 0.1])
    def test_each_maximize_calls_the_objective_once(self, monkeypatch, cap, grid_step):
        monkeypatch.setattr(wchip.optimize, "_SCAN_SLAB_CELLS", cap)
        calls = self._count(monkeypatch, "herald_objective")
        maximize(grid_step=grid_step)
        assert calls == {"herald_objective": 1}


def _bits(rows):
    return [tuple(map(float.hex, row)) for row in rows]


class TestLazyRows:
    """``SweepTable.rows`` is built as it is read, from the axes and the
    value array, and gives exactly the tuples the eager table held
    (:func:`eager_sweep_rows`)."""

    @settings(max_examples=60)
    @given(_sweep_specs())
    def test_gives_the_eager_tuples(self, spec):
        table, expected = _sweep_or_underflow(spec), eager_sweep_rows(spec)
        if table is None:
            return
        rows = table.rows
        assert len(rows) == len(expected) == spec.n_cells
        listed = list(rows)
        assert _bits(listed) == _bits(expected)
        assert all(type(row) is tuple and all(type(v) is float for v in row) for row in listed)
        assert [row[:4] for row in rows] == [row[:4] for row in expected]
        assert _bits(table.rows) == _bits(listed)  # a second read gives the same rows
        one = SweepSpec(*[(v,) for v in expected[0][:4]], metric=spec.metric)
        if (table := _sweep_or_underflow(one)) is not None:
            (row,) = table.rows
            assert _bits([row]) == _bits(eager_sweep_rows(one))

    def test_values_are_one_read_only_array(self):
        table = sweep(SweepSpec(r1=(0.3, 0.5), r2=(0.4,), r3=(0.7,), ad2_extinction=(0.0, 0.1)))
        assert table.axes == ((0.3, 0.5), (0.4,), (0.7,), (0.0, 0.1))
        assert table.values.dtype == np.float64 and table.values.shape == (4,)
        assert [row[4] for row in table.rows] == table.values.tolist()
        with pytest.raises(ValueError):
            table.values[0] = 0.0


class TestSweepFaces:
    """Cells on and next to the faces of the unit cube, where every counted
    amplitude is zero or tiny."""

    @pytest.mark.parametrize("cell", [(1e-15, 0.5, 0.7), (0.5, 1.0 - 1e-16, 0.7)])
    def test_fidelity_of_a_tiny_herald_is_not_lost(self, cell):
        spec = SweepSpec(*[(v,) for v in cell], ad2_extinction=(0.1,), metric="w_fidelity")
        (row,) = sweep(spec).rows
        assert row[-1] == pytest.approx(1.0 / 1.1, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    def test_face_cells_read_zero_without_a_warning(self, capfd, metric):
        face = (0.0, 0.5, 1.0)
        spec = SweepSpec(r1=face, r2=face, r3=face, ad2_extinction=(0.0, 0.1, 1.0), metric=metric)
        rows = sweep(spec).rows
        assert capfd.readouterr().err == ""
        for r1, r2, r3, _, value in rows:
            on_face = {r1, r2, r3} & {0.0, 1.0}
            assert (value == 0.0) if on_face else value > 0.0


class TestColorblindRatio:
    """The colour-blind fidelity is the scale-free amplitude ratio
    1 / (1 + (Blue T1 / Red T1)^2): exact where every product of entries
    underflows, and checked against the Fock engine at one cell."""

    @pytest.mark.parametrize(
        "cell",
        [
            (0.5, 0.5, 3.5617438556386685e-160, 0.0),  # read 1.0002188662727074
            (0.5, 1e-100, 1e-60, 0.1),  # read 0.9094781682641108
            (0.5, 1e-200, 0.5, 0.1),  # read 0.0
        ],
    )
    def test_cells_whose_squares_underflow(self, cell):
        (row,) = sweep(SweepSpec(*[(v,) for v in cell], metric="w_fidelity")).rows
        assert abs(row[-1] - 1.0 / (1.0 + cell[3])) <= 1e-12 and row[-1] <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[_axis(_AXIS)] * 4).map(lambda axes: SweepSpec(*axes, metric="w_fidelity")))
    def test_is_one_over_one_plus_extinction_inside_and_zero_on_the_faces(self, spec):
        table = _sweep_or_underflow(spec)
        if table is None:
            return
        for r1, r2, r3, eps, value in table.rows:
            assert 0.0 <= value <= 1.0
            if {r1, r2, r3} & {0.0, 1.0}:
                assert value == 0.0
            else:
                assert abs(value - 1.0 / (1.0 + eps)) <= 1e-12

    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    def test_a_checked_cell_that_underflows_on_the_fock_engine_is_named(self, metric):
        spec = SweepSpec((0.0, 0.5), (1e-200,), (1e-200,), (0.0, 0.1), metric=metric)
        with pytest.raises(ParamOutOfRange, match=r"cell \(0\.5, 1e-200, 1e-200, 0\.1\) underflow"):
            sweep(spec)

    def test_a_grid_with_a_resolvable_cell_is_checked_there(self):
        # The first inside cell underflows on the Fock engine; the one
        # nearest 1/2 on each axis does not.
        spec = SweepSpec((0.5,), (1e-200, 0.5), (1e-200, 0.5), metric="w_fidelity")
        assert wchip.optimize._checked_cell(spec) == (0, 1, 1, 0)
        assert sweep(spec).values.tolist() == [1.0] * 4

    def test_the_checked_cell_is_the_inside_value_nearest_one_half(self):
        # 0.4 and 0.6, and 0.25 and 0.75, tie at 1/2: the first wins; 1.0 is
        # outside an r axis but inside the extinction axis
        spec = SweepSpec((0.0, 0.9, 0.4, 0.6), (1.0, 1e-200), (0.0,), (0.0, 1.0, 0.25, 0.75))
        assert wchip.optimize._checked_cell(spec) == (2, 1, 0, 2)
        # 1e-200 and 1.0 tie at 1/2 in floating point
        spec = SweepSpec((0.5,), (0.5,), (0.5,), (1e-200, 1.0))
        assert wchip.optimize._checked_cell(spec) == (0, 0, 0, 0)

    def test_a_cell_that_underflows_off_the_check_is_exact(self):
        spec = SweepSpec((0.5,), (0.5, 1e-200), (1e-200,), (0.1,), metric="w_fidelity")
        assert t1_amplitudes_underflow((0.5, 1e-200, 1e-200, 0.1))
        assert [abs(v - 1.0 / 1.1) <= 1e-12 for v in sweep(spec).values] == [True, True]


@st.composite
def _near_w_terms(draw):
    """One photon of a random color on each of channels 2, 3, 4 and T1 (a
    counted term), left as is or with one edit the classifier must reject:
    a doubled photon, a missing one, a stray one, or one moved elsewhere."""
    colors = draw(st.lists(st.sampled_from(Color), min_size=4, max_size=4))
    pairs = [(ModeLabel(ch, color), 1) for ch, color in zip((2, 3, 4, 5), colors)]
    i = draw(st.integers(0, 3))
    channel = draw(st.integers(0, 6))
    edit = draw(st.sampled_from(("none", "double", "drop", "stray", "move")))
    if edit == "double":
        pairs[i] = (pairs[i][0], 2)
    elif edit == "drop":
        del pairs[i]
    elif edit == "stray":
        pairs.append((ModeLabel(channel, draw(st.sampled_from(Color))), 1))
    elif edit == "move":
        pairs[i] = (ModeLabel(channel, pairs[i][0].color), 1)
    return pairs


def _same_float_bits(a, b):
    assert float(a).hex() == float(b).hex()


class TestColorblindFidelityProperties:
    """The one-pass classifier the sweep used on the Fock engine equals the
    split-and-pattern version it replaced bit for bit (both kept in
    oracles.py)."""

    @given(_R, _R, _R, _PHI, _PHI, _PHI, _EPS)
    def test_on_random_canonical_cells(self, r1, r2, r3, phi1, phi2, phi3, eps):
        spec = canonical_w_circuit(r1, r2, r3, phi1, phi2, phi3, ad2_extinction=eps)
        state = apply_mode_transform(two_pair_state(0), build_transform(spec))
        _same_float_bits(w_fidelity_colorblind(state), split_w_fidelity_colorblind(state))

    @given(st.lists(st.tuples(_near_w_terms(), st.complex_numbers(max_magnitude=2.0)),
                    min_size=1, max_size=12))
    def test_on_terms_near_the_counted_content(self, terms):
        state = PureState({FockBasisState(pairs): amp for pairs, amp in terms})
        _same_float_bits(w_fidelity_colorblind(state), split_w_fidelity_colorblind(state))

    def test_counts_only_one_photon_per_signal_channel_and_t1(self):
        red, blue = Color.RED, Color.BLUE
        w_term = FockBasisState(
            [(ModeLabel(2, blue), 1), (ModeLabel(3, blue), 1), (ModeLabel(4, red), 1),
             (ModeLabel(5, red), 1)]
        )
        wrong = FockBasisState(
            [(ModeLabel(2, red), 1), (ModeLabel(3, red), 1), (ModeLabel(4, blue), 1),
             (ModeLabel(5, blue), 1)]
        )
        stray = FockBasisState(
            [(ModeLabel(2, blue), 1), (ModeLabel(3, blue), 1), (ModeLabel(4, red), 1),
             (ModeLabel(6, red), 1)]
        )
        state = PureState({w_term: 1.0, wrong: 1.0, stray: 5.0})
        assert w_fidelity_colorblind(state) == pytest.approx(1 / 6)
