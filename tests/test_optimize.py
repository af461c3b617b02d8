"""Tests for the coupler optimization and the robustness sweeps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

import wchip.optimize

from wchip.circuit import build_transform, canonical_w_circuit
from wchip.elements import two_pair_state
from wchip.errors import GridTooLarge, ParamOutOfRange, ValidationError, WchipError
from wchip.fock import Color, FockBasisState, ModeLabel, PureState, apply_mode_transform
from wchip.herald import Branch, herald
from wchip.optimize import (
    OptimizationResult,
    SweepSpec,
    herald_objective,
    herald_objective_batch,
    maximize,
    sweep,
)

from oracles import (
    OPTIMAL_R,
    herald_prefactor,
    per_cell_sweep,
    scipy_maximize,
    split_w_fidelity_colorblind,
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


def test_objective_gates_parameters():
    with pytest.raises(ParamOutOfRange):
        herald_objective(-0.1, 0.5, 0.5)


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
        batched = herald_objective_batch(cells[:, 0], cells[:, 1], cells[:, 2])
        assert batched.shape == (200,)
        for (r1, r2, r3), value in zip(cells, batched):
            assert abs(value - herald_objective(r1, r2, r3)) <= 1e-12

    def test_matches_sparse_objective_on_cube_faces(self):
        axis = (0.0, 0.35, 0.8, 1.0)
        faces = [c for c in itertools.product(axis, repeat=3) if {0.0, 1.0} & set(c)]
        batched = herald_objective_batch(*np.array(faces).T)
        for cell, value in zip(faces, batched):
            assert herald_objective(*cell) == 0.0
            assert value == 0.0

    def test_broadcasts_a_grid_plane(self):
        axis = np.array([0.2, 0.45, 0.7])
        plane = herald_objective_batch(0.5, axis[:, np.newaxis], axis[np.newaxis, :])
        assert plane.shape == (3, 3)
        for (i, r2), (j, r3) in itertools.product(enumerate(axis), repeat=2):
            assert plane[i, j] == pytest.approx(herald_objective(0.5, r2, r3), abs=1e-12)

    def test_scalar_cell_at_the_optimum(self):
        value = herald_objective_batch(*OPTIMAL_R)
        assert np.ndim(value) == 0
        assert value == pytest.approx(3 / 64, abs=1e-15)

    def test_gates_parameters(self):
        with pytest.raises(ParamOutOfRange):
            herald_objective_batch(np.array([0.5, 1.2]), 0.5, 0.5)
        with pytest.raises(ParamOutOfRange):
            herald_objective_batch(0.5, math.nan, 0.5)


# Reflectivities in the unit cube, the faces (where the objective is 0) drawn
# as often as the interior.
_R = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_CELLS = st.lists(st.tuples(_R, _R, _R), min_size=1, max_size=8)


class TestBatchedEngineProperties:
    @settings(max_examples=60)
    @given(_CELLS)
    def test_scalar_call_equals_its_array_cell_bit_for_bit(self, cells):
        array = herald_objective_batch(*np.array(cells).T)
        for cell, value in zip(cells, array):
            scalar = herald_objective_batch(*(np.float64(r) for r in cell))
            assert np.ndim(scalar) == 0
            assert np.float64(scalar).tobytes() == value.tobytes()

    @settings(max_examples=60)
    @given(_CELLS)
    def test_matches_the_sparse_objective(self, cells):
        array = herald_objective_batch(*np.array(cells).T)
        for cell, value in zip(cells, array):
            assert abs(value - herald_objective(*cell)) <= 1e-12


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

        def counted(xbar, worst, a, b):
            trials.append((a, b))
            return trial(xbar, worst, a, b)

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


class TestSweep:
    def test_axes_are_validated(self):
        with pytest.raises(ValidationError):
            SweepSpec(r1=(), r2=(0.5,), r3=(0.5,))
        with pytest.raises(ParamOutOfRange):
            SweepSpec(r1=(1.5,), r2=(0.5,), r3=(0.5,))
        with pytest.raises(ValidationError):
            SweepSpec(r1=(0.5,), r2=(0.5,), r3=(0.5,), metric="coupling")

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
        spec = SweepSpec(r1=(0.5,), r2=(0.5,), r3=(0.5,))
        assert sweep(spec).to_csv() == sweep(spec).to_csv()
        assert sweep(spec).to_csv().startswith("r1,r2,r3,ad2_extinction,")

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


# Extinction over [0, 1], the ideal and the disabled router drawn as often
# as the interior.
_EPS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_PHI = st.floats(-3.2, 3.2)


def _axis(values):
    return st.lists(values, min_size=1, max_size=3, unique=True).map(sorted)


# Reflectivities at which the per-cell oracle keeps every counted amplitude
# (at least about 5e-7) and so every bit of the colour-blind fidelity that
# 1e-12 resolves; nearer the faces the Fock engine prunes them, which is the
# defect the row engine mends (TestSweepFaces).
_R_UNPRUNED = st.floats(0.01, 0.99)


@st.composite
def _sweep_specs(draw):
    metric = draw(st.sampled_from(("herald_probability", "w_fidelity")))
    r = _R if metric == "herald_probability" else _R_UNPRUNED
    return SweepSpec(
        r1=draw(_axis(r)), r2=draw(_axis(r)), r3=draw(_axis(r)),
        ad2_extinction=draw(_axis(_EPS)), metric=metric,
    )


class TestSweepEngine:
    """The row engine against the per-cell Fock loop it replaced, and the
    one-cell check against the Fock engine that every sweep runs."""

    @settings(max_examples=60)
    @given(_sweep_specs())
    def test_matches_the_per_cell_loop(self, spec):
        table = sweep(spec)
        expected = per_cell_sweep(spec)
        assert len(table.rows) == len(expected)
        for row, ref in zip(table.rows, expected):
            assert row[:4] == ref[:4]
            assert abs(row[4] - ref[4]) <= 1e-12, (row, ref)

    @pytest.mark.parametrize("metric", ["herald_probability", "w_fidelity"])
    def test_a_wrong_row_engine_raises(self, monkeypatch, metric):
        source_rows = wchip.optimize._source_rows

        def scaled(*args):
            rows = source_rows(*args)
            rows[Color.BLUE][3] = rows[Color.BLUE][3] * 1.001
            return rows

        monkeypatch.setattr(wchip.optimize, "_source_rows", scaled)
        spec = SweepSpec(r1=(0.5,), r2=(0.6,), r3=(0.7,), ad2_extinction=(0.1,), metric=metric)
        with pytest.raises(RuntimeError) as info:
            sweep(spec)
        assert not isinstance(info.value, WchipError)


class TestSweepFaces:
    """Cells on and next to the faces of the unit cube, where the Fock
    engine prunes every counted amplitude."""

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
