"""Tests for the conditioned-pair tomography protocol.

The heavy check is the dual route: run_tomography with exact
probabilities must reproduce the directly reduced density matrix, and the
finite-shot path must converge to it with the advertised binomial error.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wchip.circuit import SIGNAL_CHANNELS, build_transform, canonical_w_circuit
from wchip.cli import main
from wchip.density import ThreePhotonRho, trace_distance
from wchip.elements import two_pair_state
from wchip.errors import DiagonalsNotUniform, InvalidRho, ParamOutOfRange, ValidationError
from wchip.fock import Color, PureState, apply_mode_transform, basis_from_pattern, reduce_to_channels
from wchip.herald import Branch, herald, rho_biseparable, rho_incoherent, w_state
from wchip.tomography import discriminate, run_tomography, setting_seed

from oracles import pair_rho_run_tomography

OPT = (0.5, 1 / math.sqrt(3), 1 / math.sqrt(2))


def _heralded_optimum() -> PureState:
    spec = canonical_w_circuit(*OPT)
    state = apply_mode_transform(two_pair_state(0), build_transform(spec))
    return herald(state, Branch.T1).heralded_state


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_setting_seed_is_deterministic_and_label_sensitive():
    assert setting_seed(42, "x") == setting_seed(42, "x")
    assert setting_seed(42, "x") != setting_seed(42, "y")
    assert setting_seed(1, "x") != setting_seed(2, "x")


def test_settings_condition_outside_their_pair():
    records = run_tomography(w_state(Branch.T1), shots=100, seed=0, diag_threshold=1.0).records
    settings = [(rec.setting.conditioned_on, rec.setting.phase) for rec in records]
    assert settings == [
        ((ch, Color.BLUE), phase) for ch in SIGNAL_CHANNELS for phase in (0.0, math.pi / 2)
    ]
    for rec in records:
        channel = rec.setting.conditioned_on[0]
        assert rec.setting.channel_pair == tuple(ch for ch in SIGNAL_CHANNELS if ch != channel)


def test_record_counts_must_sum_to_shots():
    for rho in (rho_incoherent(), rho_biseparable()):
        for rec in run_tomography(rho, shots=777, seed=4, diag_threshold=1.0).records:
            assert rec.n_plus >= 0 and rec.n_minus >= 0
            assert rec.n_plus + rec.n_minus == rec.shots == 777


def test_setting_probabilities_on_w_pair():
    # the W pair interferes fully at phase 0 and evenly at phase pi/2
    result = run_tomography(w_state(Branch.T1), shots=10_000, seed=3, diag_threshold=1.0)
    for rec in result.records:
        if rec.setting.phase == 0.0:
            assert rec.n_plus == rec.shots
        else:
            assert abs(rec.frequency - 0.5) < 5 * math.sqrt(0.25 / rec.shots)


def test_setting_probabilities_rejects_unphysical_pair():
    # a pair coherence of 0.4 / (2/3) = 0.6 exceeds the populations 1/2
    bad = ThreePhotonRho.from_offdiagonals(0.4, 0.0, 0.0)
    for shots in (None, 1000):
        with pytest.raises(InvalidRho, match="eigenvalue -0.1 below"):
            run_tomography(bad, shots=shots, diag_threshold=1.0)


class TestSampling:
    def test_deterministic_in_seed(self):
        # each record is the binomial draw of its own setting seed
        exact = run_tomography(rho_biseparable()).coefficients
        result = run_tomography(rho_biseparable(), shots=1000, seed=5, diag_threshold=1.0)
        for rec in result.records:
            assert rec.seed == setting_seed(5, rec.setting.label)
            coef = exact["abc"[SIGNAL_CHANNELS.index(rec.setting.conditioned_on[0])]].value
            p_plus = 0.5 + 1.5 * (coef.real if rec.setting.phase == 0.0 else -coef.imag)
            assert rec.n_plus == np.random.default_rng(rec.seed).binomial(1000, p_plus)

    def test_frequency_converges(self):
        result = run_tomography(rho_biseparable(), shots=200_000, seed=123)
        for rec in result.records:
            p_plus = 0.75 if rec.setting.phase == 0.0 else 0.5
            sigma = math.sqrt(p_plus * (1 - p_plus) / rec.shots)
            assert abs(rec.frequency - p_plus) < 5 * sigma

    def test_shot_budget_must_be_positive(self):
        for shots in (0, -3):
            with pytest.raises(ParamOutOfRange, match="shots must be >= 1"):
                run_tomography(w_state(Branch.T1), shots=shots)


def test_condition_on_blue_blocks():
    # conditioning on a Blue photon in channel 2, 3 or 4 reads the coherence
    # of its own block: a = rho[0,1], b = rho[0,2], c = rho[1,2]
    offs = {"a": 0.1 + 0.05j, "b": -0.2j, "c": 0.15}
    coefficients = run_tomography(ThreePhotonRho.from_offdiagonals(**offs)).coefficients
    for name, value in offs.items():
        assert coefficients[name].value == pytest.approx(value, abs=1e-12)


def test_condition_on_blue_needs_population():
    rho = ThreePhotonRho(np.diag([0.0, 0.0, 1.0]).astype(complex))
    # a blue photon in channel 2 only appears in BBR/BRB, both empty here
    with pytest.raises(InvalidRho, match="no population with a blue photon in channel 2"):
        run_tomography(rho, diag_threshold=1.0)
    with pytest.raises(InvalidRho, match="channel 2"):
        run_tomography(rho, shots=100, diag_threshold=1.0)


def test_block_trace_below_threshold_counts_as_empty():
    # the channel-2 block holds 5e-13 of population: below the 1e-12
    # threshold, so it is empty although its trace is not 0
    rho = ThreePhotonRho(np.diag([2.5e-13, 2.5e-13, 1.0 - 5e-13]).astype(complex))
    with pytest.raises(InvalidRho, match="no population with a blue photon in channel 2"):
        run_tomography(rho, shots=None, diag_threshold=1.0)


_UNIT = st.floats(0.05, 0.95)
_PHASE = st.floats(-4.0, 4.0)
_OFF = st.builds(complex, st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))


def _heralded_cell(r, phi, eps):
    spec = canonical_w_circuit(*r, *phi, ad2_extinction=eps)
    state = apply_mode_transform(two_pair_state(0), build_transform(spec))
    return herald(state, Branch.T1).heralded_state


def _outcome(fn, *args, **kwargs):
    """Every bit of a run, or the type and message of its error."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))
    return (
        result.rho.matrix.tobytes(),
        [(k, v.value, v.se_re, v.se_im) for k, v in result.coefficients.items()],
        list(result.diagonal_frequencies.items()),
        [dataclasses.astuple(rec) for rec in result.records],
        result.shots,
        result.seed,
    )


class TestMatchesPairRhoVersion:
    """run_tomography on the 3x3 matrix gives the bits of the version that
    went through validated 2x2 pair matrices (kept in oracles.py)."""

    @given(
        source=st.one_of(
            st.builds(
                _heralded_cell,
                st.tuples(_UNIT, _UNIT, _UNIT),
                st.tuples(_PHASE, _PHASE, _PHASE),
                st.floats(0.0, 0.1),
            ),
            st.sampled_from([w_state(Branch.T1), rho_incoherent(), rho_biseparable()]),
            st.builds(ThreePhotonRho.from_offdiagonals, _OFF, _OFF, _OFF),
        ),
        shots=st.one_of(st.none(), st.integers(1, 100_000)),
        seed=st.integers(0, 2**64 - 1),
        diag_threshold=st.sampled_from([0.02, 1.0]),
    )
    def test_bits_equal(self, source, shots, seed, diag_threshold):
        kwargs = dict(shots=shots, seed=seed, diag_threshold=diag_threshold)
        assert _outcome(run_tomography, source, **kwargs) == _outcome(
            pair_rho_run_tomography, source, **kwargs
        )


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------


class TestExactReconstruction:
    def test_w_state_gives_uniform_thirds(self):
        for est in run_tomography(w_state(Branch.T1)).coefficients.values():
            assert est.value == pytest.approx(1 / 3, abs=1e-12)

    def test_heralded_circuit_output_matches_direct_reduction(self):
        state = _heralded_optimum()
        rho_tomo = run_tomography(state).rho
        rho_direct = reduce_to_channels(state, (2, 3, 4))
        assert trace_distance(rho_tomo, rho_direct) < 1e-12

    def test_matrix_passthrough_reproduces_input(self):
        rho_in = rho_biseparable()
        rho_out = run_tomography(rho_in).rho
        assert np.allclose(rho_out.matrix, rho_in.matrix, atol=1e-12)
        assert rho_out.matrix[0, 1] == pytest.approx(1 / 6, abs=1e-12)

    def test_incoherent_mixture_gives_zero_coherences(self):
        for est in run_tomography(rho_incoherent()).coefficients.values():
            assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_foreign_source_type(self):
        with pytest.raises(ValidationError):
            run_tomography("nope")


class TestSampledReconstruction:
    def test_w_coefficients_within_point_zero_one(self):
        result = run_tomography(w_state(Branch.T1), shots=100_000, seed=0)
        for name in ("a", "b", "c"):
            est = result.coefficients[name]
            assert abs(est.value - 1 / 3) < 0.01
        assert result.shots == 100_000
        assert len(result.records) == 6

    def test_repeat_runs_are_identical(self):
        r1 = run_tomography(w_state(Branch.T1), shots=5000, seed=11)
        r2 = run_tomography(w_state(Branch.T1), shots=5000, seed=11)
        assert np.array_equal(r1.rho.matrix, r2.rho.matrix)
        assert [rec.n_plus for rec in r1.records] == [rec.n_plus for rec in r2.records]

    def test_different_seeds_give_different_counts(self):
        r1 = run_tomography(w_state(Branch.T1), shots=5000, seed=1)
        r2 = run_tomography(w_state(Branch.T1), shots=5000, seed=2)
        assert [rec.n_plus for rec in r1.records] != [rec.n_plus for rec in r2.records]

    def test_per_setting_seeds_are_distinct(self):
        result = run_tomography(w_state(Branch.T1), shots=100, seed=0)
        seeds = [rec.seed for rec in result.records]
        assert len(set(seeds)) == len(seeds)

    def test_incoherent_mixture_coefficients_near_zero(self):
        result = run_tomography(rho_incoherent(), shots=100_000, seed=0)
        for name in ("a", "b", "c"):
            assert abs(result.coefficients[name].value) < 0.01

    def test_error_bars_scale_with_shots(self):
        small = run_tomography(w_state(Branch.T1), shots=10_000, seed=0)
        large = run_tomography(w_state(Branch.T1), shots=100_000, seed=0)
        assert large.coefficients["a"].se_im < small.coefficients["a"].se_im

    def test_low_shot_budgets_can_trip_the_uniformity_gate(self):
        # at 1000 shots the +-0.02 gate sits within sampling noise of a
        # genuinely uniform state; this seed happens to land outside it
        with pytest.raises(DiagonalsNotUniform):
            run_tomography(w_state(Branch.T1), shots=1000, seed=0)
        run_tomography(w_state(Branch.T1), shots=1000, seed=0, diag_threshold=0.1)


class TestDiagonalGate:
    def test_product_state_fails_uniformity(self):
        product = PureState({basis_from_pattern("BBR", (2, 3, 4)): 1.0})
        with pytest.raises(DiagonalsNotUniform, match="BBR=1.0000"):
            run_tomography(product)

    def test_threshold_can_be_loosened(self):
        skewed = PureState(
            {
                basis_from_pattern("BBR", (2, 3, 4)): math.sqrt(0.40),
                basis_from_pattern("BRB", (2, 3, 4)): math.sqrt(0.35),
                basis_from_pattern("RBB", (2, 3, 4)): math.sqrt(0.25),
            }
        )
        with pytest.raises(DiagonalsNotUniform):
            run_tomography(skewed)
        result = run_tomography(skewed, diag_threshold=0.2)
        assert result.diagonal_frequencies["BBR"] == pytest.approx(0.40)

    def test_fully_degenerate_state_cannot_be_conditioned(self):
        # even with the gate loosened, a single-pattern product state leaves
        # two conditioned blocks empty and the protocol reports why
        product = PureState({basis_from_pattern("BBR", (2, 3, 4)): 1.0})
        with pytest.raises(InvalidRho, match="channel 4"):
            run_tomography(product, diag_threshold=0.7)

    def test_sampled_diagonals_pass_near_uniform(self):
        result = run_tomography(w_state(Branch.T1), shots=100_000, seed=0)
        for freq in result.diagonal_frequencies.values():
            assert abs(freq - 1 / 3) < 0.02


class TestDiscrimination:
    def test_w_is_consistent(self):
        report = discriminate(run_tomography(w_state(Branch.T1)).rho)
        assert report.w_consistent
        assert report.fidelity_w == pytest.approx(1.0, abs=1e-12)
        assert report.trace_distance_to_rho_s == pytest.approx(2 / 3, abs=1e-12)
        assert report.trace_distance_to_rho_b == pytest.approx(1 / 3, abs=1e-12)

    def test_mixtures_are_rejected(self):
        for rho, fid in ((rho_incoherent(), 1 / 3), (rho_biseparable(), 2 / 3)):
            report = discriminate(run_tomography(rho).rho)
            assert not report.w_consistent
            assert report.fidelity_w == pytest.approx(fid, abs=1e-12)

    def test_threshold_controls_verdict(self):
        report = discriminate(rho_biseparable(), threshold=0.5)
        assert report.w_consistent

    def test_json_keys(self, tmp_path, capsys):
        config = tmp_path / "tomo.json"
        config.write_text(json.dumps({"state": "rho_s", "shots": 4000}))
        assert main(["tomo", "--config", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)["report"]
        assert set(doc) == {
            "fidelity_W",
            "trace_distance_to_rhoS",
            "trace_distance_to_rhoB",
            "W-consistent",
            "threshold",
        }
