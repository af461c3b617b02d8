"""Tests for the conditioned-pair tomography protocol.

The heavy check is the dual route: run_tomography with exact
probabilities must reproduce the directly reduced density matrix, and the
finite-shot path must converge to it with the advertised binomial error.
"""

import math

import numpy as np
import pytest

from wchip.circuit import build_transform, canonical_w_circuit
from wchip.density import PairRho, ThreePhotonRho, trace_distance
from wchip.elements import two_pair_state
from wchip.errors import (
    BadProbability,
    DiagonalsNotUniform,
    InvalidRho,
    ParamOutOfRange,
    ValidationError,
)
from wchip.fock import Color, PureState, apply_mode_transform, basis_from_pattern, reduce_to_channels
from wchip.herald import Branch, herald, rho_biseparable, rho_incoherent, w_state
from wchip.tomography import (
    MeasurementRecord,
    TomoSetting,
    condition_on_blue,
    discriminate,
    run_tomography,
    sample_record,
    setting_probabilities,
    setting_seed,
)

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


def test_setting_rejects_conditioning_inside_the_pair():
    with pytest.raises(ValidationError):
        TomoSetting((2, 4), 0.0, (2, Color.BLUE))


def test_record_counts_must_sum_to_shots():
    with pytest.raises(ValidationError):
        MeasurementRecord(None, 3, 4, 10, 0)


def test_setting_probabilities_on_w_pair():
    pair = condition_on_blue(ThreePhotonRho.from_offdiagonals(1 / 3, 1 / 3, 1 / 3), 2)
    p0 = setting_probabilities(pair, 0.0)
    p90 = setting_probabilities(pair, math.pi / 2)
    assert p0[0] == pytest.approx(1.0, abs=1e-12)
    assert p90[0] == pytest.approx(0.5, abs=1e-12)
    assert p0[0] + p0[1] == pytest.approx(1.0)


def test_setting_probabilities_rejects_unphysical_pair():
    bad = PairRho(np.array([[0.5, 0.6], [0.6, 0.5]]))
    with pytest.raises(InvalidRho):
        setting_probabilities(bad, 0.0)


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_record((0.7, 0.3), 1000, 5)
        b = sample_record((0.7, 0.3), 1000, 5)
        c = sample_record((0.7, 0.3), 1000, 6)
        assert a.n_plus == b.n_plus
        assert a.n_plus != c.n_plus or a.seed != c.seed

    def test_frequency_converges(self):
        rec = sample_record((0.7, 0.3), 200_000, 123)
        sigma = math.sqrt(0.7 * 0.3 / 200_000)
        assert abs(rec.frequency - 0.7) < 5 * sigma

    def test_probability_gates(self):
        with pytest.raises(BadProbability):
            sample_record((0.7, 0.7), 10, 0)
        with pytest.raises(BadProbability):
            sample_record((1.2, -0.2), 10, 0)
        with pytest.raises(ParamOutOfRange):
            sample_record((0.5, 0.5), 0, 0)


def test_condition_on_blue_blocks():
    w = ThreePhotonRho.from_offdiagonals(1 / 3, 1 / 3, 1 / 3)
    pair = condition_on_blue(w, 2)
    assert np.allclose(pair.matrix, np.full((2, 2), 0.5))
    flat = condition_on_blue(rho_incoherent(), 3)
    assert np.allclose(flat.matrix, np.eye(2) / 2)
    with pytest.raises(ParamOutOfRange):
        condition_on_blue(w, 5)


def test_condition_on_blue_needs_population():
    rho = ThreePhotonRho(np.diag([0.0, 0.0, 1.0]).astype(complex))
    # a blue photon in channel 2 only appears in BBR/BRB, both empty here
    with pytest.raises(InvalidRho):
        condition_on_blue(rho, 2)


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------


class TestExactReconstruction:
    def test_w_state_gives_uniform_thirds(self):
        rho = run_tomography(w_state(Branch.T1)).rho
        for coeff in (rho.a, rho.b, rho.c):
            assert coeff == pytest.approx(1 / 3, abs=1e-12)

    def test_heralded_circuit_output_matches_direct_reduction(self):
        state = _heralded_optimum()
        rho_tomo = run_tomography(state).rho
        rho_direct = reduce_to_channels(state, (2, 3, 4))
        assert trace_distance(rho_tomo, rho_direct) < 1e-12

    def test_matrix_passthrough_reproduces_input(self):
        rho_in = rho_biseparable()
        rho_out = run_tomography(rho_in).rho
        assert np.allclose(rho_out.matrix, rho_in.matrix, atol=1e-12)
        assert rho_out.a == pytest.approx(1 / 6, abs=1e-12)

    def test_incoherent_mixture_gives_zero_coherences(self):
        rho = run_tomography(rho_incoherent()).rho
        for coeff in (rho.a, rho.b, rho.c):
            assert coeff == pytest.approx(0.0, abs=1e-12)

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
        product = PureState.basis(basis_from_pattern("BBR", (2, 3, 4)))
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
        product = PureState.basis(basis_from_pattern("BBR", (2, 3, 4)))
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

    def test_json_keys(self):
        doc = discriminate(rho_incoherent()).as_json_dict()
        assert set(doc) == {
            "fidelity_W",
            "trace_distance_to_rhoS",
            "trace_distance_to_rhoB",
            "W-consistent",
            "threshold",
        }
