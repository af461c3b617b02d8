"""Tests for the optical-element transforms and the pair source."""

import cmath
import math

import numpy as np
import pytest

from wchip.elements import (
    AddDropFilter,
    DirectionalCoupler,
    SourceSpec,
    adddrop_transform,
    coupler_transform,
    phase_transform,
    source_state,
    two_pair_state,
)
from wchip.errors import ChannelCollision, NotUnitary, OrderOutOfRange, ParamOutOfRange
from wchip.fock import Color, FockBasisState, ModeLabel, PureState, apply_mode_transform


class TestDirectionalCoupler:
    def test_from_reflectivity_closes_energy(self):
        dc = DirectionalCoupler.from_reflectivity((0, 1), 0.3)
        assert dc.r**2 + dc.t**2 == pytest.approx(1.0)

    def test_rejects_same_channel_twice(self):
        with pytest.raises(ChannelCollision):
            DirectionalCoupler((2, 2), 0.5, math.sqrt(0.75))

    def test_rejects_out_of_range_reflectivity(self):
        with pytest.raises(ParamOutOfRange):
            DirectionalCoupler.from_reflectivity((0, 1), 1.2)

    def test_rejects_broken_energy_closure(self):
        with pytest.raises(NotUnitary):
            DirectionalCoupler((0, 1), 1.0, 1.0)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ParamOutOfRange, match="finite"):
            DirectionalCoupler.from_reflectivity((0, 1), 0.5, math.nan)

    def test_transform_is_unitary_for_any_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            r = float(rng.uniform(0, 1))
            phi = float(rng.uniform(-math.pi, math.pi))
            xf = coupler_transform(DirectionalCoupler.from_reflectivity((0, 1), r, phi))
            assert xf.unitarity_deviation() < 1e-12

    def test_symmetric_form_at_quarter_phase(self):
        # at phi = pi/2 the cross terms coincide: [[t, ir], [ir, t]]
        dc = DirectionalCoupler.from_reflectivity((0, 1), 0.6, math.pi / 2)
        xf = coupler_transform(dc)
        blue = [ModeLabel(0, Color.BLUE), ModeLabel(1, Color.BLUE)]
        i0, i1 = (xf.modes.index(m) for m in blue)
        assert xf.matrix[i0, i1] == pytest.approx(0.6j)
        assert xf.matrix[i1, i0] == pytest.approx(0.6j)
        assert xf.matrix[i0, i0] == pytest.approx(0.8)

    def test_channel_exchange_transposes_matrix(self):
        fwd = coupler_transform(DirectionalCoupler.from_reflectivity((0, 1), 0.43, 0.7))
        rev = coupler_transform(DirectionalCoupler.from_reflectivity((1, 0), 0.43, 0.7))
        assert np.allclose(rev.matrix, fwd.matrix.T)

    def test_colors_never_mix(self):
        xf = coupler_transform(DirectionalCoupler.from_reflectivity((0, 1), 0.5, 0.2))
        for i, mi in enumerate(xf.modes):
            for j, mj in enumerate(xf.modes):
                if mi.color != mj.color:
                    assert xf.matrix[i, j] == 0.0


class TestAddDropFilter:
    def _filter(self, eps=0.0):
        return AddDropFilter(1, 5, 6, Color.BLUE, eps)

    def test_rejects_repeated_channels(self):
        with pytest.raises(ChannelCollision):
            AddDropFilter(1, 1, 6, Color.BLUE)

    def test_rejects_bad_extinction(self):
        with pytest.raises(ParamOutOfRange):
            AddDropFilter(1, 5, 6, Color.BLUE, extinction=-0.1)

    def test_ideal_routing(self):
        xf = adddrop_transform(self._filter())
        blue_in = PureState.basis(FockBasisState.single(ModeLabel(1, Color.BLUE)))
        red_in = PureState.basis(FockBasisState.single(ModeLabel(1, Color.RED)))
        out_b = apply_mode_transform(blue_in, xf)
        out_r = apply_mode_transform(red_in, xf)
        # resonant blue photon drops to channel 6, red sails through to 5
        assert out_b.amplitude(FockBasisState.single(ModeLabel(6, Color.BLUE))) == pytest.approx(1.0)
        assert out_r.amplitude(FockBasisState.single(ModeLabel(5, Color.RED))) == pytest.approx(1.0)

    def test_extinction_leaks_resonant_photon(self):
        eps = 0.2
        xf = adddrop_transform(self._filter(eps))
        blue_in = PureState.basis(FockBasisState.single(ModeLabel(1, Color.BLUE)))
        out = apply_mode_transform(blue_in, xf)
        leak = out.amplitude(FockBasisState.single(ModeLabel(5, Color.BLUE)))
        drop = out.amplitude(FockBasisState.single(ModeLabel(6, Color.BLUE)))
        assert abs(leak) ** 2 == pytest.approx(eps)
        assert abs(drop) ** 2 == pytest.approx(1.0 - eps)

    def test_unitary_at_every_extinction(self):
        for eps in (0.0, 1e-6, 0.3, 0.9999, 1.0):
            xf = adddrop_transform(self._filter(eps))
            assert xf.unitarity_deviation() < 1e-12


def test_phase_transform_multiplies_amplitude():
    xf = phase_transform(3, 0.8)
    photon = PureState.basis(FockBasisState.single(ModeLabel(3, Color.RED)))
    out = apply_mode_transform(photon, xf)
    assert out.amplitude(FockBasisState.single(ModeLabel(3, Color.RED))) == pytest.approx(
        cmath.exp(0.8j)
    )


class TestSource:
    def test_beta_magnitude_is_gated(self):
        with pytest.raises(ParamOutOfRange):
            SourceSpec(0, 1.2)

    @pytest.mark.parametrize("beta", [math.nan, complex(0.1, math.inf)])
    def test_non_finite_beta_is_rejected(self, beta):
        with pytest.raises(ParamOutOfRange, match="finite"):
            SourceSpec(0, beta)

    def test_max_order_is_gated(self):
        with pytest.raises(OrderOutOfRange):
            SourceSpec(0, 0.1, max_order=3)

    def test_expansion_amplitudes(self):
        beta = 0.2
        state = source_state(SourceSpec(0, beta))
        vac = FockBasisState.vacuum()
        pair = FockBasisState([(ModeLabel(0, Color.RED), 1), (ModeLabel(0, Color.BLUE), 1)])
        double = FockBasisState([(ModeLabel(0, Color.RED), 2), (ModeLabel(0, Color.BLUE), 2)])
        assert state.amplitude(vac) == pytest.approx(1 - beta**2 / 2)
        assert state.amplitude(pair) == pytest.approx(beta)
        # the double emission: expansion weight beta^2/2 times the explicit
        # amplitude 2 of the squared pair-creation operator
        assert state.amplitude(double) == pytest.approx(beta**2)

    def test_truncation_orders(self):
        assert len(source_state(SourceSpec(0, 0.1, max_order=0))) == 1
        assert len(source_state(SourceSpec(0, 0.1, max_order=1))) == 2
        assert len(source_state(SourceSpec(0, 0.1, max_order=2))) == 3

    def test_four_photon_sector_is_scaled_two_pair_state(self):
        beta = 0.13
        full = source_state(SourceSpec(0, beta))
        reference = two_pair_state(0)
        for basis, _ in reference.items():
            assert full.amplitude(basis) == pytest.approx(
                beta**2 * reference.amplitude(basis)
            )

    def test_two_pair_state_is_normalized(self):
        assert two_pair_state(0).norm() == pytest.approx(1.0)
