"""Tests for the optical-element transforms and the pair source."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wchip.circuit import CANONICAL_CHANNELS, CircuitSpec, build_transform, canonical_w_circuit
from wchip.elements import (
    AddDropFilter,
    DirectionalCoupler,
    SourceSpec,
    adddrop_transform,
    coupler_transform,
    source_state,
    two_pair_state,
)
import wchip.elements
from wchip.errors import ChannelCollision, NotUnitary, OrderOutOfRange, ParamOutOfRange
from wchip.fock import Color, FockBasisState, ModeLabel, PureState, apply_mode_transform

from oracles import uncached_build_transform, uncached_element_transform


# Up to 50 couplers, each (channel pair of the canonical registry, r, phi).
_CHANNEL = st.integers(0, len(CANONICAL_CHANNELS) - 1)
_COUPLER_CHAIN = st.lists(
    st.tuples(
        st.lists(_CHANNEL, min_size=2, max_size=2, unique=True),
        st.floats(0.0, 1.0),
        st.floats(-4.0, 4.0),
    ),
    min_size=1,
    max_size=50,
)


class TestDirectionalCoupler:
    def test_transmission_closes_energy(self):
        dc = DirectionalCoupler((0, 1), 0.3)
        assert dc.r**2 + dc.t**2 == pytest.approx(1.0)

    def test_rejects_same_channel_twice(self):
        with pytest.raises(ChannelCollision):
            DirectionalCoupler((2, 2), 0.5)

    def test_rejects_out_of_range_reflectivity(self):
        with pytest.raises(ParamOutOfRange):
            DirectionalCoupler((0, 1), 1.2)

    def test_rejects_a_non_integer_channel(self):
        # int() would truncate it and build the coupler on channels (0, 1)
        with pytest.raises(ParamOutOfRange, match="channel index must be an integer, got 1.9"):
            DirectionalCoupler((0, 1.9), 0.3)
        assert DirectionalCoupler((np.int64(2), 1), 0.3).channels == (2, 1)

    def test_stores_negative_zeros_as_zero(self):
        dc = DirectionalCoupler((0, 1), -0.0, phi=-0.0)
        assert math.copysign(1.0, dc.r) == math.copysign(1.0, dc.phi) == 1.0

    def test_a_transmission_argument_is_a_type_error(self):
        # t is derived from r, and phi is keyword-only, so an old
        # (channels, r, t) call can never read t as a phase
        with pytest.raises(TypeError):
            DirectionalCoupler((0, 1), 1.0, 1.0)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ParamOutOfRange, match="finite"):
            DirectionalCoupler((0, 1), 0.5, phi=math.nan)

    def test_transform_is_unitary_for_any_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            r = float(rng.uniform(0, 1))
            phi = float(rng.uniform(-math.pi, math.pi))
            xf = coupler_transform(DirectionalCoupler((0, 1), r, phi=phi))
            assert xf.unitarity_deviation() < 1e-12

    def test_symmetric_form_at_quarter_phase(self):
        # at phi = pi/2 the cross terms coincide: [[t, ir], [ir, t]]
        dc = DirectionalCoupler((0, 1), 0.6, phi=math.pi / 2)
        xf = coupler_transform(dc)
        blue = [ModeLabel(0, Color.BLUE), ModeLabel(1, Color.BLUE)]
        i0, i1 = (xf.modes.index(m) for m in blue)
        assert xf.matrix[i0, i1] == pytest.approx(0.6j)
        assert xf.matrix[i1, i0] == pytest.approx(0.6j)
        assert xf.matrix[i0, i0] == pytest.approx(0.8)

    def test_channel_exchange_transposes_matrix(self):
        fwd = coupler_transform(DirectionalCoupler((0, 1), 0.43, phi=0.7))
        rev = coupler_transform(DirectionalCoupler((1, 0), 0.43, phi=0.7))
        assert np.allclose(rev.matrix, fwd.matrix.T)

    def test_colors_never_mix(self):
        xf = coupler_transform(DirectionalCoupler((0, 1), 0.5, phi=0.2))
        for i, mi in enumerate(xf.modes):
            for j, mj in enumerate(xf.modes):
                if mi.color != mj.color:
                    assert xf.matrix[i, j] == 0.0


    @given(_COUPLER_CHAIN)
    def test_any_chain_of_accepted_couplers_builds(self, chain):
        couplers = tuple(DirectionalCoupler(pair, r, phi=phi) for pair, r, phi in chain)
        for dc in couplers:
            assert dc.t.hex() == wchip.elements.transmission(dc.r).hex()
        transform = build_transform(CircuitSpec(CANONICAL_CHANNELS, couplers))
        assert transform.unitarity_deviation() <= 1e-9

    @pytest.mark.parametrize("r", [0.0, -0.0, 1e-300, 0.3, 0.5, 1.0 - 1e-16, 1.0, 1.5, -2.0])
    def test_float_transmission_equals_the_array_branch(self, r):
        t = wchip.elements.transmission(r)
        assert type(t) is float
        assert t.hex() == float(wchip.elements.transmission(np.array([r]))[0]).hex()


class TestAddDropFilter:
    def _filter(self, eps=0.0):
        return AddDropFilter(1, 5, 6, Color.BLUE, eps)

    def test_rejects_repeated_channels(self):
        with pytest.raises(ChannelCollision):
            AddDropFilter(1, 1, 6, Color.BLUE)

    def test_rejects_bad_extinction(self):
        with pytest.raises(ParamOutOfRange):
            AddDropFilter(1, 5, 6, Color.BLUE, extinction=-0.1)

    def test_rejects_a_non_integer_channel(self):
        # int() would truncate it and route to channel 5
        with pytest.raises(ParamOutOfRange, match="channel index must be an integer, got 5.7"):
            AddDropFilter(1, 5.7, 6, Color.BLUE)

    def test_stores_a_negative_zero_extinction_as_zero(self):
        assert math.copysign(1.0, AddDropFilter(1, 5, 6, Color.BLUE, -0.0).extinction) == 1.0

    def test_ideal_routing(self):
        xf = adddrop_transform(self._filter())
        blue_in = PureState({FockBasisState([(ModeLabel(1, Color.BLUE), 1)]): 1.0})
        red_in = PureState({FockBasisState([(ModeLabel(1, Color.RED), 1)]): 1.0})
        out_b = apply_mode_transform(blue_in, xf)
        out_r = apply_mode_transform(red_in, xf)
        # resonant blue photon drops to channel 6, red sails through to 5
        assert out_b.amplitude(FockBasisState([(ModeLabel(6, Color.BLUE), 1)])) == pytest.approx(1.0)
        assert out_r.amplitude(FockBasisState([(ModeLabel(5, Color.RED), 1)])) == pytest.approx(1.0)

    def test_extinction_leaks_resonant_photon(self):
        eps = 0.2
        xf = adddrop_transform(self._filter(eps))
        blue_in = PureState({FockBasisState([(ModeLabel(1, Color.BLUE), 1)]): 1.0})
        out = apply_mode_transform(blue_in, xf)
        leak = out.amplitude(FockBasisState([(ModeLabel(5, Color.BLUE), 1)]))
        drop = out.amplitude(FockBasisState([(ModeLabel(6, Color.BLUE), 1)]))
        assert abs(leak) ** 2 == pytest.approx(eps)
        assert abs(drop) ** 2 == pytest.approx(1.0 - eps)

    def test_unitary_at_every_extinction(self):
        for eps in (0.0, 1e-6, 0.3, 0.9999, 1.0):
            xf = adddrop_transform(self._filter(eps))
            assert xf.unitarity_deviation() < 1e-12


def _bits(transform):
    return transform.modes, transform.matrix.tobytes()


def _clear_memos():
    coupler_transform.cache_clear()
    adddrop_transform.cache_clear()


# Exact zeros and ones with both signs of zero, and arbitrary values.
_UNIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
_PHASE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))


class TestMemo:
    """The element transforms are memoised by the element itself, in
    bounded memos of read-only matrices."""

    @pytest.mark.parametrize(
        "plus, minus",
        [
            (AddDropFilter(1, 5, 6, Color.BLUE, 0.0), AddDropFilter(1, 5, 6, Color.BLUE, -0.0)),
            (DirectionalCoupler((0, 1), 0.0), DirectionalCoupler((0, 1), -0.0)),
        ],
        ids=["extinction", "coupler-r"],
    )
    def test_negative_zero_after_its_twin_equals_its_fresh_build(self, plus, minus):
        transform = adddrop_transform if isinstance(plus, AddDropFilter) else coupler_transform
        _clear_memos()
        # the constructor reads -0.0 as 0.0, so the twins share one entry
        assert plus == minus and hash(plus) == hash(minus)
        first = transform(plus)
        second = transform(minus)
        assert second is first
        assert _bits(second) == _bits(uncached_element_transform(minus))
        assert _bits(first) == _bits(uncached_element_transform(plus))

    def test_memo_never_holds_more_than_its_bound(self):
        bound = wchip.elements.MEMO_SIZE
        for memo in (coupler_transform, adddrop_transform):
            assert memo.cache_info().maxsize == bound
        for k in range(bound + 40):
            eps = k / (bound + 40)
            dc = DirectionalCoupler((0, 1), eps, phi=0.5)
            ad = AddDropFilter(1, 5, 6, Color.RED, eps)
            assert _bits(coupler_transform(dc)) == _bits(uncached_element_transform(dc))
            assert _bits(adddrop_transform(ad)) == _bits(uncached_element_transform(ad))
            for memo in (coupler_transform, adddrop_transform):
                assert memo.cache_info().currsize <= bound

    @given(_UNIT, _PHASE, _UNIT, st.sampled_from(Color))
    def test_signed_zero_twins_build_one_transform(self, r, phi, eps, color):
        def twin(x):  # flips the sign of a zero, keeps any other value
            return -x if x == 0.0 else x

        pairs = (
            (coupler_transform, DirectionalCoupler((3, 1), r, phi=phi),
             DirectionalCoupler((3, 1), twin(r), phi=twin(phi))),
            (adddrop_transform, AddDropFilter(1, 5, 6, color, eps),
             AddDropFilter(1, 5, 6, color, twin(eps))),
        )
        for transform, element, other in pairs:
            # repr writes each float's sign and bits, so the twins store alike
            assert repr(other) == repr(element)
            builds = []
            for first, second in ((other, element), (element, other)):
                _clear_memos()
                builds += [transform(first), transform(second)]
            expected = _bits(uncached_element_transform(element))
            assert _bits(uncached_element_transform(other)) == expected
            assert [_bits(build) for build in builds] == [expected] * 4

    def test_writing_to_a_memoised_matrix_raises(self):
        xf = coupler_transform(DirectionalCoupler((0, 1), 0.37, phi=0.2))
        with pytest.raises(ValueError, match="read-only"):
            xf.matrix[0, 0] = 2.0
        ad = adddrop_transform(AddDropFilter(1, 5, 6, Color.BLUE, 0.01))
        with pytest.raises(ValueError, match="read-only"):
            ad.matrix[:] = 0.0
        assert coupler_transform(
            DirectionalCoupler((0, 1), 0.37, phi=0.2)
        ).matrix[0, 0] == xf.matrix[0, 0]


def _assert_builds_like_the_oracle(spec):
    """Each element's transform and the circuit's, built afresh, have the
    modes and matrix bits of the uncached builds in oracles.py."""
    _clear_memos()
    for element in spec.elements:
        transform = (
            coupler_transform(element)
            if isinstance(element, DirectionalCoupler)
            else adddrop_transform(element)
        )
        assert _bits(transform) == _bits(uncached_element_transform(element))
    assert _bits(build_transform(spec)) == _bits(uncached_build_transform(spec))


class TestScalarBlocks:
    """Each element's matrix is written from blocks of Python numbers, with
    the bits of the numpy-scalar blocks it was written from before, and
    every transform is still checked for unitarity."""

    @given(st.tuples(_UNIT, _UNIT, _UNIT), st.tuples(_PHASE, _PHASE, _PHASE), _UNIT)
    def test_canonical_circuits_keep_their_bits(self, r, phi, extinction):
        _assert_builds_like_the_oracle(canonical_w_circuit(*r, *phi, ad2_extinction=extinction))

    @given(_UNIT, _PHASE, _UNIT, _PHASE, _UNIT, st.sampled_from(Color))
    def test_descending_channels_keep_their_bits(self, r1, phi1, r2, phi2, extinction, color):
        # every element lists its channels in descending order, so each
        # transform reorders its modes into the canonical order
        spec = CircuitSpec(
            ("a", "b", "c", "d", "e"),
            (
                DirectionalCoupler((3, 1), r1, phi=phi1),
                AddDropFilter(4, 2, 0, color, extinction),
                DirectionalCoupler((4, 0), r2, phi=phi2),
            ),
        )
        _assert_builds_like_the_oracle(spec)

    def test_a_block_off_unitarity_by_2e_9_is_not_built(self):
        # A coupler's t is derived from r, so the off-unitary block goes to
        # the memo's builder directly.
        def block(off):
            t = math.sqrt(1.0 - 0.6 * 0.6 + off)
            cross = complex(0.6) * cmath.exp(0.3j)
            return ((t, cross), (-cross.conjugate(), t))

        with pytest.raises(NotUnitary, match=r"deviates from unitarity by 2e-09"):
            wchip.elements._color_blocks((0, 1), (block(2e-9),) * 2)
        # half the tolerance off still builds
        transform = wchip.elements._color_blocks((0, 1), (block(5e-10),) * 2)
        assert 4e-10 < transform.unitarity_deviation() <= 1e-9


class TestSource:
    def test_huge_finite_beta_is_gated_without_overflow(self):
        for beta in (1e200, complex(1e308, 1e308)):
            with pytest.raises(ParamOutOfRange):
                SourceSpec(0, beta)

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

    def test_a_non_integer_max_order_is_gated(self):
        # int() would truncate 2.7 to 2
        for order in (2.7, True):
            with pytest.raises(OrderOutOfRange, match=f"got {order}"):
                SourceSpec(0, 0.1, max_order=order)
        assert SourceSpec(0, 0.1, max_order=np.int64(1)).max_order == 1

    def test_rejects_a_non_integer_channel(self):
        # int() would truncate it and emit into channel 0
        for channel in (0.9, True):
            with pytest.raises(ParamOutOfRange, match=f"must be an integer, got {channel}"):
                SourceSpec(channel=channel, beta=0.1)

    def test_expansion_amplitudes(self):
        beta = 0.2
        state = source_state(SourceSpec(0, beta))
        vac = FockBasisState()
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
        assert two_pair_state(0).norm_sq() == pytest.approx(1.0)
