"""Tests for circuit assembly, the canonical device, and JSON persistence."""

import json
import math

import numpy as np
import pytest

from wchip.circuit import (
    CANONICAL_CHANNELS,
    CircuitSpec,
    build_transform,
    canonical_w_circuit,
    circuit_from_json_dict,
    circuit_to_json_dict,
    load_circuit,
    propagate,
    save_circuit,
)
from wchip.elements import AddDropFilter, DirectionalCoupler, SourceSpec, two_pair_state
from wchip.errors import ParamOutOfRange, ValidationError
from wchip.fock import Color, FockBasisState, ModeLabel, PureState, apply_mode_transform


def test_canonical_layout():
    spec = canonical_w_circuit(0.5, 0.6, 0.7)
    assert spec.channels == CANONICAL_CHANNELS
    assert len(spec.elements) == 5
    crossing = spec.elements[2]
    assert isinstance(crossing, DirectionalCoupler)
    assert crossing.r == 1.0 and crossing.t == 0.0
    router = spec.elements[4]
    assert isinstance(router, AddDropFilter)
    assert router.resonant_color is Color.BLUE


def test_canonical_gates_reflectivities():
    with pytest.raises(ParamOutOfRange):
        canonical_w_circuit(1.5, 0.5, 0.5)


def test_build_transform_is_unitary():
    rng = np.random.default_rng(17)
    for _ in range(10):
        r1, r2, r3 = rng.uniform(0.05, 0.95, size=3)
        phi = rng.uniform(-math.pi, math.pi, size=3)
        spec = canonical_w_circuit(r1, r2, r3, *phi, ad2_extinction=float(rng.uniform(0, 1)))
        assert build_transform(spec).unitarity_deviation() < 1e-12


def test_build_transform_equals_elementwise_application():
    from wchip.elements import adddrop_transform, coupler_transform

    spec = canonical_w_circuit(0.3, 0.5, 0.8, 0.2, -0.4, 1.1)
    fused = build_transform(spec)
    state = two_pair_state(0)
    stepped = state
    modes = spec.mode_list()
    for el in spec.elements:
        sub = coupler_transform(el) if isinstance(el, DirectionalCoupler) else adddrop_transform(el)
        stepped = apply_mode_transform(stepped, sub.embedded(modes))
    direct = apply_mode_transform(state, fused)
    for basis, _ in direct.items():
        assert abs(direct.amplitude(basis) - stepped.amplitude(basis)) < 1e-12
    assert len(direct) == len(stepped)


def test_idle_couplers_route_everything_to_channel_three():
    # with no tap-offs the double pair just rides DC1/DC2 and gets relabeled
    # onto channel 3 by the crossing
    spec = canonical_w_circuit(0.0, 0.0, 0.0)
    out = apply_mode_transform(two_pair_state(0), build_transform(spec))
    target = FockBasisState([(ModeLabel(3, Color.BLUE), 2), (ModeLabel(3, Color.RED), 2)])
    assert out.amplitude(target) == pytest.approx(1.0)
    assert len(out) == 1


def test_terminal_phases_multiply_per_channel():
    base = CircuitSpec(("a", "b"), (DirectionalCoupler.from_reflectivity((0, 1), 0.6),))
    phased = CircuitSpec(base.channels, base.elements, (0.0, 0.9))
    photon = PureState.basis(FockBasisState.single(ModeLabel(0, Color.BLUE)))
    out0 = apply_mode_transform(photon, build_transform(base))
    out1 = apply_mode_transform(photon, build_transform(phased))
    b0 = FockBasisState.single(ModeLabel(0, Color.BLUE))
    b1 = FockBasisState.single(ModeLabel(1, Color.BLUE))
    assert out1.amplitude(b0) == pytest.approx(out0.amplitude(b0))
    assert out1.amplitude(b1) == pytest.approx(out0.amplitude(b1) * np.exp(0.9j))


class TestValidation:
    def test_empty_registry(self):
        with pytest.raises(ValidationError):
            CircuitSpec(())

    def test_duplicate_channel_names(self):
        with pytest.raises(ValidationError):
            CircuitSpec(("x", "x"))

    def test_unregistered_element_channel_names_index(self):
        dc = DirectionalCoupler.from_reflectivity((0, 7), 0.5)
        with pytest.raises(ValidationError, match="element 0"):
            CircuitSpec(("a", "b"), (dc,))

    def test_phase_count_mismatch(self):
        with pytest.raises(ValidationError, match="phases"):
            CircuitSpec(("a", "b"), (), (0.1,))

    def test_non_finite_phase(self):
        with pytest.raises(ValidationError, match="finite"):
            CircuitSpec(("a", "b"), (), (0.1, float("nan")))

    def test_foreign_element_type(self):
        with pytest.raises(ValidationError, match="unsupported"):
            CircuitSpec(("a",), ("not an element",))


class TestJson:
    def test_roundtrip_preserves_spec(self):
        spec = canonical_w_circuit(0.5, 0.6, 0.7, phi1=0.2, phi3=-1.0, ad2_extinction=0.05)
        doc = circuit_to_json_dict(spec, SourceSpec(0, 0.1 + 0.2j))
        spec2, source = circuit_from_json_dict(doc)
        assert spec2 == spec
        assert source == SourceSpec(0, 0.1 + 0.2j)

    def test_complex_beta_encoding(self):
        doc = circuit_to_json_dict(canonical_w_circuit(0.5, 0.5, 0.5), SourceSpec(0, 0.1j))
        assert doc["source"]["beta"] == [0.0, 0.1]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "circ.json"
        spec = canonical_w_circuit(0.4, 0.5, 0.6)
        save_circuit(path, spec, SourceSpec(0, 0.2))
        spec2, source = load_circuit(path)
        assert spec2 == spec
        assert source.beta == 0.2
        # deterministic bytes: sorted keys, trailing newline
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_coupler_requires_reflectivity(self):
        doc = {
            "channels": ["a", "b"],
            "elements": [{"type": "coupler", "channels": ["a", "b"]}],
        }
        with pytest.raises(ValidationError, match="element 0"):
            circuit_from_json_dict(doc)

    def test_unknown_channel_label(self):
        doc = {
            "channels": ["a", "b"],
            "elements": [{"type": "coupler", "channels": ["a", "z"], "r": 0.5}],
        }
        with pytest.raises(ValidationError, match="unregistered"):
            circuit_from_json_dict(doc)

    def test_unknown_element_type(self):
        doc = {"channels": ["a"], "elements": [{"type": "lens"}]}
        with pytest.raises(ValidationError, match="unknown element type"):
            circuit_from_json_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            load_circuit(path)


def test_propagate_vacuum_source_stays_vacuum():
    spec = canonical_w_circuit(0.5, 0.5, 0.5)
    out = propagate(SourceSpec(0, 0.0), spec)
    assert out.amplitude(FockBasisState.vacuum()) == pytest.approx(1.0)
    assert len(out) == 1
