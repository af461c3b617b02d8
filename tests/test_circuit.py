"""Tests for circuit assembly, the canonical device, and JSON persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wchip.circuit
from wchip.circuit import (
    CANONICAL_CHANNELS,
    CircuitSpec,
    build_transform,
    canonical_w_circuit,
    circuit_from_json_dict,
    circuit_to_json_dict,
    load_circuit,
    propagate,
)
from wchip.elements import (
    AddDropFilter,
    DirectionalCoupler,
    SourceSpec,
    source_state,
    two_pair_state,
)
from wchip.errors import ParamOutOfRange, ValidationError
from wchip.fock import Color, FockBasisState, ModeLabel, ModeTransform, PureState, apply_mode_transform

from oracles import eager_apply_mode_transform, uncached_build_transform


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
    modes = fused.modes
    for el in spec.elements:
        sub = coupler_transform(el) if isinstance(el, DirectionalCoupler) else adddrop_transform(el)
        # the element acts on its own modes and as identity on the rest
        idx = [modes.index(m) for m in sub.modes]
        full = np.eye(len(modes), dtype=complex)
        full[np.ix_(idx, idx)] = sub.matrix
        stepped = apply_mode_transform(stepped, ModeTransform(modes, full))
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
    base = CircuitSpec(("a", "b"), (DirectionalCoupler((0, 1), 0.6),))
    phased = CircuitSpec(base.channels, base.elements, (0.0, 0.9))
    photon = PureState({FockBasisState([(ModeLabel(0, Color.BLUE), 1)]): 1.0})
    out0 = apply_mode_transform(photon, build_transform(base))
    out1 = apply_mode_transform(photon, build_transform(phased))
    b0 = FockBasisState([(ModeLabel(0, Color.BLUE), 1)])
    b1 = FockBasisState([(ModeLabel(1, Color.BLUE), 1)])
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
        dc = DirectionalCoupler((0, 7), 0.5)
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
        path.write_text(json.dumps(circuit_to_json_dict(spec, SourceSpec(0, 0.2))))
        spec2, source = load_circuit(path)
        assert spec2 == spec
        assert source.beta == 0.2

    def test_source_names_its_channel(self):
        spec = CircuitSpec(("in", "tap", "out"))
        doc = circuit_to_json_dict(spec, SourceSpec(2, 0.1))
        assert doc["source"]["channel"] == "out"
        assert circuit_from_json_dict(doc)[1] == SourceSpec(2, 0.1)
        # a source without a channel sits on the first registered one
        assert circuit_from_json_dict({"channels": ["in", "tap"], "source": {}})[1].channel == 0
        with pytest.raises(ValidationError, match="field 'source': expected an object"):
            circuit_from_json_dict({"channels": ["in"], "source": None})
        with pytest.raises(ValidationError, match="source channel 3"):
            circuit_to_json_dict(spec, SourceSpec(3, 0.1))

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

    def test_every_written_key_is_read_back(self, tmp_path):
        spec = CircuitSpec(
            ("in", "tap", "out", "x"),
            (
                DirectionalCoupler((0, 1), 0.3, phi=-0.0),
                AddDropFilter(1, 2, 3, Color.RED, extinction=0.25),
                DirectionalCoupler((2, 0), 0.8, phi=1.1),
            ),
            (0.0, -0.4, 0.1, 2.0),
        )
        source = SourceSpec(0, 0.05 - 0.02j, max_order=1)
        doc = circuit_to_json_dict(spec, source)
        # every key of the format table is written, beside the registry and phases
        table = wchip.circuit._FORMAT
        assert set(doc) == {"channels", "elements", "phases", "source"}
        assert set(doc["source"]) == set(table[SourceSpec][1])
        assert {element["type"] for element in doc["elements"]} == {"coupler", "adddrop"}
        for element, el in zip(doc["elements"], spec.elements):
            assert element["type"] == table[type(el)][0]
            assert set(element) == {"type", *table[type(el)][1]}
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(doc))
        spec2, source2 = load_circuit(path)
        assert (spec2, source2) == (spec, source)
        # the coupler stored phi = -0.0 as 0.0, so the file holds 0.0
        assert doc["elements"][0]["phi"] == 0.0
        assert math.copysign(1.0, spec2.elements[0].phi) == 1.0


def _canonical_doc():
    return circuit_to_json_dict(
        canonical_w_circuit(0.5, 0.6, 0.7, ad2_extinction=0.05), SourceSpec(0, 0.1)
    )


class TestStrictCircuitFiles:
    """A circuit file holds only the keys circuit_to_json_dict writes, a
    registry of distinct name strings, and string channel references."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(sourse=doc.pop("source")),
            lambda doc: doc.update(comment="x"),
            lambda doc: doc["elements"][0].update(reflectivity=0.5),
            lambda doc: doc["elements"][4].update(extintion=doc["elements"][4].pop("extinction")),
            lambda doc: doc["source"].update(chanel=0),
        ],
        ids=["top-level-misspelt", "top-level-extra", "coupler", "adddrop", "source"],
    )
    def test_unknown_key(self, edit):
        doc = _canonical_doc()
        edit(doc)
        with pytest.raises(ValidationError, match="unknown key"):
            circuit_from_json_dict(doc)

    @pytest.mark.parametrize("name", ["Blue", "Red"])
    def test_resonant_color_names_round_trip(self, name):
        doc = _canonical_doc()
        doc["elements"][4]["resonant_color"] = name
        spec, _ = circuit_from_json_dict(doc)
        assert circuit_to_json_dict(spec)["elements"][4]["resonant_color"] == name

    @pytest.mark.parametrize("name", ["bogus", "blue", "R", "Rouge", "", 1, None, ["Red"]])
    def test_resonant_color_is_blue_or_red(self, name):
        doc = _canonical_doc()
        doc["elements"][4]["resonant_color"] = name
        with pytest.raises(ValidationError, match="resonant_color"):
            circuit_from_json_dict(doc)

    @pytest.mark.parametrize(
        "channels",
        ["0123456", ["0", "1", "2", "3", "4", "T1", 6], [True, 1, "2", "3", "4", "T1", "T2"]],
        ids=["string", "one-integer", "boolean-and-integer"],
    )
    def test_registry_must_be_a_list_of_strings(self, channels):
        doc = _canonical_doc()
        doc["channels"] = channels
        with pytest.raises(ValidationError, match="channels"):
            circuit_from_json_dict(doc)

    @pytest.mark.parametrize("name", CANONICAL_CHANNELS[2:])
    def test_detector_channel_off_its_position(self, name):
        # the engines read the detectors at positions 2-6: "2" and "T1"
        # swapped, with their phases, once heralded P_T1 0.0170 for 0.0464;
        # a file and a CircuitSpec built in Python get the same refusal
        doc = _canonical_doc()
        k = CANONICAL_CHANNELS.index(name)
        doc["channels"][0], doc["channels"][k] = name, "0"
        for read in (circuit_from_json_dict, lambda doc: CircuitSpec(doc["channels"])):
            with pytest.raises(
                ValidationError, match=f"detector channel '{name}' must sit at position {k}, not 0"
            ):
                read(doc)

    def test_writer_refuses_what_the_reader_refuses(self):
        # a registry the file reader refuses cannot reach the writer either
        with pytest.raises(ValidationError, match="detector channel 'T1' must sit at position 5"):
            circuit_to_json_dict(CircuitSpec(("T1", "x")))

    @pytest.mark.parametrize(
        "channels",
        [
            ["1", "0", "2", "3", "4", "T1", "T2"],
            ["a", "b", "s1", "s2", "s3", "h1", "h2"],
            ["0", "1", "2"],
            ["in", "tap", "2", "3"],
        ],
        ids=["source-and-herald-arm-swapped", "other-names", "fewer-channels", "some-detectors"],
    )
    def test_registries_that_keep_the_detector_positions_run(self, channels):
        assert circuit_from_json_dict({"channels": channels})[0].channels == tuple(channels)

    def test_registry_names_must_be_distinct(self):
        doc = _canonical_doc()
        doc["channels"][6] = "T1"
        with pytest.raises(ValidationError, match="duplicate"):
            circuit_from_json_dict(doc)

    @pytest.mark.parametrize(
        "path, value",
        [((0, "channels"), [0, "1"]), ((4, "input"), 1), ((4, "drop"), None)],
        ids=["coupler", "adddrop-input", "adddrop-drop"],
    )
    def test_channel_reference_must_be_a_string(self, path, value):
        doc = _canonical_doc()
        doc["elements"][path[0]][path[1]] = value
        with pytest.raises(ValidationError, match="channel name string"):
            circuit_from_json_dict(doc)

    @pytest.mark.parametrize("kind", [["coupler"], None, 3])
    def test_unhashable_or_missing_type(self, kind):
        doc = _canonical_doc()
        doc["elements"][0]["type"] = kind
        with pytest.raises(ValidationError, match="unknown element type"):
            circuit_from_json_dict(doc)


# ---------------------------------------------------------------------------
# the memoised path against the uncached one, bit for bit
# ---------------------------------------------------------------------------


def _state_bits(state):
    """Terms in order with the bits of every amplitude."""
    return [(b, a.real.hex(), a.imag.hex()) for b, a in state.items()]


def _assert_matches_uncached(spec, source):
    transform = build_transform(spec)
    reference = uncached_build_transform(spec)
    assert transform.modes == reference.modes
    assert transform.matrix.tobytes() == reference.matrix.tobytes()
    for state in (two_pair_state(source.channel), source_state(source)):
        assert _state_bits(apply_mode_transform(state, transform)) == _state_bits(
            eager_apply_mode_transform(state, reference)
        )


# Exact zeros and ones with both signs of zero, and arbitrary values.
_UNIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
_PHASE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
_BETA = st.builds(complex, st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))


class TestMatchesUncachedPath:
    """build_transform (memoised elements, mode table) and the kernel (lazy
    rows, trusted output) give the bits of the versions in oracles.py."""

    @given(
        st.lists(
            st.tuples(st.tuples(_UNIT, _UNIT, _UNIT), st.tuples(_PHASE, _PHASE, _PHASE), _UNIT),
            min_size=1,
            max_size=4,
        ),
        _BETA,
    )
    def test_phased_canonical_cells(self, cells, beta):
        # each cell twice: the second build reads the memo
        for (r, phi, eps) in cells + cells:
            spec = canonical_w_circuit(*r, *phi, ad2_extinction=eps)
            _assert_matches_uncached(spec, SourceSpec(0, beta))

    @given(st.data())
    def test_circuit_file_meshes(self, data):
        n = data.draw(st.integers(3, 5), label="channels")
        channel = st.integers(0, n - 1)
        elements = []
        for _ in range(data.draw(st.integers(0, 5), label="elements")):
            if data.draw(st.booleans()):
                a, b = data.draw(st.lists(channel, min_size=2, max_size=2, unique=True))
                r, phi = data.draw(_UNIT), data.draw(_PHASE)
                elements.append(DirectionalCoupler((a, b), r, phi=phi))
            else:
                chans = data.draw(st.lists(channel, min_size=3, max_size=3, unique=True))
                color = data.draw(st.sampled_from(Color))
                elements.append(AddDropFilter(*chans, color, data.draw(_UNIT)))
        phases = data.draw(st.one_of(st.just(()), st.tuples(*[_PHASE] * n)))
        spec = CircuitSpec(tuple(f"c{k}" for k in range(n)), tuple(elements), phases)
        source = SourceSpec(data.draw(channel), data.draw(_BETA), data.draw(st.integers(0, 2)))
        text = json.dumps(circuit_to_json_dict(spec, source))
        loaded, loaded_source = circuit_from_json_dict(json.loads(text))
        # all-zero phases are not written, so only the elements must match
        assert (loaded.elements, loaded_source) == (spec.elements, source)
        _assert_matches_uncached(loaded, loaded_source)
        transform = build_transform(loaded)
        for state in (two_pair_state(loaded_source.channel), source_state(loaded_source)):
            out = apply_mode_transform(state, transform)
            assert abs(math.sqrt(out.norm_sq()) - math.sqrt(state.norm_sq())) <= 1e-12

    def test_bosonic_factor_one_turns_a_negative_zero_positive(self):
        # (x - 0j) * 1.0 is x + 0j for x > 0: the kernel multiplies every
        # output by its bosonic factor, also where the factor is 1.0
        red, blue = Color.RED, Color.BLUE
        spec = CircuitSpec(
            ("c0", "c1", "c2"),
            (
                DirectionalCoupler((2, 0), 1.0, phi=0.0),
                AddDropFilter(1, 0, 2, red, 0.0),
                AddDropFilter(2, 0, 1, red, 0.0),
                AddDropFilter(2, 1, 0, blue, 0.5),
                AddDropFilter(1, 0, 2, red, 0.5),
            ),
            (),
        )
        transform = build_transform(spec)
        state = two_pair_state(0)
        out = apply_mode_transform(state, transform)
        assert _state_bits(out) == _state_bits(eager_apply_mode_transform(state, transform))
        basis = FockBasisState(
            (ModeLabel(ch, color), 1) for ch in (0, 2) for color in (red, blue)
        )
        assert math.copysign(1.0, out.amplitude(basis).imag) == 1.0


def test_propagate_vacuum_source_stays_vacuum():
    spec = canonical_w_circuit(0.5, 0.5, 0.5)
    out = propagate(SourceSpec(0, 0.0), spec)
    assert out.amplitude(FockBasisState()) == pytest.approx(1.0)
    assert len(out) == 1
