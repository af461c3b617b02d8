"""Circuit assembly: element sequences, the canonical W-state device, and
state propagation.

A :class:`CircuitSpec` is a named channel registry plus an ordered list of
elements (order = propagation order) and an optional per-channel path phase
applied after the last element.  The canonical device is the three-coupler,
one-router layout that turns a double pair emitted into channel 0 into a
heralded three-photon W state on channels 2, 3 and 4:

    source (ch 0) -> DC1 taps ch 1 (herald arm)
                  -> DC2 taps ch 2
                  -> crossing moves the through line onto ch 3
                  -> DC3 splits ch 3 / ch 4
    AD2 on ch 1   -> routes Red to T1, Blue to T2 (the herald detectors)

The crossing is an r = 1 coupler: it relabels the through line so the final
splitter's outputs sit on the registered channels 3 and 4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .elements import (
    AddDropFilter,
    DirectionalCoupler,
    SourceSpec,
    adddrop_transform,
    coupler_transform,
    source_state,
)
from .errors import ParamOutOfRange, ValidationError
from .fock import Color, ModeLabel, ModeTransform, PureState, apply_mode_transform

#: Channel registry of the canonical device; index = position in this tuple.
CANONICAL_CHANNELS = ("0", "1", "2", "3", "4", "T1", "T2")
SOURCE_CHANNEL = 0
HERALD_ARM = 1
SIGNAL_CHANNELS = (2, 3, 4)
T1_CHANNEL = 5
T2_CHANNEL = 6

#: Coupler layout of the canonical device in propagation order: the channel
#: pair and the index of the reflectivity in (r1, r2, r3) that sets it.
#: ``None`` marks the waveguide crossing, an r = 1 coupler that moves the
#: through line onto ch 3.
CANONICAL_COUPLERS = (
    ((SOURCE_CHANNEL, HERALD_ARM), 0),
    ((SOURCE_CHANNEL, SIGNAL_CHANNELS[0]), 1),
    ((SOURCE_CHANNEL, SIGNAL_CHANNELS[1]), None),
    ((SIGNAL_CHANNELS[1], SIGNAL_CHANNELS[2]), 2),
)
#: The router after the couplers as (input, through, drop, resonant color):
#: resonant for Blue, so the Red herald photon passes through to T1.
CANONICAL_ROUTER = (HERALD_ARM, T1_CHANNEL, T2_CHANNEL, Color.BLUE)


@dataclass(frozen=True)
class CircuitSpec:
    """Channel registry, ordered element list, and terminal path phases.

    ``phases`` is either empty (all zero) or one phase per registered
    channel, applied to both colors after every element; the canonical device
    keeps them at zero because the interesting phases sit on the coupler
    cross terms.
    """

    channels: tuple[str, ...]
    elements: tuple = ()
    phases: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(str(c) for c in self.channels))
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        self.validate()

    def validate(self) -> None:
        if not self.channels:
            raise ValidationError("channel registry is empty")
        if len(set(self.channels)) != len(self.channels):
            raise ValidationError("channel registry has duplicate names")
        n = len(self.channels)
        for k, el in enumerate(self.elements):
            if isinstance(el, DirectionalCoupler):
                refs = el.channels
            elif isinstance(el, AddDropFilter):
                refs = (el.input_channel, el.through_channel, el.drop_channel)
            else:
                raise ValidationError(f"element {k}: unsupported type {type(el).__name__}")
            bad = [ch for ch in refs if not 0 <= ch < n]
            if bad:
                raise ValidationError(
                    f"element {k} ({type(el).__name__}): unregistered channel(s) {bad}"
                )
        if self.phases and len(self.phases) != n:
            raise ValidationError(
                f"phases must be empty or one per channel ({n}), got {len(self.phases)}"
            )
        if not all(math.isfinite(p) for p in self.phases):
            raise ValidationError(f"phases must be finite, got {self.phases}")


@lru_cache(maxsize=16)
def _mode_table(n_channels: int) -> tuple[tuple[ModeLabel, ...], dict[ModeLabel, int]]:
    """Canonical mode list of a registry of ``n_channels`` channels, and
    each mode's position in it."""
    modes = tuple(sorted(ModeLabel(ch, color) for ch in range(n_channels) for color in Color))
    return modes, {m: i for i, m in enumerate(modes)}


def build_transform(spec: CircuitSpec) -> ModeTransform:
    """Ordered product of the element transforms over the full mode set."""
    modes, pos = _mode_table(len(spec.channels))
    mat = np.eye(len(modes), dtype=complex)
    for el in spec.elements:
        sub = coupler_transform(el) if isinstance(el, DirectionalCoupler) else adddrop_transform(el)
        idx = [pos[m] for m in sub.modes]
        mat[:, idx] = mat[:, idx] @ sub.matrix
    if any(p != 0.0 for p in spec.phases):
        col_phase = np.array(
            [np.exp(1j * spec.phases[m.channel]) for m in modes], dtype=complex
        )
        mat = mat * col_phase[np.newaxis, :]
    return ModeTransform(modes, mat)


def canonical_w_circuit(
    r1: float,
    r2: float,
    r3: float,
    phi1: float = 0.0,
    phi2: float = 0.0,
    phi3: float = 0.0,
    ad2_extinction: float = 0.0,
) -> CircuitSpec:
    """The canonical heralded-W device: :data:`CANONICAL_COUPLERS` followed
    by :data:`CANONICAL_ROUTER` (see the module docstring for the layout).

    Transmissions are derived as t_i = sqrt(1 - r_i**2).
    """
    for name, val in (("r1", r1), ("r2", r2), ("r3", r3)):
        if not 0.0 <= float(val) <= 1.0:
            raise ParamOutOfRange(f"{name} must lie in [0, 1], got {val}")
    r = (float(r1), float(r2), float(r3))
    phi = (float(phi1), float(phi2), float(phi3))
    dc = DirectionalCoupler.from_reflectivity
    couplers = tuple(
        dc(chans, 1.0, 0.0) if k is None else dc(chans, r[k], phi[k])
        for chans, k in CANONICAL_COUPLERS
    )
    router = AddDropFilter(*CANONICAL_ROUTER, extinction=float(ad2_extinction))
    return CircuitSpec(CANONICAL_CHANNELS, couplers + (router,))


def propagate(src: SourceSpec, spec: CircuitSpec) -> PureState:
    """Push the source emission through the circuit."""
    return apply_mode_transform(source_state(src), build_transform(spec))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _encode_complex(z: complex):
    z = complex(z)
    return float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)]


def parse_number(value, field: str) -> float:
    """A finite JSON number as a float; a boolean, a string or ``null`` is a
    :class:`ValidationError` naming ``field``."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            pass
    if not math.isfinite(number):
        raise ValidationError(f"field {field!r}: expected a finite number, got {value!r}")
    return number


def parse_integer(value, field: str) -> int:
    """A JSON integer, or a float with an integral value, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"field {field!r}: expected an integer, got {value!r}")
    return value


def parse_complex(value, field: str) -> complex:
    """A number or ``[re, im]`` as a complex."""
    parts = value if isinstance(value, (list, tuple)) else (value, 0.0)
    if len(parts) != 2:
        raise ValidationError(f"field {field!r}: expected a number or [re, im], got {value!r}")
    return complex(parse_number(parts[0], field), parse_number(parts[1], field))


def read_json(path):
    """The JSON document in the UTF-8 file at ``path``; a file that cannot be
    read or parsed is a :class:`ValidationError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # missing, a directory, a NUL in the path, not UTF-8, not JSON, nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read JSON from {str(path)!r}: {exc}") from None


def _list(value, where: str):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where}: expected a list, got {value!r}")
    return value


#: The keys :func:`circuit_to_json_dict` writes, at the top level, per
#: element type and in the source: the only keys a circuit file may hold.
_CIRCUIT_KEYS = frozenset({"channels", "elements", "phases", "source"})
_ELEMENT_KEYS = {
    "coupler": frozenset({"type", "channels", "r", "phi"}),
    "adddrop": frozenset({"type", "input", "through", "drop", "resonant_color", "extinction"}),
}
_SOURCE_KEYS = frozenset({"channel", "beta", "max_order"})

#: The names :func:`circuit_to_json_dict` writes for a router's resonant
#: color: the only values a circuit file may give it.
_COLOR_NAMES = {Color.BLUE: "Blue", Color.RED: "Red"}
_COLORS_BY_NAME = {name: color for color, name in _COLOR_NAMES.items()}


def _object(value, keys: frozenset, where: str) -> dict:
    """`value` as an object whose keys all lie in `keys`."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be an object, got {value!r}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {unknown}, expected {sorted(keys)}")
    return value


def circuit_to_json_dict(spec: CircuitSpec, source: SourceSpec | None = None) -> dict:
    name = spec.channels
    elements = []
    for el in spec.elements:
        if isinstance(el, DirectionalCoupler):
            elements.append(
                {
                    "type": "coupler",
                    "channels": [name[el.channels[0]], name[el.channels[1]]],
                    "r": el.r,
                    "phi": el.phi,
                }
            )
        else:
            elements.append(
                {
                    "type": "adddrop",
                    "input": name[el.input_channel],
                    "through": name[el.through_channel],
                    "drop": name[el.drop_channel],
                    "resonant_color": _COLOR_NAMES[el.resonant_color],
                    "extinction": el.extinction,
                }
            )
    doc: dict = {"channels": list(name), "elements": elements}
    if any(p != 0.0 for p in spec.phases):
        doc["phases"] = list(spec.phases)
    if source is not None:
        doc["source"] = {
            "channel": source.channel,
            "beta": _encode_complex(source.beta),
            "max_order": source.max_order,
        }
    return doc


def circuit_from_json_dict(doc: dict) -> tuple[CircuitSpec, SourceSpec | None]:
    """Inverse of :func:`circuit_to_json_dict`.  Only the keys it writes are
    accepted; the channel registry is a list of distinct name strings, and
    elements name their channels by those strings."""
    doc = _object(doc, _CIRCUIT_KEYS, "circuit document")
    if "channels" not in doc:
        raise ValidationError("circuit document needs a 'channels' list")
    names = _list(doc["channels"], "channels")
    if not all(isinstance(c, str) for c in names):
        raise ValidationError(f"channels: expected name strings, got {names!r}")
    if len(set(names)) != len(names):
        raise ValidationError(f"channels: duplicate names in {names!r}")
    index = {c: i for i, c in enumerate(names)}

    def resolve(label, where: str) -> int:
        if not isinstance(label, str):
            raise ValidationError(f"{where}: expected a channel name string, got {label!r}")
        if label not in index:
            raise ValidationError(f"{where}: unregistered channel {label!r}")
        return index[label]

    elements = []
    for k, entry in enumerate(_list(doc.get("elements", []), "elements")):
        where = f"element {k}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: must be an object, got {entry!r}")
        kind = entry.get("type")
        if not isinstance(kind, str) or kind not in _ELEMENT_KEYS:
            raise ValidationError(f"{where}: unknown element type {kind!r}")
        _object(entry, _ELEMENT_KEYS[kind], where)
        if kind == "coupler":
            chans = _list(entry.get("channels", []), f"{where} channels")
            if len(chans) != 2:
                raise ValidationError(f"{where}: coupler needs exactly 2 channels")
            if "r" not in entry:
                raise ValidationError(f"{where}: coupler needs a reflectivity 'r'")
            elements.append(
                DirectionalCoupler.from_reflectivity(
                    (resolve(chans[0], where), resolve(chans[1], where)),
                    parse_number(entry["r"], f"{where} r"),
                    parse_number(entry.get("phi", 0.0), f"{where} phi"),
                )
            )
        else:
            name = entry.get("resonant_color", "Blue")
            if not isinstance(name, str) or name not in _COLORS_BY_NAME:
                raise ValidationError(
                    f"{where} resonant_color: expected \"Blue\" or \"Red\", got {name!r}"
                )
            color = _COLORS_BY_NAME[name]
            elements.append(
                AddDropFilter(
                    input_channel=resolve(entry.get("input"), where),
                    through_channel=resolve(entry.get("through"), where),
                    drop_channel=resolve(entry.get("drop"), where),
                    resonant_color=color,
                    extinction=parse_number(entry.get("extinction", 0.0), f"{where} extinction"),
                )
            )
    phases = tuple(parse_number(p, "phases") for p in _list(doc.get("phases", []), "phases"))
    spec = CircuitSpec(tuple(names), tuple(elements), phases)
    source = None
    if "source" in doc:
        src = _object(doc["source"], _SOURCE_KEYS, "source")
        source = SourceSpec(
            channel=parse_integer(src.get("channel", 0), "source.channel"),
            beta=parse_complex(src.get("beta", 0.0), "source.beta"),
            max_order=parse_integer(src.get("max_order", 2), "source.max_order"),
        )
        if source.channel >= len(names):
            raise ValidationError(f"source: unregistered channel {source.channel}")
    return spec, source


def save_circuit(path, spec: CircuitSpec, source: SourceSpec | None = None) -> None:
    doc = circuit_to_json_dict(spec, source)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_circuit(path) -> tuple[CircuitSpec, SourceSpec | None]:
    return circuit_from_json_dict(read_json(path))
