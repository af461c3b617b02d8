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

import cmath
import json
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
from .errors import ParamOutOfRange, ValidationError, parse_channel, parse_integer, parse_number, parse_numbers
from .fock import Color, ModeLabel, ModeTransform, PureState, _identity, apply_mode_transform

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

#: Each detector's name and its registry position, where the engines read it.
_DETECTORS = tuple((CANONICAL_CHANNELS[k], k) for k in (*SIGNAL_CHANNELS, T1_CHANNEL, T2_CHANNEL))

#: The crossing, one element shared by every canonical device.
_CROSSING = next(DirectionalCoupler(chans, 1.0) for chans, k in CANONICAL_COUPLERS if k is None)


@dataclass(frozen=True)
class CircuitSpec:
    """Channel registry, ordered element list, and terminal path phases.

    The registry is a tuple or list of distinct name strings.  Each detector
    name of :data:`CANONICAL_CHANNELS` ("2", "3", "4", "T1", "T2") it holds
    sits at its index there (2-6), where the engines read that detector;
    other names may sit anywhere.  ``phases`` is either empty (all zero) or
    one finite real phase per registered channel, applied to both colors
    after every element; the canonical device keeps them at zero because the
    interesting phases sit on the coupler cross terms.
    """

    channels: tuple[str, ...]
    elements: tuple = ()
    phases: tuple[float, ...] = ()

    def __post_init__(self):
        names = tuple(self.channels) if isinstance(self.channels, (list, tuple)) else None
        if names is None or not all(isinstance(name, str) for name in names):
            raise ValidationError(f"field 'channels': expected name strings, got {self.channels!r}")
        object.__setattr__(self, "channels", names)
        if not isinstance(self.elements, (list, tuple)):
            raise ValidationError(f"field 'elements': expected a sequence of elements, got {self.elements!r}")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "phases", parse_numbers(self.phases, "phases"))
        self.validate()

    def validate(self) -> None:
        if not self.channels:
            raise ValidationError("channel registry is empty")
        index = dict(zip(self.channels, range(len(self.channels))))
        if len(index) != len(self.channels):
            raise ValidationError(f"field 'channels': duplicate names in {list(self.channels)!r}")
        for name, k in _DETECTORS:
            if index.get(name, k) != k:
                raise ValidationError(f"field 'channels': detector channel {name!r} must sit at position {k}, not {index[name]}")
        n = len(self.channels)
        for k, el in enumerate(self.elements):
            if isinstance(el, DirectionalCoupler):
                refs = el.channels
            elif isinstance(el, AddDropFilter):
                refs = (el.input_channel, el.through_channel, el.drop_channel)
            else:
                raise ValidationError(f"element {k}: unsupported type {type(el).__name__}")
            bad = [ch for ch in refs if ch >= n]  # an element's channels are never negative
            if bad:
                raise ValidationError(f"element {k} ({type(el).__name__}): unregistered channel(s) {bad}")
        if self.phases and len(self.phases) != n:
            raise ValidationError(f"phases must be empty or one per channel ({n}), got {len(self.phases)}")


@lru_cache(maxsize=16)
def _mode_table(n_channels: int) -> tuple[ModeLabel, ...]:
    """Canonical mode list of a registry of ``n_channels`` channels, channel
    by channel and Red before Blue, so mode ``(ch, color)`` sits at ``2 ch +
    color``."""
    return tuple(ModeLabel(ch, color) for ch in range(n_channels) for color in Color)


@lru_cache(maxsize=256)
def _columns(modes: tuple[ModeLabel, ...]) -> np.ndarray:
    """The positions of `modes` in every :func:`_mode_table` that holds them,
    as read-only column indices."""
    columns = np.array([len(Color) * m.channel + m.color for m in modes], dtype=np.intp)
    columns.flags.writeable = False
    return columns


def build_transform(spec: CircuitSpec) -> ModeTransform:
    """Ordered product of the element transforms over the full mode set, then
    the registry phases in :func:`~wchip.elements.coupler_block`'s arithmetic
    (``cmath.exp``, Python ``complex`` products): all phases share one."""
    modes = _mode_table(len(spec.channels))
    mat = _identity(len(modes)).copy()
    for el in spec.elements:
        sub = coupler_transform(el) if isinstance(el, DirectionalCoupler) else adddrop_transform(el)
        idx = _columns(sub.modes)
        mat[:, idx] = mat[:, idx] @ sub.matrix  # the product's bits need this F-ordered copy
    if any(p != 0.0 for p in spec.phases):
        col_phase = [cmath.exp(1j * spec.phases[m.channel]) for m in modes]
        mat = np.array([[u * w for u, w in zip(row, col_phase)] for row in mat.tolist()])
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

    Transmissions are derived as t_i = sqrt(1 - r_i**2).  Each element reads
    its own parameters, so a bad r raises the coupler's ParamOutOfRange.
    """
    r, phi = (r1, r2, r3), (phi1, phi2, phi3)
    couplers = tuple(
        _CROSSING if k is None else DirectionalCoupler(chans, r[k], phi=phi[k])
        for chans, k in CANONICAL_COUPLERS
    )
    router = AddDropFilter(*CANONICAL_ROUTER, extinction=ad2_extinction)
    return CircuitSpec(CANONICAL_CHANNELS, couplers + (router,))


def transfer_rows(spec: CircuitSpec, channel: int) -> tuple[list[complex], list[complex]]:
    """Row `channel` of the Red and of the Blue transfer matrix of `spec`,
    read from ``build_transform(spec).matrix``: entry j of each is the entry
    from that color's mode on `channel` (an index) to its mode on channel j
    (no element mixes colors, so the other color's columns hold 0)."""
    channel = parse_channel(channel)
    n = len(spec.channels)
    if channel >= n:
        raise ValidationError(f"channel {channel} absent from the circuit's {n} channels")
    matrix = build_transform(spec).matrix
    # the modes of one color are every second column (see _mode_table)
    return tuple(matrix[len(Color) * channel + color, color :: len(Color)].tolist() for color in Color)


def check_double_pair(src: SourceSpec) -> None:
    """With ``max_order`` 2, a nonzero beta whose square underflows to 0
    (|beta| under about 1.6e-162) would lose the double pair silently, so it
    raises ParamOutOfRange."""
    if src.max_order == 2 and src.beta != 0 and src.beta * src.beta == 0:
        raise ParamOutOfRange(f"beta**2 underflows (|beta| too small), got beta = {src.beta}")


def propagate(src: SourceSpec, spec: CircuitSpec) -> PureState:
    """Push the source emission through the circuit, after
    :func:`check_double_pair`."""
    check_double_pair(src)
    return apply_mode_transform(source_state(src), build_transform(spec))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


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


#: The default of a field that has none: the field is required.
_REQUIRED = object()


def _object(value, fields: dict, where: str) -> dict:
    """The JSON object `value` read by `fields`, which maps each key it may
    hold to ``(read, default)``: a present value gives ``read(value,
    path)``, ``path`` the dotted name of the field (`where` names the
    object, ``""`` a whole document), and a missing key its default, or a
    :class:`ValidationError` if that is :data:`_REQUIRED`."""
    name = f"field {where!r}: " if where else ""
    if not isinstance(value, dict):
        raise ValidationError(f"{name}expected an object, got {value!r}")
    for key in value:
        if key not in fields:
            raise ValidationError(f"{name}unknown key {key!r}, expected one of {list(fields)}")
    prefix = f"{where}." if where else ""
    out = {}
    for key, (read, default) in fields.items():
        if key in value:
            out[key] = read(value[key], prefix + key)
        elif default is _REQUIRED:
            raise ValidationError(f"field {prefix + key!r}: required")
        else:
            out[key] = default
    return out


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"field {field!r}: expected a list, got {value!r}")
    return value


#: A router's resonant color as a circuit file names it, indexed by color.
_COLOR_NAMES = ("Red", "Blue")


def _color(value, field: str) -> Color:
    if not (isinstance(value, str) and value in _COLOR_NAMES):
        raise ValidationError(f"field {field!r}: expected \"Blue\" or \"Red\", got {value!r}")
    return Color(_COLOR_NAMES.index(value))


#: The circuit-file format, read by both :func:`circuit_to_json_dict` and
#: :func:`circuit_from_json_dict`: for each element class its ``"type"``
#: name (None for the source, which sits under ``"source"``) and, for each
#: key, the attribute it holds, its default and its kind of value.  Beside
#: these a file holds ``channels``, a list of distinct names by which the
#: elements and the source name their channels, and ``phases``, one per
#: channel.  A source without ``channel`` sits on the first one.
_FORMAT = {
    DirectionalCoupler: ("coupler", {
        "channels": ("channels", _REQUIRED, "channel pair"),
        "r": ("r", _REQUIRED, "number"),
        "phi": ("phi", 0.0, "number"),
    }),
    AddDropFilter: ("adddrop", {
        "input": ("input_channel", _REQUIRED, "channel"),
        "through": ("through_channel", _REQUIRED, "channel"),
        "drop": ("drop_channel", _REQUIRED, "channel"),
        "resonant_color": ("resonant_color", Color.BLUE, "color"),
        "extinction": ("extinction", 0.0, "number"),
    }),
    SourceSpec: (None, {
        "channel": ("channel", 0, "channel"),
        "beta": ("beta", 0.0, "complex"),
        "max_order": ("max_order", 2, "integer"),
    }),
}
_ELEMENT_TYPES = {name: cls for cls, (name, _) in _FORMAT.items() if name}
#: The reader of each kind of value that needs no channel registry.
_READS = {"color": _color, "number": parse_number, "integer": parse_integer, "complex": parse_complex}


def _read(cls, value, where: str, reads: dict = _READS):
    """The `cls` that the object `value` holds in the format :data:`_FORMAT`
    states, its kinds of value read by `reads`."""
    keys = _FORMAT[cls][1]
    fields = {key: (reads[kind], default) for key, (_, default, kind) in keys.items()}
    arguments = _object(value, fields, where)
    return cls(**{attr: arguments[key] for key, (attr, _, _) in keys.items()})


def circuit_to_json_dict(spec: CircuitSpec, source: SourceSpec | None = None) -> dict:
    names = spec.channels
    if source is not None and source.channel >= len(names):
        raise ValidationError(f"source channel {source.channel} is not in the registry {names}")
    write = {
        "channel": names.__getitem__,
        "channel pair": lambda pair: [names[c] for c in pair],
        "color": _COLOR_NAMES.__getitem__,
        "number": float,
        "integer": int,
        "complex": lambda z: [z.real, z.imag],
    }

    def entry(obj) -> dict:
        keys = _FORMAT[type(obj)][1]
        return {key: write[kind](getattr(obj, attr)) for key, (attr, _, kind) in keys.items()}

    doc: dict = {
        "channels": list(names),
        "elements": [{"type": _FORMAT[type(el)][0], **entry(el)} for el in spec.elements],
    }
    if any(p != 0.0 for p in spec.phases):
        doc["phases"] = list(spec.phases)
    if source is not None:
        doc["source"] = entry(source)
    return doc


def circuit_from_json_dict(doc: dict) -> tuple[CircuitSpec, SourceSpec | None]:
    """Inverse of :func:`circuit_to_json_dict`: only the keys it writes are
    accepted, and elements and the source name their channels by the
    registry's names.  The registry keeps :class:`CircuitSpec`'s detector
    positions."""
    top = _object(doc, {
        "channels": (_list, _REQUIRED),
        "elements": (_list, ()),
        "phases": (_list, ()),
        "source": (lambda value, field: value, None),  # read once the registry is known
    }, "")
    registry = CircuitSpec(top["channels"], (), top["phases"])  # its names and phases first
    index = {name: k for k, name in enumerate(registry.channels)}

    def channel(label, field: str) -> int:
        if not isinstance(label, str):
            raise ValidationError(f"field {field!r}: expected a channel name string, got {label!r}")
        if label not in index:
            raise ValidationError(f"field {field!r}: unregistered channel {label!r}")
        return index[label]

    def pair(value, field: str) -> tuple[int, int]:
        if len(_list(value, field)) != 2:
            raise ValidationError(f"field {field!r}: expected 2 channel names, got {value!r}")
        return tuple(channel(label, field) for label in value)

    reads = {**_READS, "channel": channel, "channel pair": pair}
    elements = []
    for k, entry in enumerate(top["elements"]):
        kind = entry.get("type") if isinstance(entry, dict) else None
        if not isinstance(kind, str) or kind not in _ELEMENT_TYPES:
            raise ValidationError(f"element {k}: unknown element type in {entry!r}")
        fields = {key: value for key, value in entry.items() if key != "type"}
        elements.append(_read(_ELEMENT_TYPES[kind], fields, f"element {k}", reads))
    source = _read(SourceSpec, top["source"], "source", reads) if "source" in doc else None
    return CircuitSpec(registry.channels, elements, registry.phases), source


def load_circuit(path) -> tuple[CircuitSpec, SourceSpec | None]:
    return circuit_from_json_dict(read_json(path))
