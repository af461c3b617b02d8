"""Optical elements as mode transforms, and the pair-source states.

A directional coupler couples the like-colored modes of two channels; an
add-drop ring filter reroutes one color while passing the other; the source
emits color-correlated photon pairs into a single channel.  Every element
produces an exactly unitary :class:`~wchip.fock.ModeTransform` — imperfect
filters mis-route photons, they never absorb them.

:func:`coupler_transform` and :func:`adddrop_transform` are memoised: each
canonical build repeats the crossing and, at zero extinction, the ideal
router, and a circuit built twice in one process repeats all its elements.
Each memo keeps the :data:`MEMO_SIZE` most recently used transforms, keyed by
the element itself.  Each constructor reads its parameters once, and turns
``-0.0`` into ``0.0``, so two elements compare equal exactly when they build
the same matrix bits.  A memoised matrix is read-only, and each distinct
element is unitarity-checked when it is first built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache

import numpy as np

from .errors import ChannelCollision, OrderOutOfRange, ParamOutOfRange, parse_amplitude, parse_channel, parse_member, parse_number
from .fock import Color, FockBasisState, ModeLabel, ModeTransform, PureState

_COLORS = tuple(Color)  # iterating the enum class is slow

#: Transforms each element-transform memo keeps.  An entry takes about
#: 1.4 kB, so the two memos full hold about 0.7 MB; random devices miss
#: every time and fill them, which is why they must stay small.
MEMO_SIZE = 256


@dataclass(frozen=True)
class DirectionalCoupler:
    """Evanescent coupler between two channels: beamsplitter with reflection
    ``r`` and cross phase ``phi``; its transmission ``t = sqrt(1 - r**2)`` is
    derived from ``r`` (:func:`transmission`), never set.

    The single-color action on the channel pair ``(a, b)`` is taken as the
    unitary

        ``[[t,  r e^{i phi}], [-r e^{-i phi},  t]]``

    whose driven row (input ``a``) is ``t a + r e^{i phi} b`` — the textbook
    transfer with the phase on the cross term.  The reverse cross term
    carries the conjugate phase and a sign, which is what unitarity requires
    for arbitrary ``phi`` (for ``phi = +-pi/2`` the matrix is symmetric).
    The matrix satisfies exchange symmetry: swapping the two channels equals
    transposing it.  Each argument is read as :mod:`wchip.errors` states.
    """

    channels: tuple[int, int]
    r: float
    _: KW_ONLY
    phi: float = 0.0

    def __post_init__(self):
        a, b = map(parse_channel, self.channels)
        if a == b:
            raise ChannelCollision(f"coupler needs two distinct channels, got {a}")
        object.__setattr__(self, "channels", (a, b))
        r = parse_number(self.r, "r", finite=False) + 0.0  # -0.0 reads as 0.0
        if not 0.0 <= r <= 1.0:
            raise ParamOutOfRange(f"reflectivity must lie in [0, 1], got {r}")
        object.__setattr__(self, "r", r)
        phi = parse_number(self.phi, "phi", finite=False) + 0.0
        if not math.isfinite(phi):
            raise ParamOutOfRange(f"phase phi must be finite, got {phi}")
        object.__setattr__(self, "phi", phi)

    @property
    def t(self) -> float:
        return transmission(self.r)


@dataclass(frozen=True)
class AddDropFilter:
    """Ring filter: the resonant color is dropped, the other passes through.

    ``extinction`` is the residual probability that a resonant photon leaks
    to the through port instead of the drop port (0 = ideal router, 1 =
    filter disabled).  The unused reverse direction (drop -> input) is
    completed unitarily; that port is never fed in the circuits built here.
    Each argument is read as :mod:`wchip.errors` states.
    """

    input_channel: int
    through_channel: int
    drop_channel: int
    resonant_color: Color
    extinction: float = 0.0

    def __post_init__(self):
        chans = tuple(map(parse_channel, (self.input_channel, self.through_channel, self.drop_channel)))
        if len(set(chans)) != 3:
            raise ChannelCollision(f"add-drop channels must be distinct, got {chans}")
        object.__setattr__(self, "input_channel", chans[0])
        object.__setattr__(self, "through_channel", chans[1])
        object.__setattr__(self, "drop_channel", chans[2])
        parse_member(self.resonant_color, Color, "resonant_color")
        eps = parse_number(self.extinction, "extinction", finite=False) + 0.0
        if not 0.0 <= eps <= 1.0:
            raise ParamOutOfRange(f"extinction must lie in [0, 1], got {eps}")
        object.__setattr__(self, "extinction", eps)


@dataclass(frozen=True)
class SourceSpec:
    """Pair source in one channel: emits correlated (Blue, Red) photon pairs
    with amplitude ``beta`` per pair (a number, not a string or a ``bool``),
    expanded to ``max_order`` pairs."""

    channel: int
    beta: complex
    max_order: int = 2

    def __post_init__(self):
        object.__setattr__(self, "channel", parse_channel(self.channel))
        beta = parse_amplitude(self.beta, "beta")
        # Parts first: abs() overflows on finite parts near the float limit.
        if max(abs(beta.real), abs(beta.imag)) > 1.0 or abs(beta) > 1.0:
            raise ParamOutOfRange(f"|beta|**2 must not exceed 1, got beta = {beta}")
        object.__setattr__(self, "beta", beta)
        if isinstance(self.max_order, bool) or self.max_order not in (0, 1, 2):
            raise OrderOutOfRange(f"max_order must be 0, 1 or 2, got {self.max_order!r}")
        object.__setattr__(self, "max_order", int(self.max_order))


# ---------------------------------------------------------------------------
# element -> transform
# ---------------------------------------------------------------------------


def transmission(r):
    """Transmission ``t = sqrt(1 - r**2)`` of a lossless coupler with
    reflectivity ``r``; broadcasts over arrays, and a float gives a float.
    Both square roots round correctly, so they agree bit for bit."""
    if isinstance(r, float):
        t2 = 1.0 - r * r
        return math.sqrt(t2) if t2 > 0.0 else 0.0
    return np.sqrt(np.maximum(0.0, 1.0 - r * r))


def coupler_block(r: float, phi: float = 0.0):
    """Single-color action of a coupler on its channel pair ``(a, b)``:
    ``((t, r e^{i phi}), (-r e^{-i phi}, t))`` with ``t = transmission(r)``,
    rows indexed by input, as nested tuples of Python numbers.  The cross
    term is ``complex(r) * cmath.exp(1j * phi)``, and the registry phases of
    :func:`~wchip.circuit.build_transform` share this arithmetic."""
    t = transmission(r)
    cross = complex(r) * cmath.exp(1j * phi)
    return ((t, cross), (-cross.conjugate(), t))


def adddrop_block(extinction, resonant: bool):
    """Single-color action of an add-drop filter on its ``(input, through,
    drop)`` ports as nested tuples, rows indexed by input.

    Resonant color: input -> drop with amplitude sqrt(1 - extinction) and
    input -> through with amplitude sqrt(extinction).  Non-resonant color:
    input -> through with amplitude 1.  The remaining rows permute the idle
    ports so the block stays unitary at every extinction.  Broadcasts as
    :func:`transmission` does."""
    if not resonant:
        return ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    sqrt = math.sqrt if isinstance(extinction, float) else np.sqrt
    leak = sqrt(extinction)
    drop = sqrt(1.0 - extinction)
    return ((0, leak, drop), (0, drop, -leak), (1, 0, 0))


@lru_cache(maxsize=MEMO_SIZE)
def _modes(channels: tuple[int, ...]) -> tuple[ModeLabel, ...]:
    """The modes of `channels`, channel-major and color-minor: the canonical
    order when the channels ascend, and ModeTransform reorders them otherwise."""
    return tuple(ModeLabel(ch, color) for ch in channels for color in _COLORS)


def _color_blocks(channels, blocks) -> ModeTransform:
    """Mode transform acting with ``blocks[color]`` (nested tuples, rows
    indexed by input) on each color's modes of ``channels`` and never mixing
    colors; its matrix is read-only, so that a memo can share it."""
    modes = _modes(tuple(channels))
    mat = np.zeros((len(modes), len(modes)), dtype=complex)
    for color in _COLORS:
        mat[color :: len(_COLORS), color :: len(_COLORS)] = blocks[color]
    transform = ModeTransform(modes, mat)
    transform.matrix.flags.writeable = False
    return transform


@lru_cache(maxsize=MEMO_SIZE)
def coupler_transform(dc: DirectionalCoupler) -> ModeTransform:
    """Four-mode transform of a coupler: :func:`coupler_block` acts
    identically on the Red and the Blue modes of the two channels.
    Memoised (see the module docstring)."""
    return _color_blocks(dc.channels, (coupler_block(dc.r, dc.phi),) * len(_COLORS))


@lru_cache(maxsize=MEMO_SIZE)
def adddrop_transform(ad: AddDropFilter) -> ModeTransform:
    """Six-mode transform of an add-drop filter: :func:`adddrop_block` on
    each color, resonant for ``ad.resonant_color`` only.  Memoised (see the
    module docstring)."""
    chans = (ad.input_channel, ad.through_channel, ad.drop_channel)
    blocks = tuple(adddrop_block(ad.extinction, color is ad.resonant_color) for color in _COLORS)
    return _color_blocks(chans, blocks)


# ---------------------------------------------------------------------------
# source states
# ---------------------------------------------------------------------------


def _pair_basis(channel: int, pairs: int) -> FockBasisState:
    return FockBasisState(
        ((ModeLabel(channel, Color.RED), pairs), (ModeLabel(channel, Color.BLUE), pairs))
    )


def source_state(src: SourceSpec) -> PureState:
    """Emission state of the pair source, truncated at ``max_order`` pairs.

    The expansion weights are (1 - beta**2/2) on vacuum, beta on the single
    pair, and beta**2/2 on the double emission; the double-emission operator
    term has internal amplitude 2 on |2_B, 2_R> from the repeated creation
    operators, leaving a net basis amplitude of beta**2.
    """
    beta = src.beta
    terms: dict[FockBasisState, complex] = {FockBasisState(): 1.0 - beta * beta / 2.0}
    if src.max_order >= 1:
        terms[_pair_basis(src.channel, 1)] = beta
    if src.max_order >= 2:
        terms[_pair_basis(src.channel, 2)] = beta * beta
    return PureState(terms)


def two_pair_state(channel: int) -> PureState:
    """The normalized double-emission component |2_B, 2_R> on one channel index.

    Heralding probabilities are conditioned on this event, so propagating it
    directly gives the conditional statistics without carrying beta around.
    """
    return PureState({_pair_basis(parse_channel(channel), 2): 1.0})
