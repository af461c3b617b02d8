"""Sparse second-quantized state algebra for two-color waveguide modes.

A mode is a ``(channel, color)`` pair: an integer waveguide channel carrying
either a Red or a Blue photon (the two signal/idler resonances of the pair
source).  States are sparse complex superpositions of occupation-number basis
vectors, and linear-optical elements act by substituting each input creation
operator with a linear combination of output operators and re-expanding the
resulting polynomial.

Conventions fixed here, relied on everywhere else:

* Basis canonicalization is channel-major with Red before Blue inside a
  channel, so sparse maps have a unique, reproducible key order.
* ``ModeTransform.matrix`` uses the row convention: input operator ``i``
  maps to ``sum_j matrix[i, j] *`` (output operator ``j``).
* A state keeps every nonzero amplitude, however small, so no ratio depends
  on the overall scale; only exact zeros (Hong-Ou-Mandel) are dropped.

:func:`apply_mode_transform` expands each term's operator polynomial (a
permanent with repeated rows; Scheel, quant-ph/0406127) by replaying an
expansion plan: which products of the previous photon's coefficients and the
row entries start or add to which output key, recorded once per term shape
(mode list, and the nonzero columns and occupation of each input mode the
term meets) together with each final key's basis state and sqrt(m!) factor.
At most ``_PLANS`` plans are kept, oldest dropped first, and a plan of more
than ``_PLAN_PRODUCTS`` products is used once and not kept.  A term may hold
at most ``MAX_PHOTONS`` photons.  Each call builds the sparse rows of only
the input modes its state occupies (two of fourteen for the canonical
source), and hands its finished amplitude map to a trusted
:class:`PureState` constructor that drops its exact zeros in place instead
of converting and re-inserting every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .density import BASIS_THREE, ThreePhotonRho
from .errors import (
    DimensionMismatch,
    EmptyState,
    NotUnitary,
    PatternMismatch,
    TooManyPhotons,
    UnknownMode,
    ValidationError,
)
from .errors import parse_amplitude, parse_channel

#: Unitarity violations beyond this raise :class:`NotUnitary`.
UNITARY_TOL = 1e-9

#: Most photons one basis term may hold in :func:`apply_mode_transform`;
#: more raise :class:`TooManyPhotons`.  Every output occupation of a term is
#: at most its photon count, so this also bounds the expansion key fields.
MAX_PHOTONS = 32

_SQRT_FACT = tuple(math.sqrt(math.factorial(k)) for k in range(MAX_PHOTONS + 1))

#: Bits per mode in an expansion key: wide enough for MAX_PHOTONS, so a
#: field never carries into the next one.
_FIELD_BITS = MAX_PHOTONS.bit_length()
_FIELD_MASK = (1 << _FIELD_BITS) - 1

#: Bounds of the expansion plans: plans kept, and the product count above
#: which a plan is used once and not kept.
_PLANS = 8
_PLAN_PRODUCTS = 4096


# ---------------------------------------------------------------------------
# labels and basis states
# ---------------------------------------------------------------------------


class Color(IntEnum):
    """Photon color: the red- or blue-detuned resonance of the source."""

    RED = 0
    BLUE = 1

    @property
    def letter(self) -> str:
        return "R" if self is Color.RED else "B"


class ModeLabel(NamedTuple):
    """One optical mode: a waveguide channel carrying one color.

    The natural tuple order (channel, then color with Red < Blue) is the
    canonical basis order used throughout.
    """

    channel: int
    color: Color

    def __str__(self) -> str:  # e.g. "R0", "B3"
        return f"{self.color.letter}{self.channel}"


class FockBasisState(tuple):
    """Occupation-number basis vector, stored as sorted (mode, count) pairs.

    Built from ``(ModeLabel, count)`` pairs, each count a non-negative int
    (a bool or a float is refused); any other pair raises
    :class:`ValidationError`.  Zero counts are never stored, so equality is
    structural and the empty ``FockBasisState()`` is the vacuum.  Instances
    are immutable and hashable.
    """

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[ModeLabel, int]] = ()):
        acc: dict[ModeLabel, int] = {}
        for pair in pairs:
            mode, count = pair if isinstance(pair, tuple) and len(pair) == 2 else (None, None)
            if not isinstance(mode, ModeLabel) or type(count) is not int or count < 0:
                raise ValidationError(f"expected a (ModeLabel, non-negative int) pair, got {pair!r}")
            if count:
                acc[mode] = acc.get(mode, 0) + count
        return tuple.__new__(cls, sorted(acc.items()))

    @classmethod
    def _from_sorted(cls, pairs: Sequence[tuple[ModeLabel, int]]) -> "FockBasisState":
        """Trusted constructor: pairs already canonical (sorted, positive)."""
        return tuple.__new__(cls, pairs)

    def split(self, channels: Iterable[int]) -> tuple["FockBasisState", "FockBasisState"]:
        """Partition into (modes on `channels`, everything else)."""
        chans = set(channels)
        kept = [(m, n) for m, n in self if m.channel in chans]
        rest = [(m, n) for m, n in self if m.channel not in chans]
        return FockBasisState._from_sorted(kept), FockBasisState._from_sorted(rest)

    def __repr__(self) -> str:
        if not self:
            return "|vac>"
        inner = ", ".join(f"{n}_{m}" for m, n in self)
        return f"|{inner}>"


def color_pattern(basis: FockBasisState, channels: Sequence[int]) -> str:
    """Color string (e.g. ``"BBR"``) of a basis term with exactly one photon
    in each of the given channels and nothing anywhere else.

    Raises :class:`PatternMismatch` when the photon content differs.
    """
    # a doubled photon or a channel holding both colors shrinks by_channel
    by_channel = {mode.channel: mode.color for mode, count in basis if count == 1}
    if not len(basis) == len(channels) == len(by_channel) or not by_channel.keys() >= set(channels):
        raise PatternMismatch(
            f"expected one photon in each of channels {tuple(channels)}, got {basis!r}"
        )
    return "".join(by_channel[ch].letter for ch in channels)


def basis_from_pattern(pattern: str, channels: Sequence[int]) -> FockBasisState:
    """Inverse of :func:`color_pattern`: one photon per channel, colors from
    the letters ``"B"`` and ``"R"``; any other letter, or a pattern whose
    length differs from the channel count, raises :class:`PatternMismatch`."""
    colors = {color.letter: color for color in Color}
    if len(pattern) != len(channels) or not set(pattern) <= colors.keys():
        raise PatternMismatch(f"pattern {pattern!r} is not one B or R per channel of {channels}")
    return FockBasisState((ModeLabel(ch, colors[letter]), 1) for ch, letter in zip(channels, pattern))


# ---------------------------------------------------------------------------
# pure states
# ---------------------------------------------------------------------------


class PureState:
    """Sparse superposition ``sum_b amplitude(b) |b>``.

    Takes a mapping of :class:`FockBasisState` to a number (not a ``bool``
    or ``str``), else raises :class:`ValidationError`; a non-finite amplitude
    raises :class:`ParamOutOfRange` (:func:`~wchip.errors.parse_amplitude`).
    Exact-zero terms are dropped.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[FockBasisState, complex]):
        if not isinstance(terms, Mapping):
            raise ValidationError(f"expected a mapping of FockBasisState to amplitude, got {terms!r}")
        self._terms: dict[FockBasisState, complex] = {}
        for b, a in terms.items():
            if not isinstance(b, FockBasisState):
                raise ValidationError(f"expected a FockBasisState: number term, got {b!r}: {a!r}")
            a = parse_amplitude(a, b)
            if a:
                self._terms[b] = a

    @classmethod
    def _trusted(cls, terms: dict[FockBasisState, complex]) -> "PureState":
        """Trusted constructor: takes ``terms``, whose amplitudes are finite
        complex numbers already, and drops its zeros in place as ``__init__``
        does, so the kept terms keep their order."""
        if not all(terms.values()):  # most states hold no zero: one scan in C
            for b in [b for b, a in terms.items() if not a]:
                del terms[b]
        state = object.__new__(cls)
        state._terms = terms
        return state

    def items(self) -> Iterator[tuple[FockBasisState, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def amplitude(self, basis_state: FockBasisState) -> complex:
        return self._terms.get(basis_state, 0j)

    def norm_sq(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag for a in self._terms.values()), 0.0)

    def __repr__(self) -> str:
        parts = [f"({a:.4g})*{b!r}" for b, a in sorted(self._terms.items())[:4]]
        more = " + ..." if len(self._terms) > 4 else ""
        return f"PureState({' + '.join(parts)}{more})"


def inner_product(s1: PureState, s2: PureState) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    left, right = s1._terms, s2._terms
    return sum((left[b].conjugate() * right[b] for b in left.keys() & right.keys()), 0j)


# ---------------------------------------------------------------------------
# mode transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModeTransform:
    """Linear map of creation operators over an ordered mode list.

    ``matrix[i, j]`` is the coefficient of output operator ``j`` in the image
    of input operator ``i`` (row convention).  At construction the mode list
    is normalized to canonical order and the matrix permuted to match, so two
    transforms over the same mode set always align entry by entry.

    The rows must be orthonormal (unitary matrix); deviations beyond
    :data:`UNITARY_TOL`, and any NaN or infinite entry, raise
    :class:`NotUnitary`.
    """

    modes: tuple[ModeLabel, ...]
    matrix: np.ndarray

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(set(modes)) != len(modes):
            raise DimensionMismatch("duplicate modes in transform mode list")
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"transform matrix must be square, got {mat.shape}")
        if mat.shape[0] != len(modes):
            raise DimensionMismatch(
                f"matrix size {mat.shape[0]} does not match {len(modes)} modes"
            )
        # Before the Gram product, which would warn on a NaN or an infinity.
        if not np.isfinite(mat).all():
            raise NotUnitary("transform matrix holds a non-finite entry")
        if list(modes) != sorted(modes):
            order = sorted(range(len(modes)), key=modes.__getitem__)
            mat = mat[np.ix_(order, order)]
            modes = tuple(modes[i] for i in order)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "matrix", mat)
        dev = self.unitarity_deviation()
        if not dev <= UNITARY_TOL:
            raise NotUnitary(f"transform deviates from unitarity by {dev:.3g}")

    def unitarity_deviation(self) -> float:
        m = self.matrix
        return float(abs(m @ m.conj().T - _identity(len(m))).max())


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n complex identity."""
    identity = np.eye(n, dtype=complex)
    identity.flags.writeable = False
    return identity


def _output_basis(modes: tuple[ModeLabel, ...], key: int) -> tuple[FockBasisState, float]:
    """Decode an expansion key into its basis state and its bosonic factor
    ``prod_j sqrt(m_j!)``, multiplied in ascending mode order."""
    pairs = []
    scale = 1.0
    j = 0
    while key:
        k = key & _FIELD_MASK
        if k:
            pairs.append((modes[j], k))
            if k > 1:
                scale *= _SQRT_FACT[k]
        key >>= _FIELD_BITS
        j += 1
    return FockBasisState._from_sorted(pairs), scale


#: Expansion plans kept, oldest first: ``(modes, shape) -> plan``.
_plans: dict[tuple, tuple] = {}


def _plan(modes: tuple[ModeLabel, ...], shape: tuple[tuple[tuple[int, ...], int], ...]) -> tuple:
    """Expansion plan of a term whose input modes meet rows with nonzero
    columns ``cols`` ``count`` times each, for ``(cols, count)`` in `shape`.

    Returns ``(steps, bases, scales)``.  ``steps`` holds, per photon, the
    ``(source, entry)`` of each new key's first product and the ``(source,
    entry, target)`` of each later product, in the order the key-by-key
    expansion meets them; ``bases`` and ``scales`` give each final key's
    basis state and ``prod_j sqrt(m_j!)``.
    """
    plan = _plans.get((modes, shape))
    if plan is not None:
        return plan
    keys = [0]
    steps = []
    products = 0
    for cols, count in shape:
        row = [1 << _FIELD_BITS * j for j in cols]
        for _ in range(count):
            index: dict[int, int] = {}
            firsts = []
            laters = []
            for s, key in enumerate(keys):
                for e, step in enumerate(row):
                    t = index.setdefault(key + step, len(firsts))
                    if t == len(firsts):
                        firsts.append((s, e))
                    else:
                        laters.append((s, e, t))
            steps.append((firsts, laters))
            products += len(firsts) + len(laters)
            keys = list(index)
    bases, scales = zip(*[_output_basis(modes, key) for key in keys])
    plan = steps, bases, scales
    if products <= _PLAN_PRODUCTS:
        if len(_plans) >= _PLANS:
            del _plans[next(iter(_plans))]
        _plans[modes, shape] = plan
    return plan


def apply_mode_transform(state: PureState, transform: ModeTransform) -> PureState:
    """Rewrite every basis term through the transform's operator substitution.

    For each term, every occupied input operator is replaced by its row
    expansion and the polynomial is re-expanded over output occupation
    vectors, with the bosonic sqrt(n!) normalizations applied on both sides.
    The expansion is replayed from the term shape's plan (:func:`_plan`):
    the first product of each output key, then each later product added in
    the order the key-by-key expansion met it, so every amplitude keeps the
    bits of that expansion.  At most ``_PLANS`` plans are kept, and a plan
    of more than ``_PLAN_PRODUCTS`` products is not kept.  Each call builds
    the rows of the input modes it meets.  The norm is preserved; output
    amplitudes that cancel to exactly zero are dropped.

    Raises :class:`UnknownMode` when the state occupies a mode the transform
    does not list, and :class:`TooManyPhotons` for a term with more than
    :data:`MAX_PHOTONS` photons.
    """
    matrix = transform.matrix
    modes = transform.modes
    sqf = _SQRT_FACT
    # per input mode met: (nonzero columns of its row, their entries)
    rows: dict[ModeLabel, tuple[tuple[int, ...], list[complex]]] = {}
    out: dict[FockBasisState, complex] = {}
    for basis, amp in state._terms.items():
        if not basis:
            out[basis] = out.get(basis, 0.0) + amp
            continue
        shape = []
        entries = []
        photons = 0
        denom = 1.0
        for mode, count in basis:
            row = rows.get(mode)
            if row is None:
                if mode not in modes:
                    raise UnknownMode(f"state occupies mode {mode} absent from transform")
                full = matrix[modes.index(mode)].tolist()
                cols = tuple(j for j, u in enumerate(full) if u)
                row = rows[mode] = cols, [full[j] for j in cols]
            photons += count
            if photons > MAX_PHOTONS:
                raise TooManyPhotons(
                    f"term {basis!r} holds more than {MAX_PHOTONS} photons"
                )
            shape.append((row[0], count))
            entries += [row[1]] * count
            denom *= sqf[count]
        steps, bases, scales = _plan(modes, tuple(shape))
        coeffs = [amp / denom]
        for (firsts, laters), u in zip(steps, entries):
            vals = [coeffs[s] * u[e] for s, e in firsts]
            for s, e, t in laters:
                vals[t] += coeffs[s] * u[e]
            coeffs = vals
        # multiplied also by a factor of 1.0, which turns x - 0j into x + 0j
        # for x > 0, as the key-by-key expansion did
        term = {b: c * f for b, c, f in zip(bases, coeffs, scales)}
        if not out:  # the first output: the term's own dict, never copied
            out = term
        elif out.keys().isdisjoint(term.keys()):  # disjoint: update() reuses the term's hashes
            out.update(term)
        else:
            for new_basis, val in term.items():
                prev = out.get(new_basis)
                out[new_basis] = val if prev is None else prev + val
    return PureState._trusted(out)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def reduce_to_channels(state: PureState, keep: Iterable[int]):
    """Exact reduced density matrix of three kept channels.

    Channels outside `keep` (channel indices) are traced out.  Every term must
    hold exactly one photon in each kept channel, and the kept-channel color
    content must lie in the {BBR, BRB, RBB} span of
    :class:`~wchip.density.ThreePhotonRho`.  The result has unit trace.

    Raises :class:`DimensionMismatch` when the photon content does not fit.
    """
    keep = tuple(sorted({parse_channel(c) for c in keep}))
    if len(keep) != 3:
        raise DimensionMismatch(f"can reduce to 3 channels, got {len(keep)}")
    nsq = state.norm_sq()
    if nsq <= 0.0:
        raise EmptyState("cannot reduce a zero-norm state")
    index = {p: i for i, p in enumerate(BASIS_THREE)}
    blocks: dict[FockBasisState, np.ndarray] = {}
    for basis, amp in state._terms.items():
        kept_part, env_part = basis.split(keep)
        try:
            pattern = color_pattern(kept_part, keep)
        except PatternMismatch as exc:
            raise DimensionMismatch(str(exc)) from None
        i = index.get(pattern)
        if i is None:
            raise DimensionMismatch(
                f"color pattern {pattern!r} outside the {'/'.join(BASIS_THREE)} span"
            )
        vec = blocks.get(env_part)
        if vec is None:
            vec = blocks[env_part] = np.zeros(3, dtype=complex)
        vec[i] += amp
    rho = np.zeros((3, 3), dtype=complex)
    for vec in blocks.values():
        rho += np.outer(vec, vec.conjugate())
    rho *= 1.0 / nsq
    return ThreePhotonRho(rho)
