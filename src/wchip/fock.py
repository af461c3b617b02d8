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
* Amplitudes below ``PRUNE_EPS`` are dropped after every transform to keep
  supports sparse.

:func:`apply_mode_transform` expands each term's operator polynomial (a
permanent with repeated rows; Scheel, quant-ph/0406127) over integer keys
with one fixed-width occupation field per output mode, and reuses each
output basis state with its sqrt(m!) factor from a bounded table per mode
list, so the per-photon step is one integer addition and one dict update.
A term may hold at most ``MAX_PHOTONS`` photons.  A transform's sparse rows
are built on first use and only for the input modes a state occupies (two of
fourteen for the canonical source), and the kernel hands its finished
amplitude map to a trusted :class:`PureState` constructor that prunes it in
place instead of converting and re-inserting every term.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyState,
    NotUnitary,
    ParamOutOfRange,
    PatternMismatch,
    TooManyPhotons,
    UnknownMode,
)

#: Amplitudes with magnitude below this are discarded after every transform.
PRUNE_EPS = 1e-14

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

#: Bounds of the interned output bases: mode lists kept, and entries per
#: mode list before its table is cleared.
_OUTPUT_TABLES = 8
_OUTPUT_TABLE_SIZE = 4096


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

    @classmethod
    def from_letter(cls, letter: str) -> "Color":
        try:
            return {"R": cls.RED, "B": cls.BLUE}[letter.upper()[0]]
        except (KeyError, IndexError):
            raise ValueError(f"unknown color letter {letter!r}") from None


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

    Zero counts are never stored, so equality is structural and the empty
    tuple is the vacuum.  Instances are immutable and hashable.
    """

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[ModeLabel, int]] = ()):
        acc: dict[ModeLabel, int] = {}
        for mode, count in pairs:
            if not isinstance(mode, ModeLabel):
                mode = ModeLabel(int(mode[0]), Color(mode[1]))
            count = int(count)
            if count < 0:
                raise ValueError(f"negative occupation {count} at {mode}")
            if count:
                acc[mode] = acc.get(mode, 0) + count
        return tuple.__new__(cls, sorted(acc.items()))

    @classmethod
    def _from_sorted(cls, pairs: Sequence[tuple[ModeLabel, int]]) -> "FockBasisState":
        """Trusted constructor: pairs already canonical (sorted, positive)."""
        return tuple.__new__(cls, pairs)

    @classmethod
    def vacuum(cls) -> "FockBasisState":
        return _VACUUM

    @classmethod
    def single(cls, mode: ModeLabel) -> "FockBasisState":
        return tuple.__new__(cls, ((mode, 1),))

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


_VACUUM = tuple.__new__(FockBasisState, ())


def color_pattern(basis: FockBasisState, channels: Sequence[int]) -> str:
    """Color string (e.g. ``"BBR"``) of a basis term with exactly one photon
    in each of the given channels and nothing anywhere else.

    Raises :class:`PatternMismatch` when the photon content differs.
    """
    if len(basis) != len(channels):
        raise PatternMismatch(
            f"expected one photon in each of channels {tuple(channels)}, got {basis!r}"
        )
    by_channel = {}
    for mode, count in basis:
        if count != 1 or mode.channel in by_channel:
            raise PatternMismatch(
                f"expected one photon in each of channels {tuple(channels)}, got {basis!r}"
            )
        by_channel[mode.channel] = mode.color
    try:
        return "".join(by_channel[ch].letter for ch in channels)
    except KeyError:
        raise PatternMismatch(
            f"expected one photon in each of channels {tuple(channels)}, got {basis!r}"
        ) from None


def basis_from_pattern(pattern: str, channels: Sequence[int]) -> FockBasisState:
    """Inverse of :func:`color_pattern`: one photon per channel, colors from
    the letter string."""
    if len(pattern) != len(channels):
        raise PatternMismatch(f"pattern {pattern!r} does not fit channels {channels}")
    return FockBasisState(
        (ModeLabel(ch, Color.from_letter(letter)), 1)
        for ch, letter in zip(channels, pattern)
    )


# ---------------------------------------------------------------------------
# pure states
# ---------------------------------------------------------------------------


class PureState:
    """Sparse superposition ``sum_b amplitude(b) |b>``.

    Terms with amplitude magnitude below :data:`PRUNE_EPS` are dropped at
    construction; a NaN or infinite amplitude raises
    :class:`ParamOutOfRange`.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[FockBasisState, complex] | Iterable[tuple[FockBasisState, complex]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms: dict[FockBasisState, complex] = {}
        for b, a in items:
            a = complex(a)
            if not cmath.isfinite(a):
                raise ParamOutOfRange(f"amplitude of {b!r} must be finite, got {a}")
            if abs(a) > PRUNE_EPS:
                self._terms[b] = a

    @classmethod
    def _trusted(cls, terms: dict[FockBasisState, complex]) -> "PureState":
        """Trusted constructor: takes ``terms``, whose amplitudes are finite
        complex numbers already, and prunes it in place as ``__init__`` does,
        so the kept terms keep their order."""
        for b in [b for b, a in terms.items() if not abs(a) > PRUNE_EPS]:
            del terms[b]
        state = object.__new__(cls)
        state._terms = terms
        return state

    @classmethod
    def basis(cls, basis_state: FockBasisState) -> "PureState":
        return cls({basis_state: 1.0})

    def items(self) -> Iterator[tuple[FockBasisState, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def amplitude(self, basis_state: FockBasisState) -> complex:
        return self._terms.get(basis_state, 0j)

    def norm_sq(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag for a in self._terms.values()), 0.0)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

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
        if not np.isfinite(mat).all():
            raise NotUnitary("transform matrix holds a non-finite entry")
        order = sorted(range(len(modes)), key=lambda i: modes[i])
        if order != list(range(len(modes))):
            perm = np.array(order)
            mat = mat[np.ix_(perm, perm)]
            modes = tuple(modes[i] for i in order)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "matrix", mat)
        dev = self.unitarity_deviation()
        if not dev <= UNITARY_TOL:
            raise NotUnitary(f"transform deviates from unitarity by {dev:.3g}")

    def unitarity_deviation(self) -> float:
        m = self.matrix
        gram = m @ m.conj().T
        return float(np.max(np.abs(gram - np.eye(m.shape[0]))))

    @cached_property
    def _mode_pos(self) -> dict[ModeLabel, int]:
        return {m: i for i, m in enumerate(self.modes)}

    @cached_property
    def _sparse_rows(self) -> list[tuple[tuple[int, complex], ...] | None]:
        """Per input mode, the row :meth:`_sparse_row` built, or ``None``."""
        return [None] * len(self.modes)

    def _sparse_row(self, i: int) -> tuple[tuple[int, complex], ...]:
        """``(key step, entry)`` for each entry of row ``i`` above
        :data:`PRUNE_EPS`, where the key step ``1 << _FIELD_BITS * j`` adds
        one photon to output mode ``j`` of an expansion key; built on first
        use."""
        row = self._sparse_rows[i]
        if row is None:
            entries = self.matrix[i]
            kept = (np.abs(entries) > PRUNE_EPS).tolist()
            row = self._sparse_rows[i] = tuple(
                (1 << _FIELD_BITS * j, u)
                for j, (u, keep) in enumerate(zip(entries.tolist(), kept))
                if keep
            )
        return row


@lru_cache(maxsize=_OUTPUT_TABLES)
def _output_table(modes: tuple[ModeLabel, ...]) -> dict[int, tuple[FockBasisState, float]]:
    """Interned output bases of :func:`apply_mode_transform` over one mode
    list, keyed by expansion key: ``(basis, prod_j sqrt(m_j!))``."""
    return {}


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


def apply_mode_transform(state: PureState, transform: ModeTransform) -> PureState:
    """Rewrite every basis term through the transform's operator substitution.

    For each term, every occupied input operator is replaced by its row
    expansion and the polynomial is re-expanded over output occupation
    vectors, with the bosonic sqrt(n!) normalizations applied on both sides.
    The polynomial is keyed by an integer holding one fixed-width occupation
    field per output mode, so adding a photon to mode ``j`` is one integer
    addition; each output key is decoded into its basis state and factor
    once per mode list and then looked up (a bounded table).  Only the rows
    of occupied input modes are built.  The norm is preserved; output amplitudes below :data:`PRUNE_EPS` are pruned.

    Raises :class:`UnknownMode` when the state occupies a mode the transform
    does not list, and :class:`TooManyPhotons` for a term with more than
    :data:`MAX_PHOTONS` photons.
    """
    mode_pos = transform._mode_pos
    sparse_row = transform._sparse_row
    modes = transform.modes
    outputs = _output_table(modes)
    if len(outputs) > _OUTPUT_TABLE_SIZE:
        outputs.clear()
    sqf = _SQRT_FACT
    out: dict[FockBasisState, complex] = {}
    for basis, amp in state._terms.items():
        if not basis:
            out[_VACUUM] = out.get(_VACUUM, 0.0) + amp
            continue
        row_list = []
        photons = 0
        denom = 1.0
        for mode, count in basis:
            i = mode_pos.get(mode)
            if i is None:
                raise UnknownMode(f"state occupies mode {mode} absent from transform")
            photons += count
            if photons > MAX_PHOTONS:
                raise TooManyPhotons(
                    f"term {basis!r} holds more than {MAX_PHOTONS} photons"
                )
            row_list.append((sparse_row(i), count))
            denom *= sqf[count]
        poly: dict[int, complex] = {0: amp / denom}
        for row, count in row_list:
            for _ in range(count):
                nxt: dict[int, complex] = {}
                for key, coeff in poly.items():
                    for step, u in row:
                        nk = key + step
                        prev = nxt.get(nk)
                        nxt[nk] = coeff * u if prev is None else prev + coeff * u
                poly = nxt
        for key, coeff in poly.items():
            entry = outputs.get(key)
            if entry is None:
                entry = outputs[key] = _output_basis(modes, key)
            new_basis, scale = entry
            prev = out.get(new_basis)
            val = coeff * scale
            out[new_basis] = val if prev is None else prev + val
    return PureState._trusted(out)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def reduce_to_channels(state: PureState, keep: Iterable[int]):
    """Exact reduced density matrix of three kept channels.

    Channels outside `keep` are traced out.  Every term must hold exactly one
    photon in each kept channel, and the kept-channel color content must lie
    in the {BBR, BRB, RBB} span of :class:`~wchip.density.ThreePhotonRho`.
    The result has unit trace.

    Raises :class:`DimensionMismatch` when the photon content does not fit.
    """
    from .density import BASIS_THREE, ThreePhotonRho

    keep = tuple(sorted({int(c) for c in keep}))
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
