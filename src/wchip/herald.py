"""Post-selection, coincidence statistics, and the counterexample mixtures.

The double-pair emission carries four photons.  A herald event is the
simultaneous detection of one photon in each signal channel (2, 3, 4) plus
one photon at a target detector: a Red photon at T1, or a Blue photon at T2.
Conditioned on the T1 event the signal photons form the W state with two
blue and one red photon; the T2 event gives the color-flipped partner.

``rho_incoherent`` and ``rho_biseparable`` build the two mixed states whose
threefold counting statistics are identical to the W state's — they are the
reason counting alone cannot certify the entanglement, and tomography can.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import SIGNAL_CHANNELS, T1_CHANNEL, T2_CHANNEL
from .density import BASIS_THREE, ThreePhotonRho
from .errors import EmptyState, NotNormalized
from .fock import (
    Color,
    FockBasisState,
    ModeLabel,
    PureState,
    apply_creation,
    basis_from_pattern,
    color_amplitudes,
    color_pattern,
    inner_product,
)

_NORM_TOL = 1e-9

#: All color assignments of one photon per signal channel, in basis order.
COLOR_PATTERNS = tuple("".join(p) for p in itertools.product("BR", repeat=3))


class Branch(Enum):
    """Herald detector: T1 catches the Red herald, T2 the Blue one."""

    T1 = "T1"
    T2 = "T2"


@dataclass(frozen=True)
class HeraldResult:
    """Outcome of post-selecting one herald branch.

    ``probability`` is conditioned on the double-pair emission (the
    four-photon sector).  ``heralded_state`` is the normalized signal-channel
    state, or None when the probability is zero.  ``residual_weight`` is the
    magnitude of the four-photon remainder that feeds neither branch; it is
    reported for bookkeeping and never asserted numerically.
    """

    probability: float
    heralded_state: PureState | None
    residual_weight: float


def _w_patterns(branch: Branch) -> tuple[str, ...]:
    return ("BBR", "BRB", "RBB") if branch is Branch.T1 else ("RRB", "RBR", "BRR")


def w_state(branch: Branch, channels=SIGNAL_CHANNELS) -> PureState:
    """The reference W state of the branch on the signal channels."""
    amp = 1.0 / math.sqrt(3.0)
    return PureState(
        {basis_from_pattern(p, channels): amp for p in _w_patterns(branch)}
    )


def herald(
    state: PureState,
    branch: Branch,
    *,
    signal_channels=SIGNAL_CHANNELS,
    t1_channel: int = T1_CHANNEL,
    t2_channel: int = T2_CHANNEL,
) -> HeraldResult:
    """Condition on one herald branch of a propagated circuit output.

    The T1 branch keeps four-photon terms with one photon per signal channel
    and exactly one Red photon at ``t1_channel``; T2 likewise with a Blue
    photon at ``t2_channel``.  An empty herald component is reported as
    probability 0.0 (never as an exception).  Probabilities of both branches
    are computed in one pass so the residual weight

        ``sqrt(max(0, 1 - P_T1 - P_T2))``

    of the non-heralding four-photon remainder comes for free.
    """
    branch = Branch(branch)
    sig = tuple(signal_channels)
    herald_mode = {
        Branch.T1: ModeLabel(int(t1_channel), Color.RED),
        Branch.T2: ModeLabel(int(t2_channel), Color.BLUE),
    }
    four_sq = 0.0
    branch_terms: dict[Branch, dict[FockBasisState, complex]] = {
        Branch.T1: {},
        Branch.T2: {},
    }
    branch_sq = {Branch.T1: 0.0, Branch.T2: 0.0}
    for basis, amp in state.items():
        total = 0
        for _, n in basis:
            total += n
        if total != 4:
            continue
        p = amp.real * amp.real + amp.imag * amp.imag
        four_sq += p
        # classify: one photon per signal channel + the right herald photon
        slot = None
        signal_ok = True
        per_channel = dict.fromkeys(sig, 0)
        for mode, n in basis:
            ch = mode.channel
            if ch in sig:
                per_channel[ch] += n
            elif slot is None and n == 1:
                for b, hm in herald_mode.items():
                    if mode == hm:
                        slot = b
                        break
                else:
                    signal_ok = False
                    break
            else:
                signal_ok = False
                break
        if not (
            signal_ok
            and slot is not None
            and all(count == 1 for count in per_channel.values())
        ):
            continue
        stripped = FockBasisState._from_sorted(
            tuple(pair for pair in basis if pair[0] != herald_mode[slot])
        )
        branch_terms[slot][stripped] = amp
        branch_sq[slot] += p
    if four_sq <= 0.0:
        return HeraldResult(0.0, None, 0.0)
    p_t1 = branch_sq[Branch.T1] / four_sq
    p_t2 = branch_sq[Branch.T2] / four_sq
    residual = math.sqrt(max(0.0, 1.0 - p_t1 - p_t2))
    prob = p_t1 if branch is Branch.T1 else p_t2
    if prob <= 0.0:
        return HeraldResult(0.0, None, residual)
    scale = 1.0 / math.sqrt(branch_sq[branch])
    heralded = PureState(
        {b: a * scale for b, a in branch_terms[branch].items()}
    )
    return HeraldResult(prob, heralded, residual)


def w_fidelity(state3: PureState, target: Branch) -> float:
    """|<W_target|state3>|**2 for a normalized state on channels (2, 3, 4)."""
    nsq = state3.norm_sq()
    if abs(nsq - 1.0) > _NORM_TOL:
        raise NotNormalized(f"state norm**2 = {nsq:.12g}, expected 1")
    overlap = inner_product(w_state(Branch(target)), state3)
    return min(1.0, abs(overlap) ** 2)


def coincidence_distribution(state3: PureState) -> dict[str, float]:
    """Threefold coincidence probabilities over the 8 color patterns.

    Requires exactly one photon in each of channels 2, 3, 4 (raises
    :class:`~wchip.errors.PatternMismatch` otherwise); probabilities sum
    to one.
    """
    amp_sq = {
        color_pattern(basis, SIGNAL_CHANNELS): amp.real * amp.real + amp.imag * amp.imag
        for basis, amp in state3.items()
    }
    total = sum(amp_sq.values())
    if total <= 0.0:
        raise EmptyState("cannot build coincidence statistics of a zero state")
    dist = dict.fromkeys(COLOR_PATTERNS, 0.0)
    for pattern, p in amp_sq.items():
        dist[pattern] = p / total
    return dist


def coincidence_distribution_rho(rho: ThreePhotonRho) -> dict[str, float]:
    """Counting statistics of a three-photon density matrix: its diagonal on
    the two-blue/one-red span, zero on the other five patterns."""
    dist = dict.fromkeys(COLOR_PATTERNS, 0.0)
    for label, value in zip(BASIS_THREE, rho.diagonals):
        dist[label] = value
    return dist


# ---------------------------------------------------------------------------
# counterexample mixtures
# ---------------------------------------------------------------------------


def rho_incoherent() -> ThreePhotonRho:
    """Equal incoherent mixture of the three basis patterns: same counting
    statistics as the W state, no coherences at all."""
    return ThreePhotonRho(np.eye(3, dtype=complex) / 3.0)


def rho_biseparable() -> ThreePhotonRho:
    """Equal mixture of the three biseparable blue-photon x Bell-pair states.

    Each component puts a blue photon in one signal channel and the Bell
    state (|BR> + |RB>)/sqrt(2) on the remaining pair; all three components
    live in the two-blue/one-red span, so the mixture shares the W state's
    1/3 counting diagonals while its coherences are strictly smaller.
    """
    channels = SIGNAL_CHANNELS
    rho = np.zeros((3, 3), dtype=complex)
    for blue_channel in channels:
        pair = tuple(ch for ch in channels if ch != blue_channel)
        bell = PureState(
            {
                basis_from_pattern("BR", pair): 1.0 / math.sqrt(2.0),
                basis_from_pattern("RB", pair): 1.0 / math.sqrt(2.0),
            }
        )
        component = apply_creation(bell, ModeLabel(blue_channel, Color.BLUE))
        amps = color_amplitudes(component, channels)
        vec = np.array([amps.get(p, 0.0) for p in BASIS_THREE], dtype=complex)
        rho += np.outer(vec, vec.conjugate()) / 3.0
    return ThreePhotonRho(rho)
