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
from .fock import Color, FockBasisState, PureState, basis_from_pattern, color_pattern, inner_product

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


def _herald_term(branch: Branch, channel: int, color: Color):
    channels = tuple(sorted((*SIGNAL_CHANNELS, channel)))
    return channels, (branch, channels.index(channel), color)


#: The heralding terms: channels of the four single photons in basis
#: (channel-major) order -> (branch, position of the herald photon among
#: them, its color).  A four-photon term heralds the branch when its photons
#: sit one per channel on a key of this table and the herald photon has
#: that color.
HERALD_TERMS = dict(
    (_herald_term(Branch.T1, T1_CHANNEL, Color.RED), _herald_term(Branch.T2, T2_CHANNEL, Color.BLUE))
)


def _w_patterns(branch: Branch) -> tuple[str, ...]:
    return ("BBR", "BRB", "RBB") if branch is Branch.T1 else ("RRB", "RBR", "BRR")


def w_state(branch: Branch) -> PureState:
    """The reference W state of the branch on the signal channels."""
    amp = 1.0 / math.sqrt(3.0)
    return PureState(
        {basis_from_pattern(p, SIGNAL_CHANNELS): amp for p in _w_patterns(branch)}
    )


def herald(state: PureState, branch: Branch) -> HeraldResult:
    """Condition on one herald branch of a propagated circuit output.

    The T1 branch keeps four-photon terms with one photon per signal channel
    and exactly one Red photon at ``T1_CHANNEL``; T2 likewise with a Blue
    photon at ``T2_CHANNEL`` (the keys of :data:`HERALD_TERMS`).  Each term
    is classified in one pass over its four pairs, in term order.  An empty
    herald component is reported as probability 0.0 (never as an exception).
    Probabilities of both branches are computed in one pass so the residual
    weight

        ``sqrt(max(0, 1 - P_T1 - P_T2))``

    of the non-heralding four-photon remainder comes for free.
    """
    branch = Branch(branch)
    four_sq = 0.0
    branch_terms: dict[Branch, list] = {Branch.T1: [], Branch.T2: []}
    branch_sq = {Branch.T1: 0.0, Branch.T2: 0.0}
    for basis, amp in state.items():
        if len(basis) != 4:
            # Fewer pairs may still hold four photons; none of them heralds.
            if len(basis) < 4 and sum(n for _, n in basis) == 4:
                four_sq += amp.real * amp.real + amp.imag * amp.imag
            continue
        ((ch0, c0), n0), ((ch1, c1), n1), ((ch2, c2), n2), ((ch3, c3), n3) = basis
        if n0 + n1 + n2 + n3 != 4:  # counts are positive: four single photons
            continue
        p = amp.real * amp.real + amp.imag * amp.imag
        four_sq += p
        slot = HERALD_TERMS.get((ch0, ch1, ch2, ch3))
        if slot is None:
            continue
        hit, k, color = slot
        if (c0, c1, c2, c3)[k] != color:
            continue
        stripped = FockBasisState._from_sorted(basis[:k] + basis[k + 1 :])
        branch_terms[hit].append((stripped, amp))
        branch_sq[hit] += p
    if four_sq <= 0.0:
        return HeraldResult(0.0, None, 0.0)
    p_t1 = branch_sq[Branch.T1] / four_sq
    p_t2 = branch_sq[Branch.T2] / four_sq
    residual = math.sqrt(max(0.0, 1.0 - p_t1 - p_t2))
    prob = p_t1 if branch is Branch.T1 else p_t2
    if prob <= 0.0:
        return HeraldResult(0.0, None, residual)
    scale = 1.0 / math.sqrt(branch_sq[branch])
    heralded = PureState({b: a * scale for b, a in branch_terms[branch]})
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

    Component k puts a blue photon in signal channel k and the Bell state
    (|BR> + |RB>)/sqrt(2) on the remaining pair, so its vector in
    :data:`BASIS_THREE` is 1/sqrt(2) on the two patterns with a B at
    position k.  All three components live in the two-blue/one-red span,
    so the mixture shares the W state's 1/3 counting diagonals while its
    coherences are strictly smaller.
    """
    amp = 1.0 / math.sqrt(2.0)
    rho = np.zeros((3, 3), dtype=complex)
    for k in range(len(SIGNAL_CHANNELS)):
        vec = np.array([amp if p[k] == "B" else 0.0 for p in BASIS_THREE], dtype=complex)
        rho += np.outer(vec, vec.conjugate()) / 3.0
    return ThreePhotonRho(rho)
