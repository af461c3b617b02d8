"""Post-selection, coincidence statistics, and the counterexample mixtures.

The double-pair emission carries four photons.  A herald event is the
simultaneous detection of one photon in each signal channel (2, 3, 4) plus
one photon at a target detector: a Red photon at T1, or a Blue photon at T2.
Conditioned on the T1 event the signal photons form the W state with two
blue and one red photon; the T2 event gives the color-flipped partner.

:func:`herald` conditions a propagated sparse state, finding each herald
event with one lookup in a table of the 16 four-photon events (8 signal
color patterns per branch); :func:`herald_rows` gives both branches of the
same state from the source channel's transfer rows alone, as every
heralding term comes from the double pair.  Both engines, the reference
:func:`w_state` and ``optimize``'s T1 amplitudes read the heralding terms
from one table, :func:`heralding_terms`.

``rho_incoherent`` and ``rho_biseparable`` build the two mixed states whose
threefold counting statistics are identical to the W state's — they are the
reason counting alone cannot certify the entanglement, and tomography can.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

from .circuit import SIGNAL_CHANNELS, T1_CHANNEL, T2_CHANNEL, check_double_pair
from .density import BASIS_THREE, ThreePhotonRho
from .elements import SourceSpec
from .errors import EmptyState, NotNormalized, ParamOutOfRange, parse_member
from .fock import Color, FockBasisState, ModeLabel, PureState, basis_from_pattern, color_pattern, inner_product

_NORM_TOL = 1e-9

#: All color assignments of one photon per signal channel, in basis order.
COLOR_PATTERNS = tuple("".join(p) for p in itertools.product("BR", repeat=3))


class Branch(Enum):
    """Herald detector: T1 catches the Red herald, T2 the Blue one.  A
    function that takes a branch takes a member, not "T1" or "T2"."""

    T1 = "T1"
    T2 = "T2"


@dataclass(frozen=True)
class HeraldResult:
    """Outcome of post-selecting one herald branch.

    ``probability`` is conditioned on the double-pair emission (the
    four-photon sector).  ``heralded_state`` is the normalized signal-channel
    state, or None when the branch heralds nothing: no heralding amplitude
    is nonzero.  A probability below the subnormal floats rounds to 0.0
    while the state is still given.  ``residual_weight`` is the
    magnitude of the four-photon remainder that feeds neither branch; it is
    reported for bookkeeping and never asserted numerically.
    """

    probability: float
    heralded_state: PureState | None
    residual_weight: float


def heralding_terms(h: int, color: Color) -> tuple:
    """The terms with a photon of `color` on herald channel h and one photon
    on each signal channel, one per signal split ``(s, j, l)`` in
    :data:`SIGNAL_CHANNELS` order (the color's other photon on s, the other
    color's pair on j < l): ``((s, j, l), four-photon basis, signal
    basis)``.  Each has amplitude ``beta**2`` times
    :func:`heralding_amplitude` of ``(u_h, u_s, v_j, v_l)``."""
    other = Color(1 - color)
    terms = []
    for s in SIGNAL_CHANNELS:
        j, l = (ch for ch in SIGNAL_CHANNELS if ch != s)
        photons = ((s, color), (j, other), (l, other))
        signal = FockBasisState((ModeLabel(*photon), 1) for photon in photons)
        terms.append(((s, j, l), FockBasisState((*signal, (ModeLabel(h, color), 1))), signal))
    return tuple(terms)


#: Per branch: the herald photon's color and channel, and its
#: :func:`heralding_terms` as ``(signal basis, s, j, l)`` sorted by signal
#: basis, the order in which :func:`apply_mode_transform` emits them, so
#: both engines give a heralded state its terms in one order.
_ROW_TERMS = {
    branch: (color, h, tuple(sorted((b, *split) for split, _, b in heralding_terms(h, color))))
    for branch, color, h in ((Branch.T1, Color.RED, T1_CHANNEL), (Branch.T2, Color.BLUE, T2_CHANNEL))
}

#: Every herald event as :func:`herald` finds it: the four-photon basis of
#: one photon per signal channel, in each color pattern of
#: :data:`COLOR_PATTERNS`, plus the branch's herald photon (Red at
#: ``T1_CHANNEL``, Blue at ``T2_CHANNEL``) -> (branch, signal basis).
_HERALD_EVENTS = {
    FockBasisState((*signal, (ModeLabel(h, color), 1))): (branch, signal)
    for branch, (color, h, _) in _ROW_TERMS.items()
    for signal in (basis_from_pattern(pattern, SIGNAL_CHANNELS) for pattern in COLOR_PATTERNS)
}

#: The photon count of a ``(mode, count)`` pair of a basis state.
_COUNT = itemgetter(1)

#: Channels a transfer row must span for :data:`_ROW_TERMS` to index it.
_ROW_WIDTH = 1 + max(*SIGNAL_CHANNELS, T1_CHANNEL, T2_CHANNEL)


def w_state(branch: Branch) -> PureState:
    """The reference W state of the branch on the signal channels, its
    terms in the order BBR, BRB, RBB on T1 (RRB, RBR, BRR on T2)."""
    color, h, _ = _ROW_TERMS[parse_member(branch, Branch, "branch")]
    amp = 1.0 / math.sqrt(3.0)
    return PureState({signal: amp for _, _, signal in reversed(heralding_terms(h, color))})


#: :func:`w_state` of each branch, built once.
_W_STATES = {branch: w_state(branch) for branch in Branch}


def _scaled(terms: list) -> tuple[list, int]:
    """`terms` times the power of two ``2**m`` that brings their largest
    part into [0.5, 1), and `m`: no ratio moves, and a weight below the
    normal floats is lifted.  The exponent is that of the largest part;
    with no nonzero term `m` is 0, the exponent ``math.frexp`` gives 0.0."""
    m = -math.frexp(max((max(abs(a.real), abs(a.imag)) for _, a in terms), default=0.0))[1]
    return [(b, complex(math.ldexp(a.real, m), math.ldexp(a.imag, m))) for b, a in terms], m


def herald(state: PureState, branch: Branch) -> HeraldResult:
    """Condition on one herald branch of a propagated circuit output.

    The T1 branch keeps four-photon terms with one photon per signal channel
    and exactly one Red photon at ``T1_CHANNEL``; T2 likewise with a Blue
    photon at ``T2_CHANNEL``.  In term order, each four-photon term adds its
    weight to the sector's and one lookup in :data:`_HERALD_EVENTS` gives
    its branch, if any, and signal basis; other terms are skipped.  An empty
    herald component is reported as probability 0.0 (never as an exception).
    Probabilities of both branches are computed in one pass so the residual
    weight

        ``sqrt(max(0, 1 - P_T1 - P_T2))``

    of the non-heralding four-photon remainder comes for free.  A branch weight
    below the normal floats is summed again on rescaled amplitudes; a four-photon
    one (|beta| under about 1e-77) raises :class:`ParamOutOfRange`.
    """
    branch = parse_member(branch, Branch, "branch")
    four_sq = 0.0
    branch_terms: dict[Branch, list] = {Branch.T1: [], Branch.T2: []}
    branch_sq = {Branch.T1: 0.0, Branch.T2: 0.0}
    for basis, amp in state.items():
        if sum(map(_COUNT, basis)) != 4:
            continue
        p = amp.real * amp.real + amp.imag * amp.imag
        four_sq += p
        event = _HERALD_EVENTS.get(basis)
        if event is not None:
            hit, signal = event
            branch_terms[hit].append((signal, amp))
            branch_sq[hit] += p
    tiny = sys.float_info.min
    if four_sq < tiny or (branch_terms[branch] and branch_sq[branch] < tiny and four_sq < 0.25):
        four = [(b, a) for b, a in state.items() if sum(map(_COUNT, b)) == 4]
        if four_sq >= tiny:  # only the branch weight underflows
            return herald(PureState(dict(_scaled(four)[0])), branch)
        if four:
            raise ParamOutOfRange(f"four-photon weight {four_sq!r} underflows (|beta| too small)")
        return HeraldResult(0.0, None, 0.0)
    return _conditioned(branch_terms[branch], branch_sq, four_sq, branch)


def _conditioned(terms: list, branch_sq: dict, four_sq: float, branch: Branch) -> HeraldResult:
    """The :class:`HeraldResult` of `branch` from its heralding terms
    (signal photons only) and both branches' weights in a four-photon
    sector of weight `four_sq`."""
    p_t1 = branch_sq[Branch.T1] / four_sq
    p_t2 = branch_sq[Branch.T2] / four_sq
    residual = math.sqrt(max(0.0, 1.0 - p_t1 - p_t2))
    if not terms:  # no heralding amplitude is nonzero
        return HeraldResult(0.0, None, residual)
    prob = p_t1 if branch is Branch.T1 else p_t2
    terms, m = _scaled(terms)
    weight = sum(a.real * a.real + a.imag * a.imag for _, a in terms)
    if prob < sys.float_info.min:  # the squares underflowed: take the lifted ones
        prob = math.ldexp(weight / four_sq, -2 * m)
    scale = 1.0 / math.sqrt(weight)
    return HeraldResult(prob, PureState({b: a * scale for b, a in terms}), residual)


def heralding_amplitude(u_h, u_s, v_j, v_l):
    """Amplitude per beta**2 of the term with photons of one color on the
    herald channel h and on signal channel s, and the other color's pair on
    signal channels j and l, from the entries of the source rows u (that
    color's) and v (the other's).  Each color's pair propagates as
    (1/sqrt 2)(sum_j u_j a_j^dag)^2 |0> (a permanent with repeated rows;
    Scheel, quant-ph/0406127), with amplitude sqrt(2) u_j u_k on modes
    j != k, so the term has ``2 u_h u_s v_j v_l``.  Entries may be complex
    or real scalars or broadcast arrays."""
    return 2.0 * u_h * u_s * v_j * v_l


def herald_rows(rows: tuple, source: SourceSpec) -> dict[Branch, HeraldResult]:
    """:func:`herald` of both branches, T1 first, of ``propagate(source,
    spec)``, from ``rows = transfer_rows(spec, source.channel)`` alone.

    Only the double pair |2_B, 2_R> holds four photons: each heralding term
    has amplitude ``beta**2`` times :func:`heralding_amplitude`, and the
    four-photon sector weighs ``|beta**2|**2 (|u|**2 |v|**2)**2`` for the
    rows u and v of the two colors.  The probabilities are their ratios
    with beta left out, and each heralded state of at most three terms
    keeps the phase of beta**2, so the results
    are :func:`herald`'s up to rounding, with its errors at the same beta:
    :func:`check_double_pair` and the four-photon weight floor.  A
    subnormal branch weight leaves the heralded state intact, as there.
    """
    check_double_pair(source)
    beta2 = source.beta * source.beta if source.max_order == 2 else 0j
    if not beta2:  # no double pair
        return dict.fromkeys(Branch, HeraldResult(0.0, None, 0.0))
    rows = [list(row) + [0j] * (_ROW_WIDTH - len(row)) for row in rows]
    norm_sq = [sum(a.real * a.real + a.imag * a.imag for a in row) for row in rows]
    four_sq = (norm_sq[0] * norm_sq[1]) ** 2
    weight = abs(beta2) ** 2 * four_sq
    if weight < sys.float_info.min:
        raise ParamOutOfRange(f"four-photon weight {weight!r} underflows (|beta| too small)")
    phase = beta2 / abs(beta2)
    branch_terms, branch_sq = {}, {}
    for branch, (color, h, terms) in _ROW_TERMS.items():
        u, v = rows[color], rows[1 - color]
        amps = [(basis, heralding_amplitude(u[h], u[s], v[j], v[l])) for basis, s, j, l in terms]
        branch_sq[branch] = sum(a.real * a.real + a.imag * a.imag for _, a in amps)
        branch_terms[branch] = [(basis, a * phase) for basis, a in amps if a]
    return {
        branch: _conditioned(branch_terms[branch], branch_sq, four_sq, branch)
        for branch in Branch
    }


def w_fidelity(state3: PureState, target: Branch) -> float:
    """|<W_target|state3>|**2 for a normalized state on channels (2, 3, 4)."""
    nsq = state3.norm_sq()
    if abs(nsq - 1.0) > _NORM_TOL:
        raise NotNormalized(f"state norm**2 = {nsq:.12g}, expected 1")
    overlap = inner_product(_W_STATES[parse_member(target, Branch, "target")], state3)
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
