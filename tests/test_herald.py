"""Tests for herald post-selection, W references, and coincidence statistics.

The proportionality checks against the closed-form prefactor in oracles.py
are the central dual-route comparison: the package computes probabilities by
propagating states, the oracle only knows the parameter dependence, and the
two must agree up to one global constant for every parameter draw.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wchip.circuit import build_transform, canonical_w_circuit
from wchip.elements import two_pair_state
from wchip.errors import EmptyState, NotNormalized
from wchip.fock import Color, FockBasisState, ModeLabel, PureState, apply_mode_transform, inner_product
from wchip.herald import (
    COLOR_PATTERNS,
    Branch,
    coincidence_distribution,
    coincidence_distribution_rho,
    herald,
    rho_biseparable,
    rho_incoherent,
    w_fidelity,
    w_state,
)

from oracles import herald_prefactor, per_term_dict_herald, rho_b_matrix

OPT = (0.5, 1 / math.sqrt(3), 1 / math.sqrt(2))


def _propagated(r1, r2, r3, phis=(0.0, 0.0, 0.0), eps=0.0):
    spec = canonical_w_circuit(r1, r2, r3, *phis, ad2_extinction=eps)
    return apply_mode_transform(two_pair_state(0), build_transform(spec))


def test_w_states_are_normalized_and_orthogonal():
    wt1 = w_state(Branch.T1)
    wt2 = w_state(Branch.T2)
    assert wt1.norm() == pytest.approx(1.0)
    assert wt2.norm() == pytest.approx(1.0)
    assert inner_product(wt1, wt2) == 0.0


def test_optimal_point_heralds_exact_w():
    state = _propagated(*OPT)
    for branch in (Branch.T1, Branch.T2):
        res = herald(state, branch)
        assert res.probability == pytest.approx(3 / 64, abs=1e-12)
        assert w_fidelity(res.heralded_state, branch) == pytest.approx(1.0, abs=1e-12)


def test_heralded_amplitudes_are_uniform_at_optimum():
    res = herald(_propagated(*OPT), Branch.T1)
    amps = [res.heralded_state.amplitude(b) for b, _ in res.heralded_state.items()]
    assert len(amps) == 3
    for amp in amps:
        assert amp == pytest.approx(1 / math.sqrt(3), abs=1e-12)


@given(
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
    st.tuples(*[st.floats(-4.0, 4.0)] * 3),
)
def test_branch_probabilities_equal_for_any_parameters(r, phis):
    state = _propagated(*r, phis=phis)
    p1 = herald(state, Branch.T1).probability
    p2 = herald(state, Branch.T2).probability
    assert abs(p1 - p2) < 1e-12


def test_probability_tracks_prefactor_with_constant_twelve():
    # P / (r1 t1^3 r2 t2^2 r3 t3)^2 must not move across parameter space;
    # the brute-force value of the constant itself is 12
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(30):
        r1, r2, r3 = rng.uniform(0.05, 0.95, size=3)
        p = herald(_propagated(r1, r2, r3), Branch.T1).probability
        ratios.append(p / herald_prefactor(r1, r2, r3))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread < 1e-9
    assert ratios[0] == pytest.approx(12.0, rel=1e-9)


def test_fidelity_is_one_everywhere_in_the_open_box():
    rng = np.random.default_rng(12)
    for _ in range(15):
        r1, r2, r3 = rng.uniform(0.05, 0.95, size=3)
        state = _propagated(r1, r2, r3)
        for branch in (Branch.T1, Branch.T2):
            res = herald(state, branch)
            assert w_fidelity(res.heralded_state, branch) >= 1.0 - 1e-10


def test_coupler_phases_only_shift_the_global_phase():
    # the engine's convention: the heralded state acquires exp(i(p1+p2+p3))
    base = herald(_propagated(*OPT), Branch.T1).heralded_state
    rng = np.random.default_rng(9)
    for _ in range(8):
        phis = tuple(rng.uniform(-math.pi, math.pi, size=3))
        res = herald(_propagated(*OPT, phis=phis), Branch.T1)
        assert res.probability == pytest.approx(3 / 64, abs=1e-12)
        overlap = inner_product(base, res.heralded_state)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
        assert cmath.phase(overlap * cmath.exp(-1j * sum(phis))) == pytest.approx(0.0, abs=1e-9)


def test_herald_probability_independent_of_extinction():
    # the Red herald ignores the router imperfection: only Blue leaks to T1,
    # and the color-aware branch never accepts those terms
    for eps in (0.0, 0.1, 0.7):
        p = herald(_propagated(*OPT, eps=eps), Branch.T1).probability
        assert p == pytest.approx(3 / 64, abs=1e-12)


def test_zero_four_photon_component_gives_probability_zero():
    res = herald(PureState.basis(FockBasisState.vacuum()), Branch.T1)
    assert res.probability == 0.0
    assert res.heralded_state is None
    assert res.residual_weight == 0.0


def test_residual_weight_accounts_for_missing_branches():
    state = _propagated(*OPT)
    res = herald(state, Branch.T1)
    assert res.residual_weight == pytest.approx(math.sqrt(1 - 2 * (3 / 64)), abs=1e-12)


def test_w_fidelity_requires_normalized_input():
    with pytest.raises(NotNormalized):
        w_fidelity(PureState({b: 0.5 * a for b, a in w_state(Branch.T1).items()}), Branch.T1)


class TestCoincidence:
    def test_w_distribution_is_uniform_thirds(self):
        dist = coincidence_distribution(w_state(Branch.T1))
        assert set(dist) == set(COLOR_PATTERNS)
        for pattern in ("BBR", "BRB", "RBB"):
            assert dist[pattern] == pytest.approx(1 / 3, abs=1e-12)
        for pattern in ("BBB", "RRR", "RRB", "RBR", "BRR"):
            assert dist[pattern] == 0.0

    def test_distribution_sums_to_one(self):
        dist = coincidence_distribution(w_state(Branch.T2))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_state_raises(self):
        with pytest.raises(EmptyState):
            coincidence_distribution(PureState({}))

    def test_rho_distribution_matches_diagonals(self):
        dist = coincidence_distribution_rho(rho_incoherent())
        for pattern in ("BBR", "BRB", "RBB"):
            assert dist[pattern] == pytest.approx(1 / 3, abs=1e-12)
        assert dist["RRB"] == 0.0


class TestReferenceMixtures:
    def test_incoherent_mixture_is_identity_thirds(self):
        rho = rho_incoherent()
        assert np.allclose(rho.matrix, np.eye(3) / 3)
        assert rho.fidelity_w() == pytest.approx(1 / 3, abs=1e-12)

    def test_biseparable_mixture_matches_outer_product_oracle(self):
        # package route: creation operators and reduction; oracle route:
        # explicit vectors in the pattern basis
        assert np.allclose(rho_biseparable().matrix, rho_b_matrix(), atol=1e-12)

    def test_biseparable_fidelity_two_thirds(self):
        assert rho_biseparable().fidelity_w() == pytest.approx(2 / 3, abs=1e-12)

    def test_mixtures_share_w_counting_statistics(self):
        w_diag = coincidence_distribution(w_state(Branch.T1))
        for rho in (rho_incoherent(), rho_biseparable()):
            dist = coincidence_distribution_rho(rho)
            for pattern in COLOR_PATTERNS:
                assert abs(dist[pattern] - w_diag[pattern]) < 1e-12


# ---------------------------------------------------------------------------
# the term-table classifier against the per-term dict version it replaced
# ---------------------------------------------------------------------------

# Reflectivities and extinction with the cube faces drawn as often as the
# interior; phases over a full turn.
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_PHI = st.floats(-3.2, 3.2)


@st.composite
def _near_herald_terms(draw):
    """A heralding term of either branch (random signal colors), left as is
    or with one edit the classifier must reject: a doubled herald photon, the
    herald photon in the other color, an extra photon on channel 1, or a
    missing signal photon."""
    herald_mode = draw(st.sampled_from([ModeLabel(5, Color.RED), ModeLabel(6, Color.BLUE)]))
    colors = draw(st.lists(st.sampled_from(Color), min_size=3, max_size=3))
    pairs = [(ModeLabel(ch, color), 1) for ch, color in zip((2, 3, 4), colors)]
    edit = draw(st.sampled_from(("none", "double", "color", "extra", "drop")))
    if edit == "double":
        pairs.append((herald_mode, 2))
    elif edit == "color":
        pairs.append((ModeLabel(herald_mode.channel, Color(1 - herald_mode.color)), 1))
    else:
        pairs.append((herald_mode, 1))
    if edit == "extra":
        pairs.append((ModeLabel(1, draw(st.sampled_from(Color))), 1))
    elif edit == "drop":
        del pairs[draw(st.integers(0, 2))]
    return pairs


def _same_result_bits(new, old):
    """Same probability and residual bits, same heralded terms in the same
    order with the same amplitude bits."""
    assert new.probability.hex() == old.probability.hex()
    assert new.residual_weight.hex() == old.residual_weight.hex()
    assert (new.heralded_state is None) == (old.heralded_state is None)
    if new.heralded_state is not None:
        assert [(b, a.real.hex(), a.imag.hex()) for b, a in new.heralded_state.items()] == [
            (b, a.real.hex(), a.imag.hex()) for b, a in old.heralded_state.items()
        ]


class TestTermTableMatchesPerTermDict:
    """``herald`` classifies each term by its four pairs against
    HERALD_TERMS; the per-term dict classifier it replaced (kept in
    oracles.py) must give the same bits on both branches."""

    @given(_UNIT, _UNIT, _UNIT, _PHI, _PHI, _PHI, _UNIT)
    def test_on_random_canonical_cells(self, r1, r2, r3, phi1, phi2, phi3, eps):
        state = _propagated(r1, r2, r3, phis=(phi1, phi2, phi3), eps=eps)
        for branch in (Branch.T1, Branch.T2):
            _same_result_bits(herald(state, branch), per_term_dict_herald(state, branch))

    @given(st.lists(st.tuples(_near_herald_terms(), st.complex_numbers(max_magnitude=2.0)),
                    min_size=1, max_size=12))
    def test_on_terms_near_a_herald(self, terms):
        state = PureState({FockBasisState(pairs): amp for pairs, amp in terms})
        for branch in (Branch.T1, Branch.T2):
            _same_result_bits(herald(state, branch), per_term_dict_herald(state, branch))

    def test_near_herald_edits_are_rejected(self):
        red, blue = Color.RED, Color.BLUE
        signal = [(ModeLabel(2, blue), 1), (ModeLabel(3, blue), 1), (ModeLabel(4, red), 1)]
        good = FockBasisState(signal + [(ModeLabel(5, red), 1)])
        rejected = [
            FockBasisState(signal[:2] + [(ModeLabel(5, red), 2)]),
            FockBasisState(signal + [(ModeLabel(5, blue), 1)]),
            FockBasisState(signal + [(ModeLabel(6, red), 1)]),
            FockBasisState(signal[1:] + [(ModeLabel(1, red), 1), (ModeLabel(5, red), 1)]),
        ]
        state = PureState({good: 1.0, **{b: 1.0 for b in rejected}})
        res = herald(state, Branch.T1)
        assert res.probability == pytest.approx(1 / 5)
        assert [b for b, _ in res.heralded_state.items()] == [FockBasisState(signal)]
        assert herald(state, Branch.T2).probability == 0.0
