"""Tests for herald post-selection, W references, and coincidence statistics.

The proportionality checks against the closed-form prefactor in oracles.py
are the central dual-route comparison: the package computes probabilities by
propagating states, the oracle only knows the parameter dependence, and the
two must agree up to one global constant for every parameter draw.
"""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from wchip.circuit import (
    CANONICAL_CHANNELS,
    SIGNAL_CHANNELS,
    SOURCE_CHANNEL,
    CircuitSpec,
    build_transform,
    canonical_w_circuit,
    propagate,
    transfer_rows,
)
from wchip.cli import _herald_summary
from wchip.elements import AddDropFilter, DirectionalCoupler, SourceSpec, two_pair_state
from wchip.errors import EmptyState, NotNormalized, ParamOutOfRange, UnknownMode
from wchip.fock import (
    Color,
    FockBasisState,
    ModeLabel,
    PureState,
    apply_mode_transform,
    color_pattern,
    inner_product,
)
from wchip.herald import (
    COLOR_PATTERNS,
    Branch,
    _scaled,
    coincidence_distribution,
    coincidence_distribution_rho,
    herald,
    herald_rows,
    rho_biseparable,
    rho_incoherent,
    w_fidelity,
    w_state,
)

from oracles import herald_prefactor, per_term_dict_herald, rho_b_matrix, sparse_herald_summary

OPT = (0.5, 1 / math.sqrt(3), 1 / math.sqrt(2))


def _propagated(r1, r2, r3, phis=(0.0, 0.0, 0.0), eps=0.0):
    spec = canonical_w_circuit(r1, r2, r3, *phis, ad2_extinction=eps)
    return apply_mode_transform(two_pair_state(0), build_transform(spec))


def test_w_states_are_normalized_and_orthogonal():
    wt1 = w_state(Branch.T1)
    wt2 = w_state(Branch.T2)
    assert wt1.norm_sq() == pytest.approx(1.0)
    assert wt2.norm_sq() == pytest.approx(1.0)
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
    res = herald(PureState({FockBasisState(): 1.0}), Branch.T1)
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
    herald photon in the other color, an extra photon on channel 1, a
    missing signal photon, or a signal photon moved into another photon's
    mode (four photons on three pairs)."""
    herald_mode = draw(st.sampled_from([ModeLabel(5, Color.RED), ModeLabel(6, Color.BLUE)]))
    colors = draw(st.lists(st.sampled_from(Color), min_size=3, max_size=3))
    pairs = [(ModeLabel(ch, color), 1) for ch, color in zip((2, 3, 4), colors)]
    edit = draw(st.sampled_from(("none", "double", "color", "extra", "drop", "bunch")))
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
    elif edit == "bunch":
        k = draw(st.integers(0, 2))
        pairs[k] = (pairs[draw(st.sampled_from([j for j in range(4) if j != k]))][0], 1)
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
    """``herald`` finds each four-photon term's branch with one lookup in
    its table of herald events; the per-term dict classifier it replaced
    (kept in oracles.py) must give the same bits on both branches."""

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
            try:
                result = herald(state, branch)
            except ParamOutOfRange:  # an underflowing four-photon weight
                with pytest.raises(ParamOutOfRange):
                    per_term_dict_herald(state, branch)
                continue
            _same_result_bits(result, per_term_dict_herald(state, branch))

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


# ---------------------------------------------------------------------------
# herald numbers do not depend on the pair amplitude
# ---------------------------------------------------------------------------


def _herald_numbers(state):
    """P_T1, W fidelity on T1, P_T2, W fidelity on T2 (None when the branch
    heralds nothing)."""
    numbers = []
    for branch in (Branch.T1, Branch.T2):
        res = herald(state, branch)
        fidelity = None if res.heralded_state is None else w_fidelity(res.heralded_state, branch)
        numbers += [res.probability, fidelity]
    return numbers


@st.composite
def _devices(draw, reflectivity=_UNIT, extinction=_UNIT):
    """A phased canonical circuit with extinction and its source channel, or
    a circuit-file mesh on the canonical registry with the source on any
    channel; coupler reflectivities are drawn from `reflectivity`, router
    extinctions from `extinction`."""
    if draw(st.booleans()):
        r = draw(st.tuples(reflectivity, reflectivity, reflectivity))
        phi = draw(st.tuples(_PHI, _PHI, _PHI))
        return canonical_w_circuit(*r, *phi, ad2_extinction=draw(extinction)), SOURCE_CHANNEL
    n = len(CANONICAL_CHANNELS)
    channel = st.integers(0, n - 1)
    elements = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            pair = draw(st.lists(channel, min_size=2, max_size=2, unique=True))
            elements.append(
                DirectionalCoupler(pair, draw(reflectivity), phi=draw(_PHI))
            )
        else:
            chans = draw(st.lists(channel, min_size=3, max_size=3, unique=True))
            elements.append(AddDropFilter(*chans, draw(st.sampled_from(Color)), draw(extinction)))
    phases = draw(st.one_of(st.just(()), st.tuples(*[_PHI] * n)))
    return CircuitSpec(CANONICAL_CHANNELS, tuple(elements), phases), draw(channel)


class TestBetaIndependence:
    """Every herald number is a ratio inside the four-photon sector, whose
    amplitudes all scale with beta**2, so none may depend on beta."""

    @seed(20161)
    @settings(max_examples=200)
    @given(_devices(), st.floats(math.log(1e-12), math.log(0.5)), _PHI)
    def test_matches_beta_of_one_tenth(self, device, log_beta, phase):
        spec, channel = device
        beta = cmath.rect(math.exp(log_beta), phase)
        numbers = _herald_numbers(propagate(SourceSpec(channel, beta), spec))
        reference = _herald_numbers(propagate(SourceSpec(channel, 0.1), spec))
        for x, x0 in zip(numbers, reference):
            if x0 is None:
                assert x is None
            else:
                # a subnormal number holds fewer bits than 1e-12 resolves
                assert abs(x - x0) <= 1e-12 * max(x0, sys.float_info.min), (numbers, reference)

    @pytest.mark.parametrize("beta", [1e-7, 1e-12, 1e-70])
    def test_tiny_beta_heralds_the_w_state(self, beta):
        state = propagate(SourceSpec(SOURCE_CHANNEL, beta), canonical_w_circuit(*OPT))
        for branch in (Branch.T1, Branch.T2):
            res = herald(state, branch)
            assert res.probability == pytest.approx(3 / 64, abs=1e-12)
            assert w_fidelity(res.heralded_state, branch) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_probability_at_small_beta_keeps_its_precision(self):
        # P_T1 is about 1e-296, so at beta = 1e-5 the branch weight
        # P_T1 * |beta|**4 underflows while the sector weight does not
        r = (0.5, 1e-74, 1e-74)
        state = propagate(SourceSpec(SOURCE_CHANNEL, 1e-5), canonical_w_circuit(*r))
        p = herald(state, Branch.T1).probability
        assert p == pytest.approx(12.0 * herald_prefactor(*r), rel=1e-12)

    @pytest.mark.parametrize("beta", [1e-80, 1e-100])
    def test_underflowing_four_photon_weight_is_a_named_error(self, beta):
        state = propagate(SourceSpec(SOURCE_CHANNEL, beta), canonical_w_circuit(*OPT))
        with pytest.raises(ParamOutOfRange, match="underflows"):
            herald(state, Branch.T1)

    @pytest.mark.parametrize(
        "source", [SourceSpec(SOURCE_CHANNEL, 0.0), SourceSpec(SOURCE_CHANNEL, 0.1, 1)]
    )
    def test_no_double_pair_heralds_nothing(self, source):
        res = herald(propagate(source, canonical_w_circuit(*OPT)), Branch.T1)
        assert (res.probability, res.heralded_state, res.residual_weight) == (0.0, None, 0.0)


def test_scaling_reads_the_exponent_of_the_nonzero_terms_only():
    # an exact zero has no exponent: read as 0, it left tiny terms unscaled
    terms = [("a", 0j), ("b", complex(3e-160, -1e-160)), ("c", 0j), ("d", 2e-160j)]
    scaled, m = _scaled(terms)
    assert m == -math.frexp(3e-160)[1] and m > 500
    assert [b for b, _ in scaled] == ["a", "b", "c", "d"]
    for (_, a), (_, a0) in zip(scaled, terms):
        assert a == complex(math.ldexp(a0.real, m), math.ldexp(a0.imag, m))
    assert 0.5 <= scaled[1][1].real < 1.0
    assert _scaled([("a", 0j)]) == ([("a", 0j)], 0)


# ---------------------------------------------------------------------------
# simulate and herald on the source rows
# ---------------------------------------------------------------------------

#: As _UNIT, and log-uniform down to 1e-74, where a heralding amplitude, a
#: branch weight or a probability can leave the normal floats.
_DEEP_UNIT = st.one_of(_UNIT, st.floats(math.log(1e-74), 0.0).map(math.exp))


def _assert_close(value, reference, resolved=True):
    """Both numbers within 1e-12, or both None.  Where the branch
    probability is not `resolved` (below the normal floats, on both
    engines), rounding decides whether it is 0 and the branch heralds
    nothing (None), so one side may be None and the other a number."""
    if value is None or reference is None:
        assert (value is None) == (reference is None) or not resolved, (value, reference)
    else:
        assert abs(value - reference) <= 1e-12, (value, reference)


#: Reflectivities where P_T1 is about 1e-323: each squared heralding
#: amplitude rounds to a subnormal, or to 0 on the sparse chain, whose
#: amplitudes carry beta**2, yet both engines herald the W state.
_SUBNORMAL_HERALD = (canonical_w_circuit(*[10**-54.01] * 3), SOURCE_CHANNEL)


class TestRowsMatchSparse:
    """``simulate`` and ``herald`` read both branches from the source rows
    (``cli._herald_summary``); they must give the numbers of the sparse
    chain they replaced (``oracles.sparse_herald_summary``) within 1e-12."""

    def test_a_subnormal_probability_still_heralds_the_w_state(self):
        # a branch heralds nothing only when no heralding amplitude is
        # nonzero, never because its probability rounds to 0
        spec, channel = _SUBNORMAL_HERALD
        source = SourceSpec(channel, 0.1)
        rows = herald_rows(transfer_rows(spec, channel), source)
        state = propagate(source, spec)
        for branch in Branch:
            res = herald(state, branch)
            assert 0.0 < res.probability < sys.float_info.min
            assert res.probability == rows[branch].probability
            assert res.heralded_state is not None
            assert w_fidelity(res.heralded_state, branch) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("channel", [7, 100])
    def test_a_source_outside_the_registry_is_refused_by_both_engines(self, channel):
        # a named WchipError from each, never a bare KeyError
        spec = canonical_w_circuit(0.5, 0.5, 0.5)
        source = SourceSpec(channel, 0.1)
        with pytest.raises(UnknownMode, match=f"channel {channel} absent"):
            herald_rows(transfer_rows(spec, channel), source)
        with pytest.raises(UnknownMode, match=f"[RB]{channel} absent"):
            propagate(source, spec)

    @settings(max_examples=200)
    @given(_devices(_DEEP_UNIT), st.floats(math.log(1e-12), math.log(0.5)), _PHI)
    @example(_SUBNORMAL_HERALD, math.log(0.1), 0.0)
    def test_matches_the_sparse_chain(self, device, log_beta, phase):
        spec, channel = device
        source = SourceSpec(channel, cmath.rect(math.exp(log_beta), phase))
        branches, fidelities, state = _herald_summary(spec, source)
        dist = None if state is None else coincidence_distribution(state)
        ref_branches, ref_fidelities, ref_dist = sparse_herald_summary(spec, source)
        for name in ("T1", "T2"):
            for key in ("probability", "residual_weight"):
                _assert_close(branches[name][key], ref_branches[name][key])
            probabilities = (branches[name]["probability"], ref_branches[name]["probability"])
            resolved = max(probabilities) >= sys.float_info.min
            _assert_close(fidelities[name], ref_fidelities[name], resolved)
            if name == "T1":
                for pattern in COLOR_PATTERNS:
                    _assert_close(
                        None if dist is None else dist[pattern],
                        None if ref_dist is None else ref_dist[pattern],
                        resolved,
                    )


#: Reflectivities and extinctions on the faces or well inside (0, 1): no
#: product of transfer entries comes near the subnormal floats, where the
#: two engines could round a heralding amplitude to 0 differently.
_MID_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))


class TestOneTermOrder:
    """Both engines give a heralded state its terms in one order, the order
    in which ``apply_mode_transform`` emits them, and each reference W state
    keeps its own."""

    @settings(max_examples=150)
    @given(_devices(_MID_UNIT, _MID_UNIT))
    @example((canonical_w_circuit(*OPT, ad2_extinction=0.3), SOURCE_CHANNEL))
    def test_rows_list_the_bases_of_the_sparse_chain(self, device):
        spec, channel = device
        source = SourceSpec(channel, 0.1)
        rows = herald_rows(transfer_rows(spec, channel), source)
        state = propagate(source, spec)
        for branch in Branch:
            sparse, row = herald(state, branch).heralded_state, rows[branch].heralded_state
            assert (sparse is None) == (row is None)
            if sparse is not None:
                assert [b for b, _ in row.items()] == [b for b, _ in sparse.items()], branch

    @pytest.mark.parametrize(
        "branch, patterns",
        [(Branch.T1, ["BBR", "BRB", "RBB"]), (Branch.T2, ["RRB", "RBR", "BRR"])],
    )
    def test_w_state_order(self, branch, patterns):
        assert [color_pattern(b, SIGNAL_CHANNELS) for b, _ in w_state(branch).items()] == patterns
