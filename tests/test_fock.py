"""Unit tests for the sparse Fock-state algebra.

The load-bearing checks compare the expansion engine against the brute-force
monomial oracle in oracles.py on random unitaries; the rest pin down the
small exact facts (bosonic normalization, ordering, reduction bookkeeping)
the engine is built from.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wchip.fock
from wchip.circuit import SIGNAL_CHANNELS
from wchip.errors import (
    DimensionMismatch,
    NotUnitary,
    ParamOutOfRange,
    TooManyPhotons,
    UnknownMode,
)
from wchip.fock import (
    Color,
    FockBasisState,
    ModeLabel,
    ModeTransform,
    PureState,
    apply_mode_transform,
    basis_from_pattern,
    color_pattern,
    inner_product,
    reduce_to_channels,
)

from oracles import (
    eager_apply_mode_transform,
    eager_sparse_rows,
    monomial_amplitudes,
    occupation_amplitudes,
    random_unitary,
    tuple_key_apply_mode_transform,
)

B0 = ModeLabel(0, Color.BLUE)
R0 = ModeLabel(0, Color.RED)
B1 = ModeLabel(1, Color.BLUE)
R1 = ModeLabel(1, Color.RED)


def test_mode_label_ordering_is_channel_major_red_first():
    assert R0 < B0 < R1 < B1
    basis = FockBasisState([(B1, 1), (R0, 2), (B0, 1)])
    assert [m for m, _ in basis] == [R0, B0, B1]


def test_basis_state_merges_duplicates_and_drops_zeros():
    basis = FockBasisState([(B0, 1), (B0, 2), (R1, 0)])
    assert list(basis) == [(B0, 3)]


def test_inner_product_basics():
    vac = PureState.basis(FockBasisState.vacuum())
    assert inner_product(vac, vac) == 1.0
    one_b = PureState.basis(FockBasisState.single(B0))
    one_r = PureState.basis(FockBasisState.single(R0))
    assert inner_product(one_b, one_r) == 0.0
    # conjugate-linear in the first slot
    s = PureState({FockBasisState.single(B0): 1j})
    assert inner_product(s, one_b) == pytest.approx(-1j)
    assert inner_product(s, s) == pytest.approx(1.0)


def test_prune_drops_tiny_amplitudes():
    s = PureState({FockBasisState.single(B0): 1.0, FockBasisState.single(R0): 1e-15})
    assert len(s) == 1


@pytest.mark.parametrize("amp", [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 0.0)])
def test_non_finite_amplitude_is_a_named_error(amp):
    with pytest.raises(ParamOutOfRange):
        PureState({FockBasisState.single(B0): 1.0, FockBasisState.single(R0): amp})


# ---------------------------------------------------------------------------
# mode transforms
# ---------------------------------------------------------------------------


def _transform(modes, matrix):
    return ModeTransform(modes=tuple(modes), matrix=np.asarray(matrix, dtype=complex))


def test_identity_transform_is_noop():
    state = PureState({FockBasisState([(B0, 2), (R1, 1)]): 1.0})
    xf = ModeTransform((R0, B0, R1, B1), np.eye(4))
    out = apply_mode_transform(state, xf)
    assert out.amplitude(FockBasisState([(B0, 2), (R1, 1)])) == pytest.approx(1.0)
    assert len(out) == 1


def test_fifty_fifty_single_photon_splits_with_i():
    # one blue photon entering a balanced coupler with phi = pi/2
    u = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2.0)
    xf = _transform((B0, B1), u)
    out = apply_mode_transform(PureState.basis(FockBasisState.single(B0)), xf)
    assert out.amplitude(FockBasisState.single(B0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude(FockBasisState.single(B1)) == pytest.approx(1j / math.sqrt(2))


def test_hong_ou_mandel_dip():
    # same-color photon in each arm of a balanced coupler: the 1+1 output
    # term cancels, photons bunch
    u = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2.0)
    xf = _transform((B0, B1), u)
    state = PureState.basis(FockBasisState([(B0, 1), (B1, 1)]))
    out = apply_mode_transform(state, xf)
    assert abs(out.amplitude(FockBasisState([(B0, 1), (B1, 1)]))) < 1e-14
    assert abs(out.amplitude(FockBasisState([(B0, 2)]))) == pytest.approx(1 / math.sqrt(2))
    assert abs(out.amplitude(FockBasisState([(B1, 2)]))) == pytest.approx(1 / math.sqrt(2))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_unknown_mode_raises():
    xf = ModeTransform((B0, B1), np.eye(2))
    state = PureState.basis(FockBasisState.single(R0))
    with pytest.raises(UnknownMode):
        apply_mode_transform(state, xf)


def test_lossless_gate_rejects_nonunitary_matrix():
    with pytest.raises(NotUnitary):
        _transform((B0, B1), [[1.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.filterwarnings("error:invalid value encountered in matmul:RuntimeWarning")
def test_non_finite_matrix_is_not_unitary(bad):
    with pytest.raises(NotUnitary):
        _transform((B0,), [[bad]])
    with pytest.raises(NotUnitary):
        _transform((B0, B1), [[1.0, 0.0], [0.0, bad]])


def _random_state(modes, photons, rng):
    """Random superposition over all occupation patterns of `photons` photons."""
    terms = {}
    for _ in range(6):
        counts = rng.multinomial(photons, np.full(len(modes), 1 / len(modes)))
        basis = FockBasisState([(m, int(c)) for m, c in zip(modes, counts) if c])
        terms[basis] = complex(rng.standard_normal(), rng.standard_normal())
    norm = PureState(terms).norm()
    return PureState({b: a / norm for b, a in terms.items()})


def test_norm_preserved_on_random_unitaries():
    rng = np.random.default_rng(11)
    modes = (R0, B0, R1, B1)
    for _ in range(40):
        xf = _transform(modes, random_unitary(4, rng))
        state = _random_state(modes, int(rng.integers(1, 5)), rng)
        out = apply_mode_transform(state, xf)
        assert abs(out.norm() - 1.0) < 1e-12


def test_engine_matches_monomial_oracle():
    rng = np.random.default_rng(23)
    modes = (R0, B0, R1, B1)
    for _ in range(60):
        u = random_unitary(4, rng)
        xf = _transform(modes, u)
        photons = int(rng.integers(1, 4))
        counts = rng.multinomial(photons, np.full(4, 0.25))
        occ = {i: int(c) for i, c in enumerate(counts) if c}
        basis = FockBasisState([(modes[i], n) for i, n in occ.items()])
        out = apply_mode_transform(PureState.basis(basis), xf)
        expected = monomial_amplitudes(occ, u)
        got = occupation_amplitudes(out, modes)
        for key in set(expected) | set(got):
            assert abs(expected.get(key, 0j) - got.get(key, 0j)) < 1e-10


def _same_bits(a, b):
    """Same terms in the same order, every amplitude equal to the bit."""
    assert [(bs, x.real.hex(), x.imag.hex()) for bs, x in a.items()] == [
        (bs, x.real.hex(), x.imag.hex()) for bs, x in b.items()
    ]


# Both colors of three channels: up to six modes.
_MODE_POOL = tuple(ModeLabel(ch, color) for ch in range(3) for color in Color)
_COMPLEX = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def _lossless_transforms(draw):
    """A unitary on up to six modes: a Haar-random unitary, or a mesh of
    two-mode couplers (exact zeros and ones among the entries), each either
    mixing any two modes or only modes of one color."""
    n = draw(st.integers(1, len(_MODE_POOL)))
    modes = draw(st.permutations(_MODE_POOL))[:n]
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return ModeTransform(modes, random_unitary(n, np.random.default_rng(seed)))
    same_color = draw(st.booleans())
    mat = np.diag(np.exp(1j * np.random.default_rng(seed).uniform(-3, 3, n)))
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if same_color and modes[i].color != modes[j].color:
            continue
        r = draw(st.one_of(st.sampled_from([0.0, 1.0, math.sqrt(0.5)]), st.floats(0.0, 1.0)))
        phi = draw(st.floats(-3.0, 3.0))
        t = math.sqrt(1.0 - r * r)
        block = np.eye(n, dtype=complex)
        block[i, i] = block[j, j] = t
        block[i, j] = r * np.exp(1j * phi)
        block[j, i] = -r * np.exp(-1j * phi)
        mat = mat @ block
    return ModeTransform(modes, mat)


@st.composite
def _states_on(draw, modes):
    """One to three terms over `modes` with at most six photons each and
    complex amplitudes."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        counts = draw(st.lists(st.integers(0, 6), min_size=len(modes), max_size=len(modes)))
        while sum(counts) > 6:
            counts[counts.index(max(counts))] -= 1
        terms[FockBasisState(zip(modes, counts))] = draw(_COMPLEX)
    return PureState(terms)


class TestKernelMatchesTupleKeyExpansion:
    """The integer-keyed kernel equals the tuple-keyed expansion it replaced
    (kept in oracles.py) bit for bit: same terms, same order, same bits."""

    @given(st.data())
    def test_random_lossless_transforms(self, data):
        transform = data.draw(_lossless_transforms())
        modes = data.draw(st.permutations(transform.modes))
        k = data.draw(st.integers(1, len(modes)))
        state = data.draw(_states_on(modes[:k]))
        _same_bits(
            apply_mode_transform(state, transform),
            tuple_key_apply_mode_transform(state, transform),
        )

    @given(
        st.sampled_from(Color),
        st.integers(1, 5),
        st.integers(1, 5),
        st.one_of(st.sampled_from([math.sqrt(0.5), 0.0, 1.0]), st.floats(0.0, 1.0)),
        st.floats(-3.0, 3.0),
        st.integers(0, 2),
        _COMPLEX,
    )
    def test_one_color_in_two_overlapping_modes(self, color, a, b, r, phi, other, amp):
        # Hong-Ou-Mandel-type input: photons of one color in both inputs of
        # a coupler, plus spectators of the other color
        if a + b + other > 6:
            a, b = 1, 1
        t = math.sqrt(1.0 - r * r)
        cross = r * np.exp(1j * phi)
        block = np.array([[t, cross], [-np.conj(cross), t]], dtype=complex)
        mat = np.zeros((4, 4), dtype=complex)
        mat[int(color) :: 2, int(color) :: 2] = block
        other_color = Color(1 - color)
        mat[int(other_color) :: 2, int(other_color) :: 2] = block.T
        modes = tuple(ModeLabel(ch, col) for ch in (0, 1) for col in Color)
        transform = ModeTransform(modes, mat)
        pairs = [(ModeLabel(0, color), a), (ModeLabel(1, color), b)]
        if other:
            pairs.append((ModeLabel(0, other_color), other))
        state = PureState({FockBasisState(pairs): amp})
        _same_bits(
            apply_mode_transform(state, transform),
            tuple_key_apply_mode_transform(state, transform),
        )


class TestKernelMatchesEagerRows:
    """Rows built on first use and the trusted output constructor give the
    bits of the kernel that built every row up front and passed its output
    through ``PureState.__init__`` (kept in oracles.py)."""

    @given(st.data())
    def test_random_lossless_transforms(self, data):
        transform = data.draw(_lossless_transforms())
        modes = data.draw(st.permutations(transform.modes))
        k = data.draw(st.integers(1, len(modes)))
        state = data.draw(_states_on(modes[:k]))
        _same_bits(
            apply_mode_transform(state, transform),
            eager_apply_mode_transform(state, transform),
        )
        occupied = {transform.modes.index(m) for basis, _ in state.items() for m, _ in basis}
        built = transform._sparse_rows
        eager = eager_sparse_rows(transform)
        for i, row in enumerate(built):
            assert row == (eager[i] if i in occupied else None)

    def test_cancelled_amplitude_is_pruned(self):
        # Hong-Ou-Mandel: one photon in each input of a balanced coupler
        # leaves |1, 1> with amplitude t^2 - r^2, zero up to rounding
        h = math.sqrt(0.5)
        transform = ModeTransform((B0, B1), np.array([[h, h], [-h, h]], dtype=complex))
        state = PureState.basis(FockBasisState([(B0, 1), (B1, 1)]))
        out = apply_mode_transform(state, transform)
        assert FockBasisState([(B0, 1), (B1, 1)]) not in dict(out.items())
        _same_bits(out, eager_apply_mode_transform(state, transform))


class TestKernelEdges:
    def test_thirty_two_photons_in_one_mode(self):
        basis = FockBasisState([(B0, 32)])
        out = apply_mode_transform(PureState.basis(basis), ModeTransform((B0, B1), np.eye(2)))
        assert [b for b, _ in out.items()] == [basis]
        assert out.amplitude(basis) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pairs", [[(B0, 33)], [(R0, 17), (B1, 16)]])
    def test_more_than_thirty_two_photons_is_a_named_error(self, pairs):
        state = PureState.basis(FockBasisState(pairs))
        with pytest.raises(TooManyPhotons):
            apply_mode_transform(state, ModeTransform((R0, B0, R1, B1), np.eye(4)))

    def test_interning_is_bounded_over_many_mode_lists(self):
        state = PureState.basis(FockBasisState.single(R0))
        for channel in range(1, 60):
            modes = (R0, ModeLabel(channel, Color.RED))
            u = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
            out = apply_mode_transform(state, ModeTransform(modes, u))
            assert len(out) == 2
        info = wchip.fock._output_table.cache_info()
        assert info.currsize <= wchip.fock._OUTPUT_TABLES

    def test_interning_is_bounded_within_one_mode_list(self):
        # ten modes and six photons: 5005 output terms, more than the table
        # holds, so the next call starts from an empty table
        modes = tuple(ModeLabel(ch, color) for ch in range(5) for color in Color)
        transform = ModeTransform(modes, random_unitary(10, np.random.default_rng(2)))
        state = PureState.basis(FockBasisState([(modes[0], 3), (modes[1], 3)]))
        table = wchip.fock._output_table(transform.modes)
        for _ in range(2):
            out = apply_mode_transform(state, transform)
            assert len(out) == 5005
            assert len(table) <= wchip.fock._OUTPUT_TABLE_SIZE + len(out)
        assert len(wchip.fock._output_table(transform.modes)) == 5005
        _same_bits(out, tuple_key_apply_mode_transform(state, transform))


# ---------------------------------------------------------------------------
# projection and reduction
# ---------------------------------------------------------------------------


def test_color_pattern_roundtrip():
    basis = basis_from_pattern("BRB", (2, 3, 4))
    assert color_pattern(basis, (2, 3, 4)) == "BRB"


def test_reduce_w_conditioned_pair_block():
    # W state reduced over the signal channels, conditioned on a blue photon
    # in channel 2 (the BBR/BRB block): balanced pair coherence 1/2
    from wchip.herald import Branch, w_state

    rho = reduce_to_channels(w_state(Branch.T1), SIGNAL_CHANNELS).matrix
    block = rho[np.ix_((0, 1), (0, 1))]
    tr = np.trace(block).real
    assert tr == pytest.approx(2.0 / 3.0)
    assert block[0, 0] / tr == pytest.approx(0.5)
    assert block[1, 1] / tr == pytest.approx(0.5)
    assert block[0, 1] / tr == pytest.approx(0.5)


def test_reduce_product_state_is_diagonal():
    product = PureState.basis(basis_from_pattern("BRB", SIGNAL_CHANNELS))
    rho = reduce_to_channels(product, SIGNAL_CHANNELS)
    assert np.allclose(rho.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-15)


def test_reduce_statistical_mixture_kills_coherence():
    # mixing the three basis patterns mimics the counting-only mixture:
    # diagonal thirds, no off-diagonal
    patterns = ("BBR", "BRB", "RBB")
    states = (PureState.basis(basis_from_pattern(pat, SIGNAL_CHANNELS)) for pat in patterns)
    mixed = sum(reduce_to_channels(state, SIGNAL_CHANNELS).matrix for state in states) / 3.0
    assert np.allclose(mixed, np.eye(3) / 3.0, atol=1e-15)


def test_reduce_requires_matching_photon_content():
    doubled = FockBasisState([(ModeLabel(2, Color.BLUE), 1), (ModeLabel(3, Color.BLUE), 2)])
    with pytest.raises(DimensionMismatch):
        reduce_to_channels(PureState.basis(doubled), SIGNAL_CHANNELS)
    one_blue = PureState.basis(basis_from_pattern("RRB", SIGNAL_CHANNELS))
    with pytest.raises(DimensionMismatch, match="outside the BBR/BRB/RBB span"):
        reduce_to_channels(one_blue, SIGNAL_CHANNELS)
    with pytest.raises(DimensionMismatch, match="can reduce to 3 channels, got 2"):
        reduce_to_channels(PureState.basis(basis_from_pattern("BR", (3, 4))), (3, 4))


def test_reduce_traces_out_environment():
    # BBR and BRB entangled with an environment photon on channel 9: tracing
    # it out leaves the balanced diagonal with no coherence
    bbr_r = [*basis_from_pattern("BBR", SIGNAL_CHANNELS), (ModeLabel(9, Color.RED), 1)]
    brb_b = [*basis_from_pattern("BRB", SIGNAL_CHANNELS), (ModeLabel(9, Color.BLUE), 1)]
    state = PureState(
        {FockBasisState(bbr_r): 1 / math.sqrt(2), FockBasisState(brb_b): 1 / math.sqrt(2)}
    )
    rho = reduce_to_channels(state, SIGNAL_CHANNELS)
    assert rho.matrix[0, 0] == pytest.approx(0.5)
    assert rho.matrix[1, 1] == pytest.approx(0.5)
    assert abs(rho.matrix[0, 1]) < 1e-14
