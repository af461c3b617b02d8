"""Independent verification routes for the test suite.

Everything here recomputes physics through a different algorithm than the
package uses: brute-force polynomial monomial expansion instead of the
per-photon convolution engine, explicit outer products instead of
creation-operator algebra, closed-form parameter dependence instead of
circuit simulation.  Tests compare the two routes; neither side is derived
from the other, so agreement is evidence and disagreement is a bug.

The last section keeps earlier versions of package functions.  Tests hold
each rewrite made with the same arithmetic in the same order to its earlier
version bit for bit, and ``sweep``, which moved from the sparse Fock engine
to the source rows, to :func:`per_cell_sweep` within a tolerance, as
``simulate`` and ``herald`` are held to :func:`sparse_herald_summary`.  The
streamed ``wchip sweep`` documents are held to the whole-document writers
:func:`sweep_csv` and :func:`sweep_json` byte for byte.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

import numpy as np

from wchip.circuit import T1_CHANNEL
from wchip.fock import Color
from wchip.herald import Branch, heralding_terms


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def monomial_amplitudes(occupations: dict[int, int], matrix: np.ndarray) -> dict[tuple, complex]:
    """Output amplitudes of a mode transform on one Fock basis state, by
    literal polynomial expansion.

    ``occupations`` maps mode index -> photon count; ``matrix[i, j]`` is the
    coefficient of output operator j in the substitution for input operator i.
    Each creation operator is substituted and the product polynomial expanded
    monomial by monomial; bosonic sqrt-factorial normalization is applied on
    both sides at the end.  Returns {output occupation tuple: amplitude}.
    """
    n = matrix.shape[0]
    poly: dict[tuple, complex] = {tuple([0] * n): 1.0 + 0j}
    for i, count in occupations.items():
        for _ in range(count):
            grown: dict[tuple, complex] = {}
            for expo, coeff in poly.items():
                for j in range(n):
                    u = matrix[i, j]
                    if u == 0:
                        continue
                    key = list(expo)
                    key[j] += 1
                    key = tuple(key)
                    grown[key] = grown.get(key, 0j) + coeff * u
            poly = grown
    in_norm = 1.0
    for count in occupations.values():
        in_norm *= math.factorial(count)
    out: dict[tuple, complex] = {}
    for expo, coeff in poly.items():
        out_norm = 1.0
        for k in expo:
            out_norm *= math.factorial(k)
        amp = coeff * math.sqrt(out_norm) / math.sqrt(in_norm)
        if abs(amp) > 1e-16:
            out[expo] = amp
    return out


def occupation_amplitudes(state, modes) -> dict[tuple, complex]:
    """Flatten a PureState into {occupation tuple over ``modes``: amplitude},
    for comparison against monomial_amplitudes."""
    index = {mode: i for i, mode in enumerate(modes)}
    out: dict[tuple, complex] = {}
    for basis, _ in state.items():
        expo = [0] * len(modes)
        for mode, count in basis:
            expo[index[mode]] = count
        out[tuple(expo)] = state.amplitude(basis)
    return out


def herald_prefactor(r1: float, r2: float, r3: float) -> float:
    """Closed-form parameter dependence (r1 t1^3 r2 t2^2 r3 t3)^2 of the
    herald probability.  Deliberately excludes the absolute constant, which
    only the simulation route fixes."""
    t1 = math.sqrt(1.0 - r1 * r1)
    t2 = math.sqrt(1.0 - r2 * r2)
    t3 = math.sqrt(1.0 - r3 * r3)
    return (r1 * t1**3 * r2 * t2**2 * r3 * t3) ** 2


def exact_herald_probability(r1: float, r2: float, r3: float) -> Fraction:
    """The paper's law P_T1 = 12 r1^2 (1-r1^2)^3 r2^2 (1-r2^2)^2 r3^2 (1-r3^2)
    in exact rational arithmetic at the given floats: every t_i enters
    squared, so no square root is taken and nothing rounds."""
    s1, s2, s3 = (Fraction(r) ** 2 for r in (r1, r2, r3))
    return 12 * s1 * (1 - s1) ** 3 * s2 * (1 - s2) ** 2 * s3 * (1 - s3)


# Reflectivities maximizing each factor of the prefactor, solved per axis:
# d/dr [r (1-r^2)^{3/2}] = 0 at r = 1/2, d/dr [r (1-r^2)] = 0 at r = 1/sqrt 3,
# d/dr [r sqrt(1-r^2)] = 0 at r = 1/sqrt 2.
OPTIMAL_R = (0.5, 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0))


def rho_b_matrix() -> np.ndarray:
    """Equal mixture of the three 'one blue photon fixed, Bell pair on the
    other two channels' states, written directly in the (BBR, BRB, RBB)
    pattern basis as outer products."""
    vectors = (
        np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
        np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0),
        np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0),
    )
    acc = np.zeros((3, 3), dtype=complex)
    for v in vectors:
        acc += np.outer(v, v.conj())
    return acc / 3.0


def w_vector() -> np.ndarray:
    return np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)


# ---------------------------------------------------------------------------
# earlier engine versions, kept as bit-for-bit references
# ---------------------------------------------------------------------------


def tuple_key_apply_mode_transform(state, transform):
    """The sparse kernel before integer keys and interned output bases:
    the expansion polynomial is keyed by a tuple of occupations over the
    sorted union of the rows' output columns, and every output basis state
    is rebuilt from its key.  Same arithmetic in the same order as
    :func:`wchip.fock.apply_mode_transform`, so the two agree bit for bit."""
    from wchip.errors import ValidationError
    from wchip.fock import FockBasisState, PureState

    sqf = tuple(math.sqrt(math.factorial(k)) for k in range(33))
    rows = tuple(
        tuple((j, complex(row[j])) for j in np.flatnonzero(row)) for row in transform.matrix
    )
    mode_pos = {m: i for i, m in enumerate(transform.modes)}
    modes = transform.modes
    vacuum = FockBasisState()
    out = {}
    for basis, amp in state.items():
        if not basis:
            out[vacuum] = out.get(vacuum, 0.0) + amp
            continue
        row_list = []
        support: list[int] = []
        seen: set[int] = set()
        denom = 1.0
        for mode, count in basis:
            i = mode_pos.get(mode)
            if i is None:
                raise ValidationError(f"state occupies mode {mode} absent from transform")
            row = rows[i]
            row_list.append((row, count))
            denom *= sqf[count]
            for j, _ in row:
                if j not in seen:
                    seen.add(j)
                    support.append(j)
        if not support:
            continue
        support.sort()
        local = {j: p for p, j in enumerate(support)}
        width = len(support)
        poly = {(0,) * width: amp / denom}
        for row, count in row_list:
            local_row = [(local[j], u) for j, u in row]
            for _ in range(count):
                nxt = {}
                for key, coeff in poly.items():
                    for p, u in local_row:
                        nk = key[:p] + (key[p] + 1,) + key[p + 1 :]
                        prev = nxt.get(nk)
                        nxt[nk] = coeff * u if prev is None else prev + coeff * u
                poly = nxt
        for key, coeff in poly.items():
            scale = 1.0
            pairs = []
            for p in range(width):
                k = key[p]
                if k:
                    pairs.append((modes[support[p]], k))
                    if k > 1:
                        scale *= sqf[k]
            new_basis = FockBasisState(pairs)
            prev = out.get(new_basis)
            val = coeff * scale
            out[new_basis] = val if prev is None else prev + val
    return PureState(out)


def _lifted(amps: list) -> list:
    """`amps` times the power of two that brings the largest part of the
    nonzero ones into [0.5, 1): every ratio is kept bit for bit wherever
    nothing underflows, and a square below the normal floats is lifted."""
    m = -max((math.frexp(max(abs(a.real), abs(a.imag)))[1] for a in amps if a), default=0)
    return [complex(math.ldexp(a.real, m), math.ldexp(a.imag, m)) for a in amps]


def split_w_fidelity_colorblind(state, t1_channel=5, signal_channels=(2, 3, 4)):
    """The colour-blind W fidelity as first written: each term is split
    into its T1 and signal parts and classified with ``color_pattern``,
    rejected terms through a raised ``ValidationError``.  Same accumulation
    order and rescaling as :func:`w_fidelity_colorblind`."""
    from wchip.errors import ValidationError
    from wchip.fock import color_pattern

    counted = []
    for basis, amp in state.items():
        if sum(n for _, n in basis) != 4:
            continue
        t1_part, signal_part = basis.split((t1_channel,))
        if len(t1_part) != 1 or t1_part[0][1] != 1:
            continue
        try:
            pattern = color_pattern(signal_part, signal_channels)
        except ValidationError:
            continue
        counted.append((t1_part[0][0].color, pattern in ("BBR", "BRB", "RBB"), amp))
    return _colorblind_ratio(counted)


def _colorblind_ratio(counted) -> float:
    """sum_env |<W|psi_env>|^2 / sum_env |psi_env|^2 from the counted terms
    ``(T1 photon's color, overlaps W, amplitude)``, in their order; 0.0 when
    their weight is 0.  A weight below the normal floats is summed again on
    amplitudes lifted by :func:`_lifted`, as ``herald`` does, so the ratio
    keeps its bits wherever the squares do not underflow."""
    w_amp = 1.0 / math.sqrt(3.0)
    overlap_by_env = {}
    norm_sq = 0.0
    for env, overlaps, amp in counted:
        norm_sq += amp.real * amp.real + amp.imag * amp.imag
        if overlaps:
            overlap_by_env[env] = overlap_by_env.get(env, 0.0) + w_amp * amp
    amps = [amp for *_, amp in counted]
    if norm_sq < sys.float_info.min and any(amps):  # lifted, the weight is at least 1/4
        lifted = _lifted(amps)
        return _colorblind_ratio([(*term[:2], amp) for term, amp in zip(counted, lifted)])
    if norm_sq <= 0.0:
        return 0.0
    return sum(abs(o) ** 2 for o in overlap_by_env.values()) / norm_sq


def colorblind_terms(state) -> list:
    """The terms the colour-blind W fidelity counts, in term order, as
    ``(T1 photon's color, overlaps W, amplitude)``.

    A term counts when it holds one photon in each signal channel and one at
    T1 and nothing else: four single photons whose channels, in the basis
    order, are :data:`_COLORBLIND_CHANNELS`.  It overlaps W when exactly two
    of its signal photons are Blue.  Each term is classified in one pass over
    its pairs.
    """
    counted = []
    for basis, amp in state.items():
        if len(basis) != 4:
            continue
        ((ch0, c0), n0), ((ch1, c1), n1), ((ch2, c2), n2), ((ch3, c3), n3) = basis
        if (
            n0 != 1 or n1 != 1 or n2 != 1 or n3 != 1
            or (ch0, ch1, ch2, ch3) != _COLORBLIND_CHANNELS
        ):
            continue
        env = (c0, c1, c2, c3)[_T1_POSITION]
        counted.append((env, c0 + c1 + c2 + c3 - env == 2, amp))  # Blue is 1
    return counted


def w_fidelity_colorblind(state) -> float:
    """The colour-blind W fidelity of a propagated state, as ``sweep``
    computed it on the sparse Fock engine: W fidelity of the T1-conditioned
    state when the herald detector counts photons but not colors, as
    sum_env |<W|psi_env>|^2 / sum_env |psi_env|^2 over the T1-photon color
    environments, summed over :func:`colorblind_terms` in a fixed order.
    Where the squares underflow, the amplitudes are rescaled by a power of
    two first (:func:`_colorblind_ratio`)."""
    return _colorblind_ratio(colorblind_terms(state))


#: Channels of a term counted by :func:`w_fidelity_colorblind`, in basis
#: (channel-major) order, and the position of the T1 photon among them: the
#: channels of a T1 heralding term, whatever the T1 photon's color.
_COLORBLIND_CHANNELS = tuple(mode.channel for mode, _ in heralding_terms(T1_CHANNEL, Color.RED)[0][1])
_T1_POSITION = _COLORBLIND_CHANNELS.index(T1_CHANNEL)


def _propagated(cell):
    """The two-pair state propagated through the canonical circuit of
    ``cell = (r1, r2, r3, ad2_extinction)`` on the sparse Fock engine."""
    from wchip.circuit import SOURCE_CHANNEL, build_transform, canonical_w_circuit
    from wchip.elements import two_pair_state
    from wchip.fock import apply_mode_transform

    circuit = canonical_w_circuit(*cell[:3], ad2_extinction=cell[3])
    return apply_mode_transform(two_pair_state(SOURCE_CHANNEL), build_transform(circuit))


def t1_amplitudes_underflow(cell, state=None) -> bool:
    """Whether `cell` lies inside the unit cube (each r in (0, 1)) while
    every T1 amplitude counted by :func:`colorblind_terms` in its
    propagated `state` lies below the normal floats: the cells where the
    Fock engine cannot resolve the colour-blind fidelity."""
    state = _propagated(cell) if state is None else state
    amps = [amp for *_, amp in colorblind_terms(state)]
    largest = max((max(abs(a.real), abs(a.imag)) for a in amps), default=0.0)
    return all(0.0 < r < 1.0 for r in cell[:3]) and largest < sys.float_info.min


def per_cell_sweep(spec):
    """``wchip.optimize.sweep`` before the row engine: every cell is
    propagated on the sparse Fock engine and its metric read from the
    state, ``herald`` for the herald probability and
    :func:`w_fidelity_colorblind` for the W fidelity, both on amplitudes
    rescaled by a power of two.  Returns the rows; a W fidelity is None at
    a cell where :func:`t1_amplitudes_underflow` holds."""
    import itertools

    from wchip.herald import herald

    rows = []
    for cell in itertools.product(spec.r1, spec.r2, spec.r3, spec.ad2_extinction):
        state = _propagated(cell)
        if spec.metric == "herald_probability":
            value = float(herald(state, Branch.T1).probability)
        elif t1_amplitudes_underflow(cell, state):
            value = None
        else:
            value = float(w_fidelity_colorblind(state))
        rows.append((*cell, value))
    return tuple(rows)


def sparse_herald_summary(spec, source):
    """``wchip.cli._herald_summary`` before the source rows: the propagated
    state of the whole source, heralded on both branches by ``herald``.
    Returns each branch's probability and residual weight, each branch's
    W fidelity (None when it heralds nothing) and the T1 coincidence
    distribution (None likewise)."""
    from wchip.circuit import propagate
    from wchip.herald import coincidence_distribution, herald, w_fidelity

    state = propagate(source, spec)
    branches, fidelities, dist = {}, {}, None
    for branch in Branch:
        result = herald(state, branch)
        branches[branch.value] = {
            "probability": float(result.probability),
            "residual_weight": float(result.residual_weight),
        }
        if result.heralded_state is None:
            fidelities[branch.value] = None
        else:
            fidelities[branch.value] = float(w_fidelity(result.heralded_state, branch))
            if branch is Branch.T1:
                dist = coincidence_distribution(result.heralded_state)
    return branches, fidelities, dist


def eager_sweep_rows(spec):
    """The rows of ``wchip.optimize.sweep`` before its table held one value
    array: each slab's metric values listed as Python floats, then one
    ``cell + (value,)`` tuple built per cell, all held at once."""
    import itertools

    from wchip import optimize

    metric = (
        optimize._herald_probability
        if spec.metric == "herald_probability"
        else optimize._colorblind_fidelity
    )
    r2 = np.array(spec.r2)[:, np.newaxis, np.newaxis]
    r3 = np.array(spec.r3)[:, np.newaxis]
    router = optimize._router(np.array(spec.ad2_extinction))
    plane = (len(spec.r2), len(spec.r3), len(spec.ad2_extinction))
    planes = max(1, optimize._SCAN_SLAB_CELLS // math.prod(plane))
    values = []
    for start in range(0, len(spec.r1), planes):
        r1 = np.array(spec.r1[start : start + planes])[:, np.newaxis, np.newaxis, np.newaxis]
        rows = optimize._source_amplitudes(r1, r2, r3, router)
        values += np.broadcast_to(metric(rows), (len(r1), *plane)).ravel().tolist()
    cells = itertools.product(spec.r1, spec.r2, spec.r3, spec.ad2_extinction)
    return tuple(map(tuple.__add__, cells, zip(values)))


def min_checked_cell(spec) -> tuple[int, int, int, int]:
    """``wchip.optimize._checked_cell`` as a ``min`` over a generator: on
    each axis the index of the inside value nearest 1/2, the first on ties
    (``min`` keeps the first of equal keys), index 0 where no value is
    inside.  Inside means in (0, 1) on r1, r2 and r3 and above 0 on the
    extinction axis."""

    def nearest_half(axis, top):
        inside = (i for i, v in enumerate(axis) if 0.0 < v < top)
        return min(inside, key=lambda i: abs(axis[i] - 0.5), default=0)

    r1, r2, r3 = (nearest_half(axis, 1.0) for axis in (spec.r1, spec.r2, spec.r3))
    return r1, r2, r3, nearest_half(spec.ad2_extinction, math.inf)


def sweep_csv(table) -> str:
    """``SweepTable.to_csv`` before ``wchip sweep`` streamed its document:
    the header, then ``repr`` of every entry of every row, all joined at
    once."""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def sweep_json(table) -> str:
    """The JSON ``wchip sweep`` document before it was streamed: the whole
    document built from the rows, then dumped at once."""
    import json

    document = {
        "schema_version": 1,
        "command": "sweep",
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def per_term_dict_herald(state, branch, signal_channels=(2, 3, 4), t1_channel=5, t2_channel=6):
    """``herald`` as it was before the term table: each four-photon term is
    classified with a per-channel count dict and ``ModeLabel`` comparisons.
    Same accumulation order and underflow rules as
    :func:`wchip.herald.herald`, so the two agree bit for bit."""
    from wchip.errors import ParamOutOfRange
    from wchip.fock import Color, FockBasisState, ModeLabel, PureState
    from wchip.herald import Branch, HeraldResult

    branch = Branch(branch)
    sig = tuple(signal_channels)
    herald_mode = {
        Branch.T1: ModeLabel(int(t1_channel), Color.RED),
        Branch.T2: ModeLabel(int(t2_channel), Color.BLUE),
    }
    four_sq = 0.0
    branch_terms = {Branch.T1: {}, Branch.T2: {}}
    branch_sq = {Branch.T1: 0.0, Branch.T2: 0.0}
    for basis, amp in state.items():
        total = 0
        for _, n in basis:
            total += n
        if total != 4:
            continue
        p = amp.real * amp.real + amp.imag * amp.imag
        four_sq += p
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
    # the underflow rules of herald: a named error for the sector's weight,
    # power-of-two rescales for the branch's, and a branch that heralds
    # nothing only when it has no term
    def scaled(terms):
        m = -max(math.frexp(max(abs(a.real), abs(a.imag)))[1] for _, a in terms)
        return [(b, complex(math.ldexp(a.real, m), math.ldexp(a.imag, m))) for b, a in terms], m

    four = [(b, a) for b, a in state.items() if sum(n for _, n in b) == 4]
    if four_sq < sys.float_info.min:
        if four:
            raise ParamOutOfRange(f"four-photon weight {four_sq!r} underflows")
        return HeraldResult(0.0, None, 0.0)
    if branch_sq[branch] < sys.float_info.min and branch_terms[branch] and four_sq < 0.25:
        return per_term_dict_herald(
            PureState(dict(scaled(four)[0])), branch, signal_channels, t1_channel, t2_channel
        )
    p_t1 = branch_sq[Branch.T1] / four_sq
    p_t2 = branch_sq[Branch.T2] / four_sq
    residual = math.sqrt(max(0.0, 1.0 - p_t1 - p_t2))
    prob = p_t1 if branch is Branch.T1 else p_t2
    if not branch_terms[branch]:
        return HeraldResult(0.0, None, residual)
    terms, m = scaled(list(branch_terms[branch].items()))
    weight = sum(a.real * a.real + a.imag * a.imag for _, a in terms)
    if prob < sys.float_info.min:
        prob = math.ldexp(weight / four_sq, -2 * m)
    scale = 1.0 / math.sqrt(weight)
    heralded = PureState({b: a * scale for b, a in terms})
    return HeraldResult(prob, heralded, residual)


def looped_color_pattern(basis, channels) -> str:
    """``wchip.fock.color_pattern`` before its checks were merged: photon by
    photon, raising on the first doubled photon or repeated channel."""
    from wchip.errors import ValidationError

    message = f"expected one photon in each of channels {tuple(channels)}, got {basis!r}"
    if len(basis) != len(channels):
        raise ValidationError(message)
    by_channel = {}
    for mode, count in basis:
        if count != 1 or mode.channel in by_channel:
            raise ValidationError(message)
        by_channel[mode.channel] = mode.color
    try:
        return "".join(by_channel[ch].letter for ch in channels)
    except KeyError:
        raise ValidationError(message) from None


def numpy_coupler_block(r, t, phi=0.0):
    """``wchip.elements.coupler_block`` before it took Python scalars: numpy
    forms the cross term, and arrays of parameters broadcast."""
    cross = r * np.exp(1j * phi)
    return ((t, cross), (-np.conj(cross), t))


def uncached_element_transform(element):
    """``coupler_transform`` or ``adddrop_transform`` as they were before
    the memo and the Python-number blocks: every call builds the element's
    transform afresh from numpy-scalar blocks."""
    from wchip.elements import DirectionalCoupler, adddrop_block
    from wchip.fock import Color, ModeLabel, ModeTransform

    if isinstance(element, DirectionalCoupler):
        channels = element.channels
        block = numpy_coupler_block(element.r, element.t, element.phi)
        blocks = {color: block for color in Color}
    else:
        channels = (element.input_channel, element.through_channel, element.drop_channel)
        blocks = {
            color: adddrop_block(element.extinction, color is element.resonant_color)
            for color in Color
        }
    modes = tuple(ModeLabel(ch, color) for ch in channels for color in Color)
    mat = np.zeros((len(modes), len(modes)), dtype=complex)
    for color in Color:
        mat[color :: len(Color), color :: len(Color)] = blocks[color]
    return ModeTransform(modes, mat)


def uncached_build_transform(spec):
    """``build_transform`` before the element memo and the mode table: the
    mode list is sorted and every element transform built on each call.  The
    phase step is the program's, ``cmath.exp`` and Python ``complex``
    products, since the two must agree bit for bit."""
    from wchip.fock import Color, ModeLabel, ModeTransform

    spec.validate()
    modes = tuple(
        sorted(ModeLabel(ch, color) for ch in range(len(spec.channels)) for color in Color)
    )
    pos = {m: i for i, m in enumerate(modes)}
    mat = np.eye(len(modes), dtype=complex)
    for element in spec.elements:
        sub = uncached_element_transform(element)
        idx = [pos[m] for m in sub.modes]
        mat[:, idx] = mat[:, idx] @ sub.matrix
    if any(p != 0.0 for p in spec.phases):
        col_phase = [cmath.exp(1j * spec.phases[m.channel]) for m in modes]
        mat = np.array([[u * w for u, w in zip(row, col_phase)] for row in mat.tolist()])
    return ModeTransform(modes, mat)


def eager_sparse_rows(transform):
    """The kernel's sparse rows before they were built per input mode:
    every row of the matrix at once, as ``(key step, entry)`` pairs for its
    nonzero entries."""
    from wchip.fock import _FIELD_BITS

    return tuple(
        tuple((1 << _FIELD_BITS * j, u) for j, u in enumerate(row) if u)
        for row in transform.matrix.tolist()
    )


def eager_apply_mode_transform(state, transform):
    """The integer-keyed kernel before lazy rows and the trusted output
    constructor: all rows are built up front, and the output goes through
    ``PureState.__init__``.  Same arithmetic in the same order as
    :func:`wchip.fock.apply_mode_transform`."""
    from wchip.errors import ValidationError
    from wchip.fock import FockBasisState, PureState, _output_basis

    sqf = tuple(math.sqrt(math.factorial(k)) for k in range(33))
    rows = eager_sparse_rows(transform)
    mode_pos = {m: i for i, m in enumerate(transform.modes)}
    vacuum = FockBasisState()
    out = {}
    for basis, amp in state.items():
        if not basis:
            out[vacuum] = out.get(vacuum, 0.0) + amp
            continue
        row_list = []
        denom = 1.0
        for mode, count in basis:
            i = mode_pos.get(mode)
            if i is None:
                raise ValidationError(f"state occupies mode {mode} absent from transform")
            row_list.append((rows[i], count))
            denom *= sqf[count]
        poly = {0: amp / denom}
        for row, count in row_list:
            for _ in range(count):
                nxt = {}
                for key, coeff in poly.items():
                    for step, u in row:
                        nk = key + step
                        prev = nxt.get(nk)
                        nxt[nk] = coeff * u if prev is None else prev + coeff * u
                poly = nxt
        for key, coeff in poly.items():
            new_basis, scale = _output_basis(transform.modes, key)
            prev = out.get(new_basis)
            val = coeff * scale
            out[new_basis] = val if prev is None else prev + val
    return PureState(out)


def scipy_maximize(tol=1e-4, *, grid_step=0.04, grid_bounds=(0.1, 0.9)):
    """``wchip.optimize.maximize`` before the real rows and the in-package
    Nelder-Mead: the source rows are complex numpy scalars at a simplex
    point, and the refinement is ``scipy.optimize.minimize``.  The new
    version takes the same steps on the same objective bits, so the two
    return the same tuple."""
    import operator

    from scipy.optimize import minimize

    from wchip.circuit import (
        CANONICAL_CHANNELS,
        CANONICAL_COUPLERS,
        CANONICAL_ROUTER,
        SIGNAL_CHANNELS,
        SOURCE_CHANNEL,
        T1_CHANNEL,
    )
    from wchip.elements import adddrop_block
    from wchip.errors import ParamOutOfRange
    from wchip.fock import Color
    from wchip.optimize import CELL_CAP, _SCAN_SLAB_CELLS, _GRID_TOL, herald_objective

    def _check_unit_interval(r1, r2, r3):
        inside = [(val >= 0.0) & (val <= 1.0) for val in (r1, r2, r3)]
        if np.asarray(inside[0] & inside[1] & inside[2]).all():
            return
        for name, val, ok in zip(("r1", "r2", "r3"), (r1, r2, r3), inside):
            if not np.all(ok):
                raise ParamOutOfRange(f"{name} must lie in [0, 1], got {val}")

    def _source_rows(r1, r2, r3):
        r = (r1, r2, r3)
        row = [0j] * len(CANONICAL_CHANNELS)
        row[SOURCE_CHANNEL] = 1.0 + 0j
        for chans, k in CANONICAL_COUPLERS:
            rk = 1.0 if k is None else r[k]
            tk = np.sqrt(np.maximum(0.0, 1.0 - rk * rk))  # the numpy-only transmission
            _apply_block(row, chans, numpy_coupler_block(rk, tk))
        input_channel, through, drop, resonant = CANONICAL_ROUTER
        rows = []
        for color in Color:
            color_row = list(row)
            block = adddrop_block(0.0, color is resonant)
            _apply_block(color_row, (input_channel, through, drop), block)
            rows.append(color_row)
        return rows

    def _apply_block(row, channels, block):
        old = [row[ch] for ch in channels]
        for ch, column in zip(channels, zip(*block)):
            row[ch] = sum(map(operator.mul, old, column))

    def _norm_sq(z):
        return z.real * z.real + z.imag * z.imag

    def herald_objective_batch(r1, r2, r3):
        r = tuple(np.asarray(v, dtype=float)[()] for v in (r1, r2, r3))
        _check_unit_interval(*r)
        red, blue = _source_rows(*r)
        weight = 0.0
        for s in SIGNAL_CHANNELS:
            j, k = (ch for ch in SIGNAL_CHANNELS if ch != s)
            weight = weight + _norm_sq(2.0 * red[T1_CHANNEL] * red[s] * blue[j] * blue[k])
        norm_red = sum(_norm_sq(u) for u in red)
        norm_blue = sum(_norm_sq(u) for u in blue)
        return weight / (norm_red * norm_red * norm_blue * norm_blue)

    def _initial_simplex(center, scale):
        c = np.asarray(center, dtype=float)
        simplex = np.tile(c, (4, 1))
        for k in range(3):
            step = scale if c[k] + scale <= 1.0 else -scale
            simplex[k + 1, k] += step
        return simplex

    lo, hi = (float(grid_bounds[0]), float(grid_bounds[1]))
    steps = math.floor(min((hi - lo) / grid_step + _GRID_TOL, CELL_CAP))
    axis = [min(lo + k * grid_step, hi) for k in range(steps + 1)]
    grid = np.array(axis)
    plane_r2, plane_r3 = grid[:, np.newaxis], grid[np.newaxis, :]
    planes = max(1, _SCAN_SLAB_CELLS // (len(axis) * len(axis)))
    best_val = -1.0
    best = (axis[0], axis[0], axis[0])
    for start in range(0, len(axis), planes):
        slab = herald_objective_batch(
            grid[start : start + planes, np.newaxis, np.newaxis], plane_r2, plane_r3
        )
        i1, i2, i3 = np.unravel_index(np.argmax(slab), slab.shape)
        if slab[i1, i2, i3] > best_val:
            best_val = float(slab[i1, i2, i3])
            best = (axis[start + i1], axis[i2], axis[i3])

    def negated(x):
        xc = np.clip(x, 0.0, 1.0)
        return -float(herald_objective_batch(xc[0], xc[1], xc[2]))

    refined = minimize(
        negated,
        x0=np.array(best),
        method="Nelder-Mead",
        bounds=[(0.0, 1.0)] * 3,
        options={
            "xatol": float(tol),
            "fatol": 1e-14,
            "maxiter": 2000,
            "initial_simplex": _initial_simplex(best, grid_step),
        },
    )
    candidate = tuple(float(v) for v in np.clip(refined.x, 0.0, 1.0))
    value = herald_objective(*candidate)
    if value < best_val:
        candidate = best
        value = herald_objective(*best)
    return (candidate[0], candidate[1], candidate[2], value)


def sorted_minimize(fun, simplex, *, xatol, fatol, maxiter):
    """``wchip.optimize.minimize`` before its bookkeeping was rewritten: the
    simplex is re-sorted (stably) after every step, both stopping tests scan
    every vertex, each centroid column is a ``functools.reduce`` and each
    trial point a generator.  The new version visits the same points with
    the same arithmetic, so the two agree bit for bit."""
    import functools
    import operator

    def trial(xbar, worst, a, b):
        point = (a * c - b * w for c, w in zip(xbar, worst))
        return [1.0 if x > 1.0 else (x if x > 0.0 else 0.0) for x in point]

    sim = [[float(c) for c in vertex] for vertex in simplex]
    fsim = [fun(vertex) for vertex in sim]
    n = len(sim) - 1

    def by_value():
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    by_value()
    iterations = 1
    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        if (
            max(abs(c - b) for vertex in sim[1:] for c, b in zip(vertex, best)) <= xatol
            and max(abs(fbest - f) for f in fsim[1:]) <= fatol
        ):
            break
        xbar = [functools.reduce(operator.add, column) / n for column in zip(*sim[:-1])]
        worst = sim[-1]
        xr = trial(xbar, worst, 2.0, 1.0)
        fxr = fun(xr)
        if fxr < fbest:
            xe = trial(xbar, worst, 3.0, 2.0)
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = trial(xbar, worst, 1.5, 0.5)
                fxc = fun(xc)
                accepted = fxc <= fxr
            else:
                xc = trial(xbar, worst, 0.5, -0.5)
                fxc = fun(xc)
                accepted = fxc < fsim[-1]
            if accepted:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (c - b) for c, b in zip(sim[j], best)]
                    fsim[j] = fun(sim[j])
        iterations += 1
        by_value()
    return tuple(sim[0])


def pair_rho_run_tomography(source, shots=None, seed=0, *, diag_threshold=0.02):
    """``wchip.tomography.run_tomography`` before it worked on the 3x3 matrix
    alone: each conditioned block became a validated, symmetrised 2x2 pair
    matrix, whose positivity was checked once per phase, and each sampled
    setting passed the probability gates of ``sample_record``.  Same
    expressions, seeds and clip, so the two agree bit for bit."""
    from wchip.circuit import SIGNAL_CHANNELS
    from wchip.density import BASIS_THREE, ThreePhotonRho
    from wchip.errors import DiagonalsNotUniform, ParamOutOfRange, ValidationError
    from wchip.fock import Color
    from wchip.tomography import (
        CoefficientEstimate,
        MeasurementRecord,
        TomographyResult,
        TomoSetting,
        _binomial_se,
        _exact_rho,
        setting_seed,
    )

    def condition_on_blue(rho, k):
        i, j = (n for n, pattern in enumerate(BASIS_THREE) if pattern[k] == "B")
        block = rho.matrix[np.ix_((i, j), (i, j))]
        tr = float(np.real(np.trace(block)))
        if tr <= 1e-12:
            raise ValidationError(f"no population with a blue photon in channel {SIGNAL_CHANNELS[k]}")
        mat = block / tr
        assert float(np.max(np.abs(mat - mat.conj().T))) <= 1e-12
        assert abs(complex(np.trace(mat)) - 1.0) <= 1e-9
        return 0.5 * (mat + mat.conj().T)

    def setting_probabilities(m, phase):
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= -1e-9:
            raise ValidationError(f"pair matrix has eigenvalue {min_eig:.3g} below tolerance")
        half = 0.5 * float(np.real(m[0, 0] + m[1, 1]))
        coh = float(np.real(np.exp(1j * float(phase)) * m[0, 1]))
        return (half + coh, half - coh)

    def sample_record(probs, shots, seed, setting):
        p_plus, p_minus = (float(probs[0]), float(probs[1]))
        assert abs(p_plus + p_minus - 1.0) <= 1e-9 and min(p_plus, p_minus) >= -1e-9
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        n_plus = int(rng.binomial(shots, min(1.0, max(0.0, p_plus))))
        return MeasurementRecord(setting, n_plus, shots - n_plus, shots, int(seed))

    rho_true = _exact_rho(source)
    if shots is not None:
        shots = int(shots)
        if shots < 1:
            raise ParamOutOfRange(f"shots must be >= 1, got {shots}")
    diag = np.clip(np.real(np.diag(rho_true.matrix)), 0.0, 1.0)
    if shots is None:
        freqs = tuple(float(d) for d in diag)
    else:
        rng = np.random.default_rng(setting_seed(seed, "diagonals"))
        counts = rng.multinomial(shots, diag / diag.sum())
        freqs = tuple(float(c) / shots for c in counts)
    diagonal_frequencies = dict(zip(BASIS_THREE, freqs))
    deviation = max(abs(f - 1.0 / 3.0) for f in freqs)
    if deviation > float(diag_threshold):
        raise DiagonalsNotUniform(
            "counting statistics deviate from uniform thirds by "
            f"{deviation:.4f} (threshold {float(diag_threshold)}); observed "
            + ", ".join(f"{k}={v:.4f}" for k, v in diagonal_frequencies.items())
        )
    coefficients = {}
    records = []
    for k, channel in enumerate(SIGNAL_CHANNELS):
        pair = tuple(other for other in SIGNAL_CHANNELS if other != channel)
        pair_matrix = condition_on_blue(rho_true, k)
        freqs_by_phase = []
        ses = []
        for phase in (0.0, math.pi / 2.0):
            setting = TomoSetting(pair, phase, (channel, Color.BLUE))
            probs = setting_probabilities(pair_matrix, phase)
            if shots is None:
                freqs_by_phase.append(probs[0])
                ses.append(0.0)
            else:
                record = sample_record(probs, shots, setting_seed(seed, setting.label), setting)
                records.append(record)
                freqs_by_phase.append(record.frequency)
                ses.append(_binomial_se(record.frequency, shots))
        rho01 = complex(freqs_by_phase[0] - 0.5, -(freqs_by_phase[1] - 0.5))
        coefficients["abc"[k]] = CoefficientEstimate(
            value=(2.0 / 3.0) * rho01,
            se_re=(2.0 / 3.0) * ses[0],
            se_im=(2.0 / 3.0) * ses[1],
        )
    rho_hat = ThreePhotonRho.from_offdiagonals(
        coefficients["a"].value, coefficients["b"].value, coefficients["c"].value
    )
    return TomographyResult(
        rho=rho_hat,
        coefficients=coefficients,
        diagonal_frequencies=diagonal_frequencies,
        records=tuple(records),
        shots=shots,
        seed=None if shots is None else int(seed),
    )
