"""Independent verification routes for the test suite.

Everything here recomputes physics through a different algorithm than the
package uses: brute-force polynomial monomial expansion instead of the
per-photon convolution engine, explicit outer products instead of
creation-operator algebra, closed-form parameter dependence instead of
circuit simulation.  Tests compare the two routes; neither side is derived
from the other, so agreement is evidence and disagreement is a bug.

The last section keeps earlier versions of three package functions that
were rewritten with the same arithmetic in the same order; tests hold the
rewrites to them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


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
    scalar weight folded in, for comparison against monomial_amplitudes."""
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
    from wchip.errors import UnknownMode
    from wchip.fock import PRUNE_EPS, FockBasisState, PureState

    sqf = tuple(math.sqrt(math.factorial(k)) for k in range(33))
    rows = tuple(
        tuple((j, complex(row[j])) for j in np.flatnonzero(np.abs(row) > PRUNE_EPS))
        for row in transform.matrix
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
                raise UnknownMode(f"state occupies mode {mode} absent from transform")
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
    return PureState(out, state.weight)


def split_w_fidelity_colorblind(state, t1_channel=5, signal_channels=(2, 3, 4)):
    """The colour-blind W fidelity as first written: each term is split
    into its T1 and signal parts and classified with ``color_pattern``,
    rejected terms through a raised ``PatternMismatch``.  Same accumulation
    order as ``wchip.optimize._w_fidelity_colorblind``."""
    from wchip.errors import PatternMismatch
    from wchip.fock import color_pattern

    w_amp = 1.0 / math.sqrt(3.0)
    overlap_by_env = {}
    norm_sq = 0.0
    for basis, amp in state.items():
        if sum(n for _, n in basis) != 4:
            continue
        t1_part, signal_part = basis.split((t1_channel,))
        if len(t1_part) != 1 or t1_part[0][1] != 1:
            continue
        try:
            pattern = color_pattern(signal_part, signal_channels)
        except PatternMismatch:
            continue
        norm_sq += amp.real * amp.real + amp.imag * amp.imag
        if pattern in ("BBR", "BRB", "RBB"):
            env = t1_part[0][0].color
            overlap_by_env[env] = overlap_by_env.get(env, 0.0) + w_amp * amp
    if norm_sq <= 0.0:
        return 0.0
    return sum(abs(o) ** 2 for o in overlap_by_env.values()) / norm_sq


def per_term_dict_herald(state, branch, signal_channels=(2, 3, 4), t1_channel=5, t2_channel=6):
    """``herald`` as it was before the term table: each four-photon term is
    classified with a per-channel count dict and ``ModeLabel`` comparisons.
    Same accumulation order as :func:`wchip.herald.herald`, so the two agree
    bit for bit."""
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
    if four_sq <= 0.0:
        return HeraldResult(0.0, None, 0.0)
    p_t1 = branch_sq[Branch.T1] / four_sq
    p_t2 = branch_sq[Branch.T2] / four_sq
    residual = math.sqrt(max(0.0, 1.0 - p_t1 - p_t2))
    prob = p_t1 if branch is Branch.T1 else p_t2
    if prob <= 0.0:
        return HeraldResult(0.0, None, residual)
    scale = 1.0 / math.sqrt(branch_sq[branch])
    heralded = PureState({b: a * scale for b, a in branch_terms[branch].items()})
    return HeraldResult(prob, heralded, residual)
