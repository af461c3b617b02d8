"""Release acceptance suite.

Each test checks one numbered criterion end to end and emits a single
``[PASS]``/``[FAIL]`` line (echoed in the terminal summary by conftest.py).
Tolerances are pinned here on purpose; loosening one is a release decision,
not a test fix.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from wchip import (
    Branch,
    Color,
    FockBasisState,
    ModeLabel,
    ModeTransform,
    PureState,
    apply_mode_transform,
    build_transform,
    canonical_w_circuit,
    coincidence_distribution,
    coincidence_distribution_rho,
    herald,
    maximize,
    rho_biseparable,
    rho_incoherent,
    run_tomography,
    two_pair_state,
    w_fidelity,
)
from wchip.cli import main as cli_main

from oracles import OPTIMAL_R, herald_prefactor, monomial_amplitudes, occupation_amplitudes, random_unitary

RESULTS: list[str] = []

W_PATTERNS = ("BBR", "BRB", "RBB")


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _heralded(r1: float, r2: float, r3: float, branch=Branch.T1, **kwargs):
    spec = canonical_w_circuit(r1, r2, r3, **kwargs)
    state = apply_mode_transform(two_pair_state(0), build_transform(spec))
    return herald(state, branch)


@pytest.fixture(scope="module")
def random_devices():
    """Fifty random reflectivity triples with both herald branches evaluated
    (shared by criteria 2 and 3)."""
    rng = np.random.default_rng(20260823)
    devices = []
    for _ in range(50):
        r1, r2, r3 = (float(x) for x in rng.uniform(0.05, 0.95, size=3))
        spec = canonical_w_circuit(r1, r2, r3)
        state = apply_mode_transform(two_pair_state(0), build_transform(spec))
        devices.append(((r1, r2, r3), herald(state, Branch.T1), herald(state, Branch.T2)))
    return devices


def test_criterion_1_optimizer_recovers_the_analytic_optimum():
    t0 = time.perf_counter()
    res = maximize(1e-4)
    elapsed = time.perf_counter() - t0
    err = max(abs(got - ref) for got, ref in zip((res.r1, res.r2, res.r3), OPTIMAL_R))
    ok = err < 1e-3 and elapsed < 30.0
    _report(
        1,
        ok,
        f"maximize() -> ({res.r1:.5f}, {res.r2:.5f}, {res.r3:.5f}), "
        f"max parameter error {err:.1e} (< 1e-3), {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_2_both_branches_herald_w_states(random_devices):
    min_fid = 1.0
    max_imbalance = 0.0
    for _, res_t1, res_t2 in random_devices:
        min_fid = min(
            min_fid,
            w_fidelity(res_t1.heralded_state, Branch.T1),
            w_fidelity(res_t2.heralded_state, Branch.T2),
        )
        max_imbalance = max(max_imbalance, abs(res_t1.probability - res_t2.probability))
    ok = min_fid >= 1.0 - 1e-10 and max_imbalance <= 1e-12
    _report(
        2,
        ok,
        f"50 random devices: min W fidelity {min_fid:.12f} (>= 1 - 1e-10), "
        f"max |P_T1 - P_T2| {max_imbalance:.1e} (<= 1e-12)",
    )


def test_criterion_3_herald_probability_scaling_law(random_devices):
    ratios = [res_t1.probability / herald_prefactor(*params) for params, res_t1, _ in random_devices]
    mean = sum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / mean
    ok = spread < 1e-9
    _report(
        3,
        ok,
        f"P_T1 / (r1 t1^3 r2 t2^2 r3 t3)^2 is constant at {mean:.9f} "
        f"across the same 50 devices (relative spread {spread:.1e} < 1e-9)",
    )


def test_criterion_4_heralded_coincidences_are_uniform():
    res = _heralded(*OPTIMAL_R)
    dist = coincidence_distribution(res.heralded_state)
    err = max(abs(dist.get(p, 0.0) - 1.0 / 3.0) for p in W_PATTERNS)
    stray = sum(v for k, v in dist.items() if k not in W_PATTERNS)
    ok = err < 1e-12 and stray < 1e-12
    _report(
        4,
        ok,
        f"heralded coincidence pattern probabilities within {err:.1e} of 1/3 "
        f"(< 1e-12), weight outside BBR/BRB/RBB {stray:.1e} (< 1e-12)",
    )


def test_criterion_5_tomography_recovers_the_w_coefficients():
    heralded = _heralded(*OPTIMAL_R).heralded_state
    rho = run_tomography(heralded).rho
    exact_err = max(
        abs(rho.matrix[i, j] - 1.0 / 3.0) for i, j in ((0, 1), (0, 2), (1, 2))
    )
    sampled = run_tomography(heralded, shots=100_000, seed=7)
    sampled_err = max(abs(sampled.coefficients[k].value - 1.0 / 3.0) for k in "abc")
    ok = exact_err < 1e-10 and sampled_err < 0.01
    _report(
        5,
        ok,
        f"a, b, c from exact inversion within {exact_err:.1e} of 1/3 (< 1e-10); "
        f"100000-shot estimates within {sampled_err:.2e} (< 0.01)",
    )


def test_criterion_6_counting_indistinguishable_mixtures_are_separated():
    rho_s = rho_incoherent()
    rho_b = rho_biseparable()
    diag_err = max(
        abs(coincidence_distribution_rho(r)[p] - 1.0 / 3.0)
        for r in (rho_s, rho_b)
        for p in W_PATTERNS
    )
    sampled = run_tomography(rho_s, shots=100_000, seed=7)
    coherence = max(abs(sampled.coefficients[k].value) for k in "abc")
    fid = rho_s.fidelity_w()
    ok = diag_err < 1e-12 and coherence < 0.01 and abs(fid - 1.0 / 3.0) < 1e-12
    _report(
        6,
        ok,
        f"rho_S/rho_B counting diagonals within {diag_err:.1e} of 1/3 (< 1e-12); "
        f"rho_S sampled coherences |a|,|b|,|c| <= {coherence:.2e} (< 0.01); "
        f"<W|rho_S|W> = {fid:.12f} (1/3 within 1e-12)",
    )


def test_criterion_7_engine_matches_first_principles_expansion():
    rng = np.random.default_rng(11)
    all_modes = (
        ModeLabel(0, Color.RED),
        ModeLabel(0, Color.BLUE),
        ModeLabel(1, Color.RED),
        ModeLabel(1, Color.BLUE),
    )
    worst_amp = 0.0
    worst_norm = 0.0
    for _ in range(100):
        n_modes = int(rng.integers(2, 5))
        modes = all_modes[:n_modes]
        u = random_unitary(n_modes, rng)
        xf = ModeTransform(modes=modes, matrix=u)
        photons = int(rng.integers(1, 4))
        counts = rng.multinomial(photons, np.full(n_modes, 1.0 / n_modes))
        occ = {i: int(c) for i, c in enumerate(counts) if c}
        basis = FockBasisState([(modes[i], n) for i, n in occ.items()])
        out = apply_mode_transform(PureState({basis: 1.0}), xf)
        expected = monomial_amplitudes(occ, u)
        got = occupation_amplitudes(out, modes)
        for key in set(expected) | set(got):
            worst_amp = max(worst_amp, abs(expected.get(key, 0j) - got.get(key, 0j)))
        worst_norm = max(worst_norm, abs(math.sqrt(out.norm_sq()) - 1.0))
    ok = worst_amp < 1e-10 and worst_norm < 1e-12
    _report(
        7,
        ok,
        f"100 random lossless transforms (<= 4 modes, <= 3 photons): "
        f"max amplitude deviation from the monomial oracle {worst_amp:.1e} (< 1e-10), "
        f"max norm drift {worst_norm:.1e} (< 1e-12)",
    )


def test_criterion_8_coupler_phases_do_not_shift_the_observables():
    values = np.linspace(0.0, 2.0 * math.pi, 5)
    probs = []
    fids = []
    for phi1 in values:
        for phi2 in values:
            for phi3 in values:
                res = _heralded(*OPTIMAL_R, phi1=float(phi1), phi2=float(phi2), phi3=float(phi3))
                probs.append(res.probability)
                fids.append(w_fidelity(res.heralded_state, Branch.T1))
    dp = max(probs) - min(probs)
    df = max(fids) - min(fids)
    ok = dp < 1e-12 and df < 1e-12
    _report(
        8,
        ok,
        f"5x5x5 grid over (phi1, phi2, phi3): herald probability varies by "
        f"{dp:.1e} and heralded W fidelity by {df:.1e} (each < 1e-12)",
    )


def test_criterion_9_cli_runs_are_byte_reproducible(tmp_path):
    opt = {"r1": OPTIMAL_R[0], "r2": OPTIMAL_R[1], "r3": OPTIMAL_R[2]}
    configs = {
        "simulate": {"canonical": opt, "beta": 0.1, "seed": 3},
        "herald": {"canonical": opt, "beta": 0.1, "seed": 3},
        "tomo": {"canonical": opt, "beta": 0.1, "shots": 20000, "seed": 3},
        "optimize": {"tol": 1e-4, "grid_step": 0.1, "grid_bounds": [0.2, 0.9], "seed": 3},
        "sweep": {"sweep": {"r1": [0.4, 0.5, 0.6], "r2": opt["r2"], "r3": opt["r3"]}, "seed": 3},
    }
    identical = []
    for command, doc in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for k in range(2):
            out = tmp_path / f"{command}.{k}.out"
            code = cli_main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            outs.append(out.read_bytes())
        identical.append(outs[0] == outs[1] and len(outs[0]) > 0)
    ok = all(identical)
    _report(
        9,
        ok,
        f"{sum(identical)}/{len(configs)} CLI commands (simulate, herald, tomo, "
        f"optimize, sweep) byte-identical when rerun with the same config and seed",
    )
