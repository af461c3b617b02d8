"""Interferometric pair tomography of the heralded three-photon state.

The protocol works entirely inside the three-dimensional two-blue/one-red
span.  After verifying that the counting diagonals are uniform (1/3 each),
each complex off-diagonal of the 3x3 matrix is obtained from a conditioned
pair measurement: detect a blue photon in one signal channel, then
interfere the remaining pair in the mixed color basis

    |+_phi> = (|BR> + e^{i phi} |RB>) / sqrt(2)

at the two phases phi = 0 and phi = pi/2.  Linear inversion of the outcome
frequencies gives the pair coherence rho01, and the three-photon coefficient
follows as (2/3) * rho01 (the conditioned block carries trace 2/3 before
normalization).  Linear inversion is exact on noiseless probabilities;
finite-shot reconstructions may leave the physical cone slightly, which is
reported, never repaired.

Sampling is deterministic: each setting draws from a generator seeded with
``seed XOR fnv1a64(setting label)``, so independent settings decouple and a
whole run is a pure function of (input state, shots, seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuit import SIGNAL_CHANNELS
from .density import _PSD_TOL, BASIS_THREE, ThreePhotonRho, trace_distance
from .errors import DiagonalsNotUniform, ParamOutOfRange, ValidationError, parse_integer, parse_number
from .fock import Color, PureState, reduce_to_channels
from .herald import rho_biseparable, rho_incoherent

#: channel conditioned on Blue -> (remaining pair, block indices, coefficient):
#: the block spans the patterns with a Blue photon at that channel's position,
#: and its coherence is the coefficient named ``a``, ``b`` or ``c``.
_CONDITION_MAP = {
    ch: (
        tuple(other for other in SIGNAL_CHANNELS if other != ch),
        tuple(i for i, pattern in enumerate(BASIS_THREE) if pattern[k] == "B"),
        "abc"[k],
    )
    for k, ch in enumerate(SIGNAL_CHANNELS)
}

_PHASES = (0.0, math.pi / 2.0)

DEFAULT_DIAG_THRESHOLD = 0.02


@functools.lru_cache(maxsize=8)  # the seven labels of a run
def _fnv1a64(label: str) -> int:
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def setting_seed(seed: int, label: str) -> int:
    """Per-setting derived seed: ``seed XOR fnv1a64(label)``."""
    return (seed ^ _fnv1a64(label)) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class TomoSetting:
    """One interferometric measurement configuration."""

    channel_pair: tuple[int, int]
    phase: float
    conditioned_on: tuple[int, Color]

    @property
    def label(self) -> str:
        i, j = self.channel_pair
        ch, color = self.conditioned_on
        return f"pair={i}{j};cond={color.letter}{ch};phase={self.phase:.6f}"


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts of the two interferometer outcomes for one setting."""

    setting: TomoSetting
    n_plus: int
    n_minus: int
    shots: int
    seed: int

    @property
    def frequency(self) -> float:
        return self.n_plus / self.shots


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientEstimate:
    """One reconstructed off-diagonal with its per-quadrature shot noise."""

    value: complex
    se_re: float
    se_im: float


@dataclass(frozen=True)
class TomographyResult:
    """Everything one tomography run produces."""

    rho: ThreePhotonRho
    coefficients: Mapping[str, CoefficientEstimate]
    diagonal_frequencies: Mapping[str, float]
    records: tuple[MeasurementRecord, ...]
    shots: int | None
    seed: int | None


def _exact_rho(source) -> ThreePhotonRho:
    if isinstance(source, ThreePhotonRho):
        return source
    if isinstance(source, PureState):
        return reduce_to_channels(source, SIGNAL_CHANNELS)
    raise ValidationError(
        f"tomography source must be a PureState or ThreePhotonRho, got {type(source).__name__}"
    )


def _binomial_se(freq: float, shots: int) -> float:
    return math.sqrt(max(0.0, freq * (1.0 - freq)) / shots)


def run_tomography(
    source,
    shots: int | None = None,
    seed: int = 0,
    *,
    diag_threshold: float = DEFAULT_DIAG_THRESHOLD,
) -> TomographyResult:
    """Run the full conditioned-pair protocol on a heralded state or matrix.

    With ``shots=None`` the exact outcome probabilities are inverted (the
    reconstruction is then exact to rounding); with an integer shot budget
    every setting and the diagonal check are sampled from per-setting seeds
    derived from `seed`.  Counting statistics deviating from the uniform 1/3
    diagonals by more than `diag_threshold` raise
    :class:`~wchip.errors.DiagonalsNotUniform`.
    `shots` and `seed` are counts (100.0 is 100) and `diag_threshold` a number.
    """
    rho_true = _exact_rho(source)
    seed = parse_integer(seed, "seed")
    diag_threshold = parse_number(diag_threshold, "diag_threshold")
    if shots is not None:
        shots = parse_integer(shots, "shots")
        if shots < 1:
            raise ParamOutOfRange(f"shots must be >= 1, got {shots}")

    # --- step 1: verify the counting diagonals -----------------------------
    diag = np.clip(np.real(np.diag(rho_true.matrix)), 0.0, 1.0)
    if shots is None:
        freqs = tuple(float(d) for d in diag)
    else:
        rng = np.random.default_rng(setting_seed(seed, "diagonals"))
        counts = rng.multinomial(shots, diag / diag.sum())
        freqs = tuple(float(c) / shots for c in counts)
    diagonal_frequencies = dict(zip(BASIS_THREE, freqs))
    deviation = max(abs(f - 1.0 / 3.0) for f in freqs)
    if deviation > diag_threshold:
        raise DiagonalsNotUniform(
            "counting statistics deviate from uniform thirds by "
            f"{deviation:.4f} (threshold {diag_threshold}); observed "
            + ", ".join(f"{k}={v:.4f}" for k, v in diagonal_frequencies.items())
        )

    # --- step 2: conditioned pair measurements at phases 0 and pi/2 --------
    # A block of the Hermitian 3x3 matrix over its real trace is the
    # Hermitian, unit-trace pair matrix; only its positivity is left to check.
    coefficients: dict[str, CoefficientEstimate] = {}
    records: list[MeasurementRecord] = []
    for channel, (pair, block, name) in _CONDITION_MAP.items():
        m = rho_true.matrix[np.ix_(block, block)]
        tr = float(np.real(np.trace(m)))
        if tr <= 1e-12:
            raise ValidationError(f"no population with a blue photon in channel {channel}")
        m = m / tr
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= -_PSD_TOL:
            raise ValidationError(f"pair matrix has eigenvalue {min_eig:.3g} below tolerance")
        half = 0.5 * float(np.real(m[0, 0] + m[1, 1]))
        freqs_by_phase: list[float] = []
        ses: list[float] = []
        for phase in _PHASES:
            p_plus = half + float(np.real(np.exp(1j * phase) * m[0, 1]))
            if shots is None:
                freqs_by_phase.append(p_plus)
                ses.append(0.0)
                continue
            setting = TomoSetting(pair, phase, (channel, Color.BLUE))
            sub_seed = setting_seed(seed, setting.label)
            rng = np.random.default_rng(sub_seed)
            n_plus = int(rng.binomial(shots, min(1.0, max(0.0, p_plus))))
            record = MeasurementRecord(setting, n_plus, shots - n_plus, shots, sub_seed)
            records.append(record)
            freqs_by_phase.append(record.frequency)
            ses.append(_binomial_se(record.frequency, shots))
        rho01 = complex(freqs_by_phase[0] - 0.5, -(freqs_by_phase[1] - 0.5))
        coefficients[name] = CoefficientEstimate(
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
        seed=None if shots is None else seed,
    )


# ---------------------------------------------------------------------------
# discrimination report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscriminationReport:
    """W fidelity and distances to the two indistinguishable-by-counting
    mixtures, plus the consistency verdict."""

    fidelity_w: float
    trace_distance_to_rho_s: float
    trace_distance_to_rho_b: float
    w_consistent: bool
    threshold: float


#: The two counterexample mixtures, built once (their matrices are read-only).
_RHO_S, _RHO_B = rho_incoherent(), rho_biseparable()


def discriminate(rho: ThreePhotonRho, *, threshold: float = 0.9) -> DiscriminationReport:
    """Compare a reconstructed matrix against the W projector and the two
    counterexample mixtures; flags W-consistency at fidelity > threshold (a number)."""
    threshold = parse_number(threshold, "threshold")
    fid = rho.fidelity_w()
    return DiscriminationReport(
        fidelity_w=fid,
        trace_distance_to_rho_s=trace_distance(rho, _RHO_S),
        trace_distance_to_rho_b=trace_distance(rho, _RHO_B),
        w_consistent=fid > threshold,
        threshold=threshold,
    )
