"""Sparse Fock-space simulator for color-routed photonic W-state circuits.

Models a two-color (Blue/Red) pair source feeding a network of directional
couplers and an add-drop filter, post-selects a heralded three-photon state
across three output channels, and reconstructs its density matrix from
two-channel interference measurements.
"""

from .circuit import (
    CANONICAL_CHANNELS,
    CircuitSpec,
    build_transform,
    canonical_w_circuit,
    load_circuit,
    propagate,
    save_circuit,
)
from .density import ThreePhotonRho, trace_distance
from .elements import (
    AddDropFilter,
    DirectionalCoupler,
    SourceSpec,
    two_pair_state,
)
from .errors import (
    ConfigError,
    DiagonalsNotUniform,
    GridTooLarge,
    ParamOutOfRange,
    ValidationError,
    WchipError,
)
from .fock import (
    Color,
    FockBasisState,
    ModeLabel,
    ModeTransform,
    PureState,
    apply_mode_transform,
    reduce_to_channels,
)
from .herald import (
    Branch,
    HeraldResult,
    coincidence_distribution,
    coincidence_distribution_rho,
    herald,
    rho_biseparable,
    rho_incoherent,
    w_fidelity,
    w_state,
)
from .optimize import OptimizationResult, SweepSpec, SweepTable, herald_objective, maximize, sweep
from .tomography import (
    DiscriminationReport,
    MeasurementRecord,
    TomographyResult,
    TomoSetting,
    discriminate,
    run_tomography,
)

__version__ = "0.1.0"

__all__ = [
    "AddDropFilter",
    "Branch",
    "CANONICAL_CHANNELS",
    "CircuitSpec",
    "Color",
    "ConfigError",
    "DiagonalsNotUniform",
    "DirectionalCoupler",
    "DiscriminationReport",
    "FockBasisState",
    "GridTooLarge",
    "HeraldResult",
    "MeasurementRecord",
    "ModeLabel",
    "ModeTransform",
    "OptimizationResult",
    "ParamOutOfRange",
    "PureState",
    "SourceSpec",
    "SweepSpec",
    "SweepTable",
    "ThreePhotonRho",
    "TomographyResult",
    "TomoSetting",
    "ValidationError",
    "WchipError",
    "apply_mode_transform",
    "build_transform",
    "canonical_w_circuit",
    "coincidence_distribution",
    "coincidence_distribution_rho",
    "discriminate",
    "herald",
    "herald_objective",
    "load_circuit",
    "maximize",
    "propagate",
    "reduce_to_channels",
    "rho_biseparable",
    "rho_incoherent",
    "run_tomography",
    "save_circuit",
    "sweep",
    "trace_distance",
    "two_pair_state",
    "w_fidelity",
    "w_state",
]
