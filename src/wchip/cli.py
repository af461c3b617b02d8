"""Command-line driver: simulate / herald / tomo / optimize / sweep.

Every command reads a JSON config (``--config``), optionally overridden by
the ``--seed`` / ``--shots`` / ``--format`` / ``--out`` flags, and writes one
deterministic output document to stdout or ``--out``.  Identical config and
seed always produce byte-identical output.  The only environment override is
``WCHIP_OUT_DIR``, which prefixes relative output paths.

Exit codes: 0 success; 1 internal failure; 2 config validation;
3 counting diagonals not uniform; 4 sweep grid too large.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import (
    SIGNAL_CHANNELS,
    canonical_w_circuit,
    load_circuit,
    propagate,
)
from .elements import SourceSpec
from .errors import (
    ConfigError,
    DiagonalsNotUniform,
    GridTooLarge,
    ParamOutOfRange,
    ValidationError,
    WchipError,
)
from .fock import PureState, basis_from_pattern
from .herald import Branch, coincidence_distribution, herald, rho_biseparable, rho_incoherent, w_fidelity, w_state
from .optimize import CELL_CAP, GRID_BOUNDS, GRID_STEP, SweepSpec, check_cell_count, maximize, sweep
from .tomography import DEFAULT_DIAG_THRESHOLD, discriminate, run_tomography

SCHEMA_VERSION = 1

_COMMON_KEYS = {"circuit_file", "canonical", "beta", "max_order", "format", "out", "seed"}
_ALLOWED_KEYS = {
    "simulate": _COMMON_KEYS,
    "herald": _COMMON_KEYS,
    "tomo": _COMMON_KEYS | {"shots", "state", "diag_threshold", "w_threshold"},
    "optimize": {"tol", "grid_step", "grid_bounds", "format", "out", "seed"},
    "sweep": {"sweep", "format", "out", "seed"},
}
_CANONICAL_KEYS = {"r1", "r2", "r3", "phi1", "phi2", "phi3", "ad2_extinction"}
_TOMO_STATES = ("circuit", "w", "rho_s", "rho_b", "product_bbr")
#: Largest shot count the binomial sampler takes (a C int64).
_MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration for one command."""

    command: str
    circuit_file: str | None
    canonical: dict | None
    beta: complex | None
    max_order: int
    shots: int | None
    seed: int
    fmt: str
    out: str | None
    extras: dict


def _parse_float(value, field: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {field!r}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"field {field!r}: must be finite, got {value!r}")
    return number


def _parse_int(value, field: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {field!r}: expected an integer, got {value!r}") from None


def _parse_path(value, field: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"field {field!r}: expected a path string, got {value!r}")
    return value


def _parse_beta(value) -> complex:
    beta = None
    try:
        if isinstance(value, (int, float)):
            beta = complex(value)
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            beta = complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    if beta is None:
        raise ConfigError(f"field 'beta': expected a number or [re, im], got {value!r}")
    if not cmath.isfinite(beta):
        raise ConfigError(f"field 'beta': must be finite, got {value!r}")
    return beta


def _build_config(command: str, doc: dict, args: argparse.Namespace) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    allowed = _ALLOWED_KEYS[command]
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"field {key!r}: not recognized for command {command!r}")

    circuit_file = _parse_path(doc.get("circuit_file"), "circuit_file")
    canonical = doc.get("canonical")
    if canonical is not None:
        if not isinstance(canonical, dict):
            raise ConfigError("field 'canonical': must be an object")
        for key in canonical:
            if key not in _CANONICAL_KEYS:
                raise ConfigError(f"field 'canonical.{key}': not recognized")
        for key in ("r1", "r2", "r3"):
            if key not in canonical:
                raise ConfigError(f"field 'canonical.{key}': missing")

    state = str(doc.get("state", "circuit"))
    needs_circuit = command in ("simulate", "herald") or (
        command == "tomo" and state == "circuit"
    )
    if needs_circuit and bool(circuit_file) == bool(canonical is not None):
        raise ConfigError(
            "exactly one of 'circuit_file' or 'canonical' must be present"
        )

    beta = doc.get("beta")
    if beta is not None:
        beta = _parse_beta(beta)

    shots = args.shots if args.shots is not None else doc.get("shots")
    if shots is not None:
        shots = _parse_int(shots, "shots")
        if not 1 <= shots <= _MAX_SHOTS:
            raise ConfigError(f"field 'shots': must lie in [1, {_MAX_SHOTS}], got {shots}")

    seed = _parse_int(args.seed if args.seed is not None else doc.get("seed", 0), "seed")

    fmt = args.format or doc.get("format") or ("csv" if command == "sweep" else "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"field 'format': expected 'json' or 'csv', got {fmt!r}")

    out = args.out if args.out is not None else _parse_path(doc.get("out"), "out")

    extras: dict = {}
    if command == "tomo":
        if state not in _TOMO_STATES:
            raise ConfigError(
                f"field 'state': expected one of {_TOMO_STATES}, got {state!r}"
            )
        extras["state"] = state
        extras["diag_threshold"] = _parse_float(
            doc.get("diag_threshold", DEFAULT_DIAG_THRESHOLD), "diag_threshold"
        )
        extras["w_threshold"] = _parse_float(doc.get("w_threshold", 0.9), "w_threshold")
        if shots is None:
            raise ConfigError("field 'shots': required for tomo")
    if command == "optimize":
        extras["tol"] = _parse_float(doc.get("tol", 1e-4), "tol")
        extras["grid_step"] = _parse_float(doc.get("grid_step", GRID_STEP), "grid_step")
        bounds = doc.get("grid_bounds", list(GRID_BOUNDS))
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise ConfigError("field 'grid_bounds': expected [lo, hi]")
        extras["grid_bounds"] = tuple(_parse_float(b, "grid_bounds") for b in bounds)
    if command == "sweep":
        extras["sweep"] = _parse_sweep_block(doc.get("sweep"))

    max_order = _parse_int(doc.get("max_order", 2), "max_order")

    return RunConfig(
        command=command,
        circuit_file=circuit_file,
        canonical=canonical,
        beta=beta,
        max_order=max_order,
        shots=shots,
        seed=seed,
        fmt=fmt,
        out=out,
        extras=extras,
    )


def _parse_sweep_block(block) -> SweepSpec:
    if not isinstance(block, dict):
        raise ConfigError("field 'sweep': missing or not an object")
    unknown = set(block) - {"r1", "r2", "r3", "ad2_extinction", "metric", "cell_cap"}
    if unknown:
        raise ConfigError(f"field 'sweep.{sorted(unknown)[0]}': not recognized")

    def axis(name: str, default=None):
        """``(length, build)`` of one axis, where ``build()`` returns its
        values, so that the grid is sized before any axis is built."""
        value = block.get(name, default)
        if value is None:
            raise ConfigError(f"field 'sweep.{name}': missing")
        if isinstance(value, dict):
            try:
                start, stop, num = (
                    float(value["start"]),
                    float(value["stop"]),
                    int(value["num"]),
                )
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ConfigError(
                    f"field 'sweep.{name}': range object needs start/stop/num"
                ) from None
            if num < 1:
                raise ConfigError(f"field 'sweep.{name}': num must be >= 1")
            if num == 1:
                return 1, lambda: (start,)
            step = (stop - start) / (num - 1)
            return num, lambda: tuple(start + k * step for k in range(num))
        if isinstance(value, (int, float)):
            value = (value,)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field 'sweep.{name}': expected list, number or range object")
        try:
            values = tuple(float(v) for v in value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"field 'sweep.{name}': non-numeric entry") from None
        return len(values), lambda: values

    cell_cap = CELL_CAP
    if "cell_cap" in block:
        cell_cap = _parse_int(block["cell_cap"], "sweep.cell_cap")
        if cell_cap < 1:
            raise ConfigError("field 'sweep': cell cap must be positive")
    axes = {name: axis(name) for name in ("r1", "r2", "r3")}
    axes["ad2_extinction"] = axis("ad2_extinction", (0.0,))
    check_cell_count(math.prod(length for length, _ in axes.values()), cell_cap)
    try:
        return SweepSpec(
            **{name: build() for name, (_, build) in axes.items()},
            metric=str(block.get("metric", "herald_probability")),
            cell_cap=cell_cap,
        )
    except (ValidationError, ParamOutOfRange) as exc:
        raise ConfigError(f"field 'sweep': {exc}") from None


def _resolve_circuit(cfg: RunConfig):
    """Circuit spec plus source from either config style."""
    if cfg.circuit_file:
        try:
            spec, source = load_circuit(cfg.circuit_file)
        except FileNotFoundError:
            raise ConfigError(f"field 'circuit_file': no such file {cfg.circuit_file!r}") from None
        except WchipError as exc:
            raise ConfigError(f"field 'circuit_file': {exc}") from None
        except (OSError, ValueError) as exc:  # a directory, or a NUL in the path
            raise ConfigError(
                f"field 'circuit_file': cannot read {cfg.circuit_file!r}: {exc}"
            ) from None
        if cfg.beta is not None:
            channel = source.channel if source is not None else 0
            source = _make_source(channel, cfg.beta, cfg.max_order)
        if source is None:
            raise ConfigError("field 'beta': missing (circuit file carries no source)")
        return spec, source
    block = {
        key: _parse_float(value, f"canonical.{key}") for key, value in cfg.canonical.items()
    }
    if cfg.beta is None:
        raise ConfigError("field 'beta': missing")
    try:
        spec = canonical_w_circuit(**block)
    except ParamOutOfRange as exc:
        raise ConfigError(f"field 'canonical': {exc}") from None
    return spec, _make_source(0, cfg.beta, cfg.max_order)


def _make_source(channel: int, beta: complex, max_order: int) -> SourceSpec:
    try:
        return SourceSpec(channel=channel, beta=beta, max_order=max_order)
    except (ParamOutOfRange, WchipError) as exc:
        raise ConfigError(f"field 'beta': {exc}") from None


def _complex_json(z: complex):
    return {"re": float(z.real), "im": float(z.imag)}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _herald_summary(state) -> tuple[dict, dict[str, float | None], dict | None]:
    branches: dict = {}
    fidelities: dict[str, float | None] = {}
    dist = None
    for branch in (Branch.T1, Branch.T2):
        result = herald(state, branch)
        branches[branch.value] = {
            "probability": float(result.probability),
            "residual_weight": float(result.residual_weight),
        }
        if result.heralded_state is None:
            fidelities[branch.value] = None
        else:
            fidelities[branch.value] = float(
                w_fidelity(result.heralded_state, branch)
            )
            if branch is Branch.T1:
                dist = {
                    k: float(v)
                    for k, v in coincidence_distribution(result.heralded_state).items()
                }
    return branches, fidelities, dist


def cmd_simulate(cfg: RunConfig) -> str:
    spec, source = _resolve_circuit(cfg)
    state = propagate(source, spec)
    branches, fidelities, dist = _herald_summary(state)
    if cfg.fmt == "csv":
        lines = ["pattern,probability"]
        for pattern in sorted(dist) if dist else ():
            lines.append(f"{pattern},{dist[pattern]!r}")
        return "\n".join(lines) + "\n"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "beta": _complex_json(source.beta),
        "herald": branches,
        "fidelity_W_T1": fidelities["T1"],
        "fidelity_W_T2": fidelities["T2"],
        "coincidence_distribution": dist,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_herald(cfg: RunConfig) -> str:
    spec, source = _resolve_circuit(cfg)
    state = propagate(source, spec)
    branches, fidelities, _ = _herald_summary(state)
    if cfg.fmt == "csv":
        lines = ["branch,probability,fidelity_W,residual_weight"]
        for name in ("T1", "T2"):
            fid = fidelities[name]
            lines.append(
                ",".join(
                    [
                        name,
                        repr(branches[name]["probability"]),
                        "" if fid is None else repr(fid),
                        repr(branches[name]["residual_weight"]),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "herald",
        "branches": {
            name: {**branches[name], "fidelity_W": fidelities[name]}
            for name in ("T1", "T2")
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _tomo_source(cfg: RunConfig):
    state = cfg.extras["state"]
    if state == "circuit":
        spec, source = _resolve_circuit(cfg)
        result = herald(propagate(source, spec), Branch.T1)
        if result.heralded_state is None:
            raise WchipError("herald probability is zero; nothing to tomograph")
        return result.heralded_state
    if state == "w":
        return w_state(Branch.T1)
    if state == "rho_s":
        return rho_incoherent()
    if state == "rho_b":
        return rho_biseparable()
    return PureState.basis(basis_from_pattern("BBR", SIGNAL_CHANNELS))


def cmd_tomo(cfg: RunConfig) -> str:
    source = _tomo_source(cfg)
    result = run_tomography(
        source,
        shots=cfg.shots,
        seed=cfg.seed,
        diag_threshold=cfg.extras["diag_threshold"],
    )
    report = discriminate(result.rho, threshold=cfg.extras["w_threshold"])
    if cfg.fmt == "csv":
        return result.rho.to_csv()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "tomo",
        "state": cfg.extras["state"],
        "shots": result.shots,
        "seed": cfg.seed,
        "diagonals": {k: float(v) for k, v in result.diagonal_frequencies.items()},
        "coefficients": {
            name: est.as_json_dict() for name, est in result.coefficients.items()
        },
        "rho": result.rho.as_json_dict(),
        "records": [record.as_json_dict() for record in result.records],
        "report": report.as_json_dict(),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_optimize(cfg: RunConfig) -> str:
    try:
        result = maximize(
            cfg.extras["tol"],
            grid_step=cfg.extras["grid_step"],
            grid_bounds=cfg.extras["grid_bounds"],
        )
    except ParamOutOfRange as exc:  # tol, grid_step or grid_bounds out of range
        raise ConfigError(str(exc)) from None
    if cfg.fmt == "csv":
        return (
            "r1,r2,r3,value\n"
            + ",".join(repr(float(v)) for v in result)
            + "\n"
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "optimize",
        "r1": result.r1,
        "r2": result.r2,
        "r3": result.r3,
        "value": result.value,
        "tol": cfg.extras["tol"],
        "grid_step": cfg.extras["grid_step"],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_sweep(cfg: RunConfig) -> str:
    table = sweep(cfg.extras["sweep"])
    if cfg.fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "columns": list(table.columns),
            "rows": [list(row) for row in table.rows],
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return table.to_csv()


_COMMANDS = {
    "simulate": cmd_simulate,
    "herald": cmd_herald,
    "tomo": cmd_tomo,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wchip",
        description="Simulate heralded W-state generation in a color-routed photonic circuit.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument(
        "--config", default=None, help="JSON config file (required except for optimize)"
    )
    parser.add_argument("--out", default=None, help="output file (defaults to stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--shots", type=int, default=None)
    return parser


def _load_config_doc(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, a NUL in the path
        raise ConfigError(f"--config: cannot read {path!r}: {exc}") from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return doc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    base = os.environ.get("WCHIP_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
    except (OSError, ValueError) as exc:  # a directory, or a NUL in the path
        raise ConfigError(f"field 'out': cannot write {str(path)!r}: {exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None and args.command != "optimize":
        parser.error("the following arguments are required: --config")
    try:
        doc = _load_config_doc(args.config)
        cfg = _build_config(args.command, doc, args)
        text = _COMMANDS[args.command](cfg)
        _write_output(text, cfg.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DiagonalsNotUniform as exc:
        print(f"tomography aborted: {exc}", file=sys.stderr)
        return 3
    except GridTooLarge as exc:
        print(f"sweep rejected: {exc}", file=sys.stderr)
        return 4
    except WchipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure, still a clean exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
