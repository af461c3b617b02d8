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
import functools
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .circuit import (
    SIGNAL_CHANNELS,
    canonical_w_circuit,
    load_circuit,
    parse_complex,
    parse_integer,
    parse_number,
    propagate,
    read_json,
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
from .optimize import GRID_BOUNDS, GRID_STEP, SweepSpec, check_cell_count, maximize, sweep
from .tomography import DEFAULT_DIAG_THRESHOLD, discriminate, run_tomography

SCHEMA_VERSION = 1

#: Largest shot count the binomial sampler takes (a C int64).
_MAX_SHOTS = int(np.iinfo(np.int64).max)


def _choice(*options):
    def parse(value, field: str):
        if value not in options:
            raise ValidationError(f"field {field!r}: expected one of {options}, got {value!r}")
        return value

    return parse


def _path(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"field {field!r}: expected a path string, got {value!r}")
    return value


def _shots(value, field: str) -> int:
    shots = parse_integer(value, field)
    if not 1 <= shots <= _MAX_SHOTS:
        raise ValidationError(f"field {field!r}: must lie in [1, {_MAX_SHOTS}], got {shots}")
    return shots


def _threshold(value, field: str) -> float:
    threshold = parse_number(value, field)
    if threshold < 0.0:
        raise ValidationError(f"field {field!r}: must not be negative, got {threshold}")
    return threshold


def _bounds(value, field: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"field {field!r}: expected [lo, hi], got {value!r}")
    return tuple(parse_number(bound, field) for bound in value)


#: The keys, and their defaults, of the canonical and sweep blocks: the
#: keyword arguments of the callables the blocks are passed to, read once
#: at import so that a wrapper installed later cannot change them.
_CANONICAL_BLOCK = inspect.signature(canonical_w_circuit)
_SWEEP_BLOCK = inspect.signature(SweepSpec)


def _arguments(signature: inspect.Signature, block, field: str) -> dict:
    """The arguments an object `block` binds in `signature`, with the
    defaults of those it leaves out."""
    if not isinstance(block, dict):
        raise ValidationError(f"field {field!r}: expected an object, got {block!r}")
    try:
        bound = signature.bind(**block)
    except TypeError as exc:  # an unknown key, or a required one missing
        raise ValidationError(f"field {field!r}: {exc}") from None
    bound.apply_defaults()
    return bound.arguments


def _canonical(block, field: str) -> dict:
    arguments = _arguments(_CANONICAL_BLOCK, block, field)
    return {key: parse_number(value, f"{field}.{key}") for key, value in arguments.items()}


def _axis(value, field: str):
    """``(length, build)`` of one sweep axis, where ``build()`` returns its
    values, so that the grid is sized before any axis is built."""
    if isinstance(value, dict):
        if value.keys() != {"start", "stop", "num"}:
            raise ValidationError(
                f"field {field!r}: range object needs exactly start/stop/num, got {list(value)}"
            )
        start = parse_number(value["start"], f"{field}.start")
        stop = parse_number(value["stop"], f"{field}.stop")
        num = parse_integer(value["num"], f"{field}.num")
        if num < 1:
            raise ValidationError(f"field '{field}.num': must be >= 1")
        if num == 1:
            return 1, lambda: (start,)
        step = (stop - start) / (num - 1)
        return num, lambda: tuple(start + k * step for k in range(num))
    values = tuple(
        parse_number(v, field) for v in (value if isinstance(value, (list, tuple)) else (value,))
    )
    return len(values), lambda: values


def _sweep(block, field: str) -> SweepSpec:
    arguments = _arguments(_SWEEP_BLOCK, block, field)
    cell_cap = parse_integer(arguments.pop("cell_cap"), f"{field}.cell_cap")
    if cell_cap < 1:
        raise ValidationError(f"field '{field}.cell_cap': must be positive")
    metric = arguments.pop("metric")
    axes = {name: _axis(value, f"{field}.{name}") for name, value in arguments.items()}
    check_cell_count(math.prod(length for length, _ in axes.values()), cell_cap)
    try:
        return SweepSpec(
            **{name: build() for name, (_, build) in axes.items()},
            metric=metric,
            cell_cap=cell_cap,
        )
    except (ValidationError, ParamOutOfRange) as exc:
        raise ValidationError(f"field {field!r}: {exc}") from None


_REQUIRED = object()
_CIRCUIT_COMMANDS = ("simulate", "herald", "tomo")
_ALL_COMMANDS = ("simulate", "herald", "tomo", "optimize", "sweep")
#: Every config field: its parser, its default (None: absent) and the
#: commands that read it.  A parser takes the JSON value and the field's
#: name and raises ValidationError naming the field.  Fields are parsed in
#: this order, so the sweep grid, which can exceed its cap (exit 4), is
#: sized only once every other field has passed.
_FIELDS = {
    "circuit_file": (_path, None, _CIRCUIT_COMMANDS),
    "canonical": (_canonical, None, _CIRCUIT_COMMANDS),
    "beta": (parse_complex, None, _CIRCUIT_COMMANDS),
    "max_order": (parse_integer, 2, _CIRCUIT_COMMANDS),
    "shots": (_shots, _REQUIRED, ("tomo",)),
    "state": (_choice("circuit", "w", "rho_s", "rho_b", "product_bbr"), "circuit", ("tomo",)),
    "diag_threshold": (_threshold, DEFAULT_DIAG_THRESHOLD, ("tomo",)),
    "w_threshold": (parse_number, 0.9, ("tomo",)),
    "tol": (parse_number, 1e-4, ("optimize",)),
    "grid_step": (parse_number, GRID_STEP, ("optimize",)),
    "grid_bounds": (_bounds, GRID_BOUNDS, ("optimize",)),
    "format": (_choice("json", "csv"), None, _ALL_COMMANDS),
    "out": (_path, None, _ALL_COMMANDS),
    "seed": (parse_integer, 0, _ALL_COMMANDS),
    "sweep": (_sweep, _REQUIRED, ("sweep",)),
}


def _build_config(args: argparse.Namespace) -> dict:
    """The fields ``args.command`` reads, from the config file with the
    ``--seed``/``--shots``/``--format``/``--out`` flags over it."""
    command = args.command
    try:
        doc = {} if args.config is None else read_json(args.config)
    except ValidationError as exc:
        raise ConfigError(f"--config: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in _FIELDS or command not in _FIELDS[key][2]:
            raise ConfigError(f"field {key!r}: not recognized for command {command!r}")
    flags = {key: getattr(args, key) for key in ("seed", "shots", "format", "out")}
    doc.update((key, value) for key, value in flags.items() if value is not None)
    cfg = {}
    try:
        for key, (parse, default, commands) in _FIELDS.items():
            if command not in commands:
                continue
            if key in doc:
                cfg[key] = parse(doc[key], key)
            elif default is _REQUIRED:
                raise ValidationError(f"field {key!r}: required for {command}")
            else:
                cfg[key] = default
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    if cfg["format"] is None:
        cfg["format"] = "csv" if command == "sweep" else "json"
    needs_circuit = command in _CIRCUIT_COMMANDS and cfg.get("state", "circuit") == "circuit"
    if needs_circuit and bool(cfg["circuit_file"]) == (cfg["canonical"] is not None):
        raise ConfigError("exactly one of 'circuit_file' or 'canonical' must be present")
    return cfg


def _resolve_circuit(cfg: dict):
    """Circuit spec plus source from either config style."""
    if cfg["circuit_file"]:
        try:
            spec, source = load_circuit(cfg["circuit_file"])
        except WchipError as exc:
            raise ConfigError(f"field 'circuit_file': {exc}") from None
        if cfg["beta"] is not None:
            channel = source.channel if source is not None else 0
            source = _make_source(channel, cfg["beta"], cfg["max_order"])
        if source is None:
            raise ConfigError("field 'beta': missing (circuit file carries no source)")
        return spec, source
    if cfg["beta"] is None:
        raise ConfigError("field 'beta': missing")
    try:
        spec = canonical_w_circuit(**cfg["canonical"])
    except ParamOutOfRange as exc:
        raise ConfigError(f"field 'canonical': {exc}") from None
    return spec, _make_source(0, cfg["beta"], cfg["max_order"])


def _make_source(channel: int, beta: complex, max_order: int) -> SourceSpec:
    try:
        return SourceSpec(channel=channel, beta=beta, max_order=max_order)
    except WchipError as exc:
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


def cmd_simulate(cfg: dict) -> dict | str:
    spec, source = _resolve_circuit(cfg)
    state = propagate(source, spec)
    branches, fidelities, dist = _herald_summary(state)
    if cfg["format"] == "csv":
        lines = ["pattern,probability"]
        for pattern in sorted(dist) if dist else ():
            lines.append(f"{pattern},{dist[pattern]!r}")
        return "\n".join(lines) + "\n"
    return {
        "beta": _complex_json(source.beta),
        "herald": branches,
        "fidelity_W_T1": fidelities["T1"],
        "fidelity_W_T2": fidelities["T2"],
        "coincidence_distribution": dist,
    }


def cmd_herald(cfg: dict) -> dict | str:
    spec, source = _resolve_circuit(cfg)
    state = propagate(source, spec)
    branches, fidelities, _ = _herald_summary(state)
    if cfg["format"] == "csv":
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
    return {
        "branches": {
            name: {**branches[name], "fidelity_W": fidelities[name]}
            for name in ("T1", "T2")
        },
    }


def _tomo_source(cfg: dict):
    state = cfg["state"]
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


def cmd_tomo(cfg: dict) -> dict | str:
    source = _tomo_source(cfg)
    result = run_tomography(
        source,
        shots=cfg["shots"],
        seed=cfg["seed"],
        diag_threshold=cfg["diag_threshold"],
    )
    report = discriminate(result.rho, threshold=cfg["w_threshold"])
    if cfg["format"] == "csv":
        return result.rho.to_csv()
    return {
        "state": cfg["state"],
        "shots": result.shots,
        "seed": cfg["seed"],
        "diagonals": {k: float(v) for k, v in result.diagonal_frequencies.items()},
        "coefficients": {
            name: est.as_json_dict() for name, est in result.coefficients.items()
        },
        "rho": result.rho.as_json_dict(),
        "records": [record.as_json_dict() for record in result.records],
        "report": report.as_json_dict(),
    }


def cmd_optimize(cfg: dict) -> dict | str:
    try:
        result = maximize(
            cfg["tol"], grid_step=cfg["grid_step"], grid_bounds=cfg["grid_bounds"]
        )
    except ParamOutOfRange as exc:  # tol, grid_step or grid_bounds out of range
        raise ConfigError(str(exc)) from None
    if cfg["format"] == "csv":
        return "r1,r2,r3,value\n" + ",".join(repr(float(v)) for v in result) + "\n"
    return {
        "r1": result.r1,
        "r2": result.r2,
        "r3": result.r3,
        "value": result.value,
        "tol": cfg["tol"],
        "grid_step": cfg["grid_step"],
    }


def cmd_sweep(cfg: dict) -> dict | str:
    table = sweep(cfg["sweep"])
    if cfg["format"] == "csv":
        return table.to_csv()
    return {"columns": list(table.columns), "rows": [list(row) for row in table.rows]}


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


@functools.cache
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
        cfg = _build_config(args)
        body = _COMMANDS[args.command](cfg)
        if isinstance(body, dict):
            document = {"schema_version": SCHEMA_VERSION, "command": args.command, **body}
            body = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        _write_output(body, cfg["out"])
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
