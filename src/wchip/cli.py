"""Command-line driver: simulate / herald / tomo / optimize / sweep.

Every command reads a JSON config (``--config``), optionally overridden by
the ``--seed`` / ``--shots`` / ``--format`` / ``--out`` flags, and writes one
deterministic output document to stdout or ``--out``.  Identical config and
seed always produce byte-identical output.  The only environment override is
``WCHIP_OUT_DIR``, which prefixes relative output paths.

``simulate`` and ``herald`` read both herald branches from the source rows
of the circuit (``transfer_rows`` and ``herald_rows``); ``tomo`` heralds the
propagated sparse state (``propagate`` and ``herald``), whose last bits its
sampled draws keep.

This module alone states the format of every document: each JSON body is
encoded by ``_json_document`` and each CSV table written by ``_csv``, from
the fields of the result types, which hold data only.

Exit codes: 0 success; 1 internal failure; 2 config validation;
3 counting diagonals not uniform; 4 sweep grid too large.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .circuit import (
    _REQUIRED,
    SIGNAL_CHANNELS,
    _object,
    canonical_w_circuit,
    load_circuit,
    parse_complex,
    parse_integer,
    parse_number,
    propagate,
    read_json,
    transfer_rows,
)
from .density import BASIS_THREE
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
from .herald import Branch, coincidence_distribution, herald, herald_rows, rho_biseparable, rho_incoherent, w_fidelity, w_state
from .optimize import GRID_BOUNDS, GRID_STEP, SweepSpec, SweepTable, check_cell_count, maximize, sweep
from .tomography import DEFAULT_DIAG_THRESHOLD, discriminate, run_tomography

SCHEMA_VERSION = 1

#: Largest count a config may give: the binomial sampler takes shot counts
#: as a C int64.
_MAX_COUNT = int(np.iinfo(np.int64).max)


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


def _threshold(value, field: str) -> float:
    threshold = parse_number(value, field)
    if threshold < 0.0:
        raise ValidationError(f"field {field!r}: must not be negative, got {threshold}")
    return threshold


def _bounds(value, field: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"field {field!r}: expected [lo, hi], got {value!r}")
    return tuple(parse_number(bound, field) for bound in value)


def _axis(value, field: str):
    """``(length, build)`` of one sweep axis, where ``build()`` returns its
    values, so that the grid is sized before any axis is built.  A range
    object gives ``start + k * step`` and ends exactly at ``stop``, as
    ``numpy.linspace`` does, so rounding never puts its end past [0, 1]."""
    if isinstance(value, dict):
        start, stop, num = _object(value, _RANGE, field).values()
        if num == 1:
            return 1, lambda: (start,)
        step = (stop - start) / (num - 1)
        return num, lambda: (*(start + k * step for k in range(num - 1)), stop)
    values = tuple(
        parse_number(v, field) for v in (value if isinstance(value, (list, tuple)) else (value,))
    )
    return len(values), lambda: values


def _count(value, field: str) -> int:
    count = parse_integer(value, field)
    if not 1 <= count <= _MAX_COUNT:
        raise ValidationError(f"field {field!r}: must lie in [1, {_MAX_COUNT}], got {count}")
    return count


_RANGE = {"start": (parse_number, _REQUIRED), "stop": (parse_number, _REQUIRED), "num": (_count, _REQUIRED)}


def _signature_fields(function, read, **reads) -> dict:
    """The fields of a block of keyword arguments of `function`: each of its
    parameters, read by ``reads.get(name, read)``, and required unless it
    has a default, which is read here, once, as a given value would be (so
    a wrapper installed later cannot change them)."""
    fields = {}
    for name, parameter in inspect.signature(function).parameters.items():
        parse = reads.get(name, read)
        empty = parameter.default is parameter.empty
        fields[name] = (parse, _REQUIRED if empty else parse(parameter.default, name))
    return fields


_CANONICAL = _signature_fields(canonical_w_circuit, parse_number)
_SWEEP = _signature_fields(SweepSpec, _axis, metric=lambda value, field: value, cell_cap=_count)


def _sweep(block, field: str) -> SweepSpec:
    arguments = _object(block, _SWEEP, field)
    cell_cap, metric = arguments.pop("cell_cap"), arguments.pop("metric")
    check_cell_count(math.prod(length for length, _ in arguments.values()), cell_cap)
    axes = {name: build() for name, (_, build) in arguments.items()}
    try:
        return SweepSpec(**axes, metric=metric, cell_cap=cell_cap)
    except (ValidationError, ParamOutOfRange) as exc:
        raise ValidationError(f"field {field!r}: {exc}") from None


_CIRCUIT_COMMANDS = ("simulate", "herald", "tomo")
_ALL_COMMANDS = ("simulate", "herald", "tomo", "optimize", "sweep")
#: Every config field: its reader, its default (None: absent) and the
#: commands that read it.  A reader takes the JSON value and the field's
#: name and raises ValidationError naming the field.  Fields are read in
#: this order, so the sweep grid, which can exceed its cap (exit 4), is
#: sized only once every other field has passed.
_FIELDS = {
    "circuit_file": (_path, None, _CIRCUIT_COMMANDS),
    "canonical": (lambda value, field: _object(value, _CANONICAL, field), None, _CIRCUIT_COMMANDS),
    "beta": (parse_complex, None, _CIRCUIT_COMMANDS),
    "max_order": (parse_integer, None, _CIRCUIT_COMMANDS),
    "shots": (_count, _REQUIRED, ("tomo",)),
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
    fields = {key: field[:2] for key, field in _FIELDS.items() if command in field[2]}
    flags = {key: getattr(args, key) for key in ("seed", "shots", "format", "out") if key in fields}
    if isinstance(doc, dict):
        doc.update((key, value) for key, value in flags.items() if value is not None)
    try:
        cfg = _object(doc, fields, "")
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    if cfg["format"] is None:
        cfg["format"] = "csv" if command == "sweep" else "json"
    return cfg


def _resolve_circuit(cfg: dict):
    """Circuit spec plus source from either config style.  The source's
    ``beta`` and ``max_order`` each come from the config if it gives them,
    else from the circuit file's source, else from :class:`SourceSpec`."""
    if bool(cfg["circuit_file"]) == (cfg["canonical"] is not None):
        raise ConfigError("exactly one of 'circuit_file' or 'canonical' must be present")
    field = "circuit_file" if cfg["circuit_file"] else "canonical"
    try:
        if cfg["circuit_file"]:
            spec, source = load_circuit(cfg["circuit_file"])
        else:
            spec, source = canonical_w_circuit(**cfg["canonical"]), None
    except WchipError as exc:
        raise ConfigError(f"field {field!r}: {exc}") from None
    if source is None and cfg["beta"] is None:
        raise ConfigError("field 'beta': missing, and no circuit file's source gives it")
    given = {key: cfg[key] for key in ("beta", "max_order") if cfg[key] is not None}
    try:
        return spec, dataclasses.replace(source, **given) if source else SourceSpec(0, **given)
    except WchipError as exc:
        raise ConfigError(f"source: {exc}") from None


def _complex_json(z: complex):
    return {"re": float(z.real), "im": float(z.imag)}


def _csv(columns: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A CSV table: the header, then one line per row, with a number as
    ``repr(float(v))``, None as an empty cell and a string as itself."""
    lines = [columns]
    for row in rows:
        lines.append("" if v is None else v if isinstance(v, str) else repr(float(v)) for v in row)
    return "".join(",".join(line) + "\n" for line in lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _herald_summary(spec, source) -> tuple[dict, dict[str, float | None], PureState | None]:
    """Both branches' probability and residual and W fidelity, and the T1
    heralded state, from the source rows of `spec` alone
    (:func:`herald_rows`)."""
    branches: dict = {}
    fidelities: dict[str, float | None] = {}
    results = herald_rows(transfer_rows(spec, source.channel), source)
    for branch, result in results.items():
        branches[branch.value] = {
            "probability": float(result.probability),
            "residual_weight": float(result.residual_weight),
        }
        state = result.heralded_state
        fidelities[branch.value] = None if state is None else float(w_fidelity(state, branch))
    return branches, fidelities, results[Branch.T1].heralded_state


def cmd_simulate(cfg: dict) -> dict | str:
    spec, source = _resolve_circuit(cfg)
    branches, fidelities, state = _herald_summary(spec, source)
    dist = None if state is None else {k: float(v) for k, v in coincidence_distribution(state).items()}
    if cfg["format"] == "csv":
        return _csv(("pattern", "probability"), ((p, dist[p]) for p in sorted(dist or ())))
    return {
        "beta": _complex_json(source.beta),
        "herald": branches,
        "fidelity_W_T1": fidelities["T1"],
        "fidelity_W_T2": fidelities["T2"],
        "coincidence_distribution": dist,
    }


def cmd_herald(cfg: dict) -> dict | str:
    spec, source = _resolve_circuit(cfg)
    branches, fidelities, _ = _herald_summary(spec, source)
    rows = {name: {**branches[name], "fidelity_W": fidelities[name]} for name in ("T1", "T2")}
    if cfg["format"] == "csv":
        columns = ("probability", "fidelity_W", "residual_weight")
        return _csv(("branch", *columns), ((name, *map(rows[name].get, columns)) for name in rows))
    return {"branches": rows}


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
    return PureState({basis_from_pattern("BBR", SIGNAL_CHANNELS): 1.0})


def cmd_tomo(cfg: dict) -> dict | str:
    source = _tomo_source(cfg)
    result = run_tomography(
        source,
        shots=cfg["shots"],
        seed=cfg["seed"],
        diag_threshold=cfg["diag_threshold"],
    )
    rho = result.rho.matrix
    if cfg["format"] == "csv":
        columns = (f"{label}_{part}" for label in BASIS_THREE for part in ("re", "im"))
        rows = zip(BASIS_THREE, ([x for z in row for x in (z.real, z.imag)] for row in rho))
        return _csv(("basis", *columns), ((label, *row) for label, row in rows))
    report = discriminate(result.rho, threshold=cfg["w_threshold"])
    return {
        "state": cfg["state"],
        "shots": result.shots,
        "seed": cfg["seed"],
        "diagonals": {k: float(v) for k, v in result.diagonal_frequencies.items()},
        "coefficients": {
            name: {**_complex_json(c.value), "se_re": float(c.se_re), "se_im": float(c.se_im)}
            for name, c in result.coefficients.items()
        },
        "rho": {"basis": list(BASIS_THREE), "re": rho.real.tolist(), "im": rho.imag.tolist()},
        "records": [
            {
                "n_plus": int(rec.n_plus),
                "n_minus": int(rec.n_minus),
                "shots": int(rec.shots),
                "seed": int(rec.seed),
                "setting": {
                    "channel_pair": list(rec.setting.channel_pair),
                    "phase": rec.setting.phase,
                    "conditioned_on": [
                        rec.setting.conditioned_on[0], rec.setting.conditioned_on[1].letter
                    ],
                },
            }
            for rec in result.records
        ],
        "report": {
            "fidelity_W": float(report.fidelity_w),
            "trace_distance_to_rhoS": float(report.trace_distance_to_rho_s),
            "trace_distance_to_rhoB": float(report.trace_distance_to_rho_b),
            "W-consistent": bool(report.w_consistent),
            "threshold": float(report.threshold),
        },
    }


def cmd_optimize(cfg: dict) -> dict | str:
    try:
        result = maximize(
            cfg["tol"], grid_step=cfg["grid_step"], grid_bounds=cfg["grid_bounds"]
        )
    except ParamOutOfRange as exc:  # tol, grid_step or grid_bounds out of range
        raise ConfigError(str(exc)) from None
    if cfg["format"] == "csv":
        return _csv(result._fields, (result,))
    return {
        "r1": result.r1,
        "r2": result.r2,
        "r3": result.r3,
        "value": result.value,
        "tol": cfg["tol"],
        "grid_step": cfg["grid_step"],
    }


#: Rows of a sweep document formatted and written at a time.
_ROWS_PER_WRITE = 2**14

#: The text of a sweep document's row, by format: before its first value,
#: after each axis value, after the metric value, and between two rows.
_ROW_TEXT = {
    "csv": ("", ",", "\n", ""),
    "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n"),
}


def cmd_sweep(cfg: dict) -> Iterator[str]:
    table = sweep(cfg["sweep"])
    if cfg["format"] == "json" and not np.isfinite(table.values).all():
        raise ValueError("Out of range float values are not JSON compliant")  # as json.dumps
    return _sweep_document(table, cfg["format"])


def _sweep_document(table: SweepTable, fmt: str) -> Iterator[str]:
    """The sweep document in `fmt`, one slab of rows at a time: the bytes of
    the whole table dumped at once (as ``json.dumps`` for JSON), with each
    axis value and each metric value formatted once."""
    if fmt == "csv":
        head, tail = _csv(table.columns, ()), ""
    else:
        document = _json_document("sweep", {"columns": list(table.columns), "rows": []})
        head, tail = document.split('"rows": []')
        head, tail = head + '"rows": [\n', "\n  ]" + tail
    yield head
    start, sep, end, between = _ROW_TEXT[fmt]
    first, *rest = ([repr(v) + sep for v in axis] for axis in table.axes)
    prefixes = map("".join, itertools.product([start + text for text in first], *rest))
    join = (end + between).join
    for k in range(0, len(table.values), _ROWS_PER_WRITE):
        values = table.values[k : k + _ROWS_PER_WRITE].tolist()
        cells = itertools.islice(prefixes, len(values))
        yield (between if k else "") + join(map(str.__add__, cells, map(float.__repr__, values))) + end
    yield tail


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


def _json_document(command: str, body: dict) -> str:
    document = {"schema_version": SCHEMA_VERSION, "command": command, **body}
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_output(chunks: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
        return
    path = Path(out)
    base = os.environ.get("WCHIP_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as stream:
            stream.writelines(chunk.encode("utf-8") for chunk in chunks)
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
            body = _json_document(args.command, body)
        _write_output((body,) if isinstance(body, str) else body, cfg["out"])
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
