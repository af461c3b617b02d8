"""Property test of the config boundary: any JSON in any field a command
reads either runs or fails with a documented exit code and a named error.

Every field is drawn mostly from plausible values, which reach the deep
paths (propagation, tomography, the optimizer, sweeps), and otherwise from
arbitrary JSON (nulls, booleans, huge integers, NaN and infinities,
strings, nested lists and objects).  Paths are drawn from names inside the example's own
directory, never from arbitrary text, so a run can only read or write there.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wchip.cli import main

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_NON_STRING = _JSON.filter(lambda v: not isinstance(v, str))


def _one_in(n: int):
    """True for one of `n` equally listed outcomes."""
    return st.sampled_from(range(n)).map(lambda k: k == 0)


def _or_json(valid):
    """A plausible value, or arbitrary JSON for one draw in eight."""
    return _one_in(8).flatmap(lambda odd: _JSON if odd else valid)


def _as_count(v):
    """What the CLI reads from `v` as a count, or None if it is no count."""
    try:
        return int(v)
    except (TypeError, ValueError, OverflowError):
        return None


# Axis counts from 5 up to the default cap of 10**6 cells are valid and run
# for up to seconds per example (about a second per 10**6-cell sweep, more
# to format it), so counts, numeric strings included, are at most 4 or at
# least 10**7.  Cell caps stay small: a larger cap would admit the large
# grids, which then run.
_COUNTS = st.one_of(
    st.integers(-2, 4),
    st.integers(10**7, 10**15),
    _JSON.filter(lambda v: not 4 < (_as_count(v) or 0) < 10**7),
)
_CELL_CAPS = st.one_of(st.integers(-1, 100), _JSON.filter(lambda v: (_as_count(v) or 0) <= 100))

_UNIT = st.floats(0.0, 1.0)
_CHANNEL_NAMES = ("0", "1", "2", "3", "4", "T1", "T2")
_LABEL = _or_json(st.sampled_from(_CHANNEL_NAMES))

# Names inside the example directory: a circuit file, a subdirectory, a
# plain file, a missing file, a NUL byte, and the directory itself ("").
_PATH_NAMES = (
    "circuit.json", "adir", "afile", "afile/out.json", "missing.json", "a\x00b", "", ".",
    "sub/out.txt", "notutf8.json",
)
_PATHS = st.sampled_from(_PATH_NAMES)


def _object(required: dict, optional: dict | None = None):
    """An object with the required fields and any subset of the optional
    ones, sometimes also carrying an unknown key."""
    return st.tuples(
        st.fixed_dictionaries(required, optional=optional or {}), _one_in(8), _JSON
    ).map(lambda t: {**t[0], "zeta": t[2]} if t[1] else t[0])


_COUPLER = _object(
    {
        "type": st.just("coupler"),
        "channels": _or_json(st.lists(_LABEL, min_size=2, max_size=2)),
        "r": _or_json(_UNIT),
    },
    {"phi": _or_json(st.floats(-4, 4))},
)
_ADDDROP = _object(
    {"type": st.just("adddrop"), "input": _LABEL, "through": _LABEL, "drop": _LABEL},
    {
        "resonant_color": _or_json(st.sampled_from(["Blue", "Red", "b", "r"])),
        "extinction": _or_json(_UNIT),
    },
)
_CIRCUIT = _or_json(
    _object(
        {
            "channels": _or_json(st.just(list(_CHANNEL_NAMES))),
            "elements": _or_json(st.lists(_or_json(st.one_of(_COUPLER, _ADDDROP)), max_size=5)),
        },
        {
            "phases": _or_json(st.lists(st.floats(-4, 4), min_size=7, max_size=7)),
            "source": _or_json(
                _object(
                    {},
                    {
                        "channel": _LABEL,
                        "beta": _or_json(st.floats(-0.6, 0.6)),
                        "max_order": _or_json(st.integers(0, 2)),
                    },
                )
            ),
        },
    )
)

_CANONICAL = _or_json(
    _object(
        {key: _or_json(_UNIT) for key in ("r1", "r2", "r3")},
        {
            "ad2_extinction": _or_json(_UNIT),
            **{key: _or_json(st.floats(-4, 4)) for key in ("phi1", "phi2", "phi3")},
        },
    )
)
_AXIS = _or_json(
    st.one_of(
        st.lists(_or_json(_UNIT), min_size=1, max_size=3),
        _UNIT,
        _object({"start": _or_json(_UNIT), "stop": _or_json(_UNIT), "num": _COUNTS}),
    )
).filter(lambda v: not (isinstance(v, list) and len(v) > 3))
_SWEEP = _or_json(
    _object(
        {"r1": _AXIS, "r2": _AXIS, "r3": _AXIS},
        {
            "ad2_extinction": _AXIS,
            "metric": _or_json(st.sampled_from(["herald_probability", "w_fidelity"])),
            "cell_cap": _CELL_CAPS,
        },
    )
)

_CIRCUIT_STYLE = {
    "circuit_file": st.sampled_from((_NON_STRING, _PATHS, st.just("circuit.json"))).flatmap(
        lambda strategy: strategy
    ),
    "canonical": _CANONICAL,
}
_COMMON = {
    "beta": _or_json(
        st.one_of(st.floats(-0.6, 0.6), st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2))
    ),
    "max_order": _or_json(st.integers(0, 2)),
    "format": _or_json(st.sampled_from(["json", "csv"])),
    "out": _or_json(_PATHS).filter(lambda v: not isinstance(v, str) or v in _PATH_NAMES),
    "seed": _or_json(st.integers(0, 2**64)),
}
# The fields each command reads.
_FIELDS = {
    "simulate": {**_CIRCUIT_STYLE, **_COMMON},
    "herald": {**_CIRCUIT_STYLE, **_COMMON},
    "tomo": {
        **_CIRCUIT_STYLE,
        **_COMMON,
        "shots": _or_json(st.integers(1, 10**4)),
        "state": _or_json(st.sampled_from(["circuit", "w", "rho_s", "rho_b", "product_bbr"])),
        "diag_threshold": _or_json(_UNIT),
        "w_threshold": _or_json(_UNIT),
    },
    "optimize": {
        "tol": _or_json(st.floats(1e-8, 1e-1)),
        "grid_step": _or_json(st.floats(0.05, 0.45)),
        "grid_bounds": _or_json(st.lists(_UNIT, min_size=2, max_size=2).map(sorted)),
        "format": _COMMON["format"],
        "out": _COMMON["out"],
        "seed": _COMMON["seed"],
    },
    "sweep": {
        "sweep": _SWEEP,
        "format": _COMMON["format"],
        "out": _COMMON["out"],
        "seed": _COMMON["seed"],
    },
}


@st.composite
def _config(draw, fields: dict):
    """A config holding most fields (``out`` seldom, so most documents reach
    stdout); of ``circuit_file`` and ``canonical`` usually exactly one,
    sometimes both or neither."""
    doc = {}
    style = draw(st.sampled_from(["canonical", "circuit_file", "both", "neither"] + ["canonical"] * 4))
    for key, strategy in fields.items():
        if key in _CIRCUIT_STYLE:
            present = style in (key, "both")
        elif key == "out":
            present = draw(_one_in(4))
        else:
            present = not draw(_one_in(8))
        if present:
            doc[key] = draw(strategy)
    return doc


def _prepare(workdir: str, circuit) -> None:
    """The files the drawn paths may name."""
    with open(os.path.join(workdir, "circuit.json"), "w", encoding="utf-8") as f:
        json.dump(circuit, f)
    with open(os.path.join(workdir, "notutf8.json"), "wb") as f:
        f.write(b'{"channels": ["\xff"]}')
    with open(os.path.join(workdir, "afile"), "w", encoding="utf-8") as f:
        f.write("{}")
    os.mkdir(os.path.join(workdir, "adir"))


@pytest.mark.parametrize("command", sorted(_FIELDS))
@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_gives_a_documented_outcome(tmp_path, monkeypatch, capsys, command, data):
    doc = data.draw(_config(_FIELDS[command]), label="config")
    circuit = data.draw(_CIRCUIT, label="circuit file")
    workdir = tempfile.mkdtemp(dir=tmp_path)
    _prepare(workdir, circuit)
    config = os.path.join(workdir, "config.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("WCHIP_OUT_DIR", workdir)
    capsys.readouterr()

    code = main([command, "--config", config])

    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4), captured.err
    assert "internal error:" not in captured.err
    if code == 1:
        assert captured.err.startswith("error: "), captured.err
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    if code == 0 and "out" not in doc:
        assert captured.out
