"""Golden CLI corpus: every command's document, compared byte for byte.

Each case runs one command on a small config from ``tests/golden`` (non-zero
phases, router extinction, a circuit file, both sweep metrics) in both
output formats and compares the bytes with ``tests/golden/expected``.  The
expected documents were written by this same manifest on the code before the
sparse kernel was rewritten around integer keys (``tomo-w`` before the
herald classifier was rewritten around one term table, and
``simulate-circuit-beta`` and ``tomo-thresholds`` before the config reader
was rewritten around one field table), so a change to any
amplitude's last bit, to term order, or to formatting shows here.  Regenerate
them only for a deliberate change of output, and say so in the change log.

Two families of documents were written by the sparse Fock engine and are
now computed on the source rows, which round differently in the last bits:

* the two sweep documents (``sweep`` runs its grid on the source-row
  engine): each metric value is compared within ``SWEEP_METRIC_TOL`` and
  every other byte exactly;
* the seven ``simulate`` and ``herald`` cases (both branches are read from
  the source rows, ``herald.herald_rows``): each number is compared within
  ``HERALD_NUMBER_TOL`` and every other byte exactly.

``tomo`` still heralds on the sparse chain, so its documents, like the
``optimize`` ones, are compared byte for byte.
"""

import re
from pathlib import Path

import pytest

from wchip.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (case name, command, config file in tests/golden or None, extra flags)
CASES = (
    ("simulate-phases", "simulate", "phases.json", ()),
    ("simulate-extinction", "simulate", "extinction.json", ()),
    ("simulate-circuit", "simulate", "circuit.json", ()),
    ("simulate-circuit-beta", "simulate", "circuit_beta.json", ()),
    ("herald-phases", "herald", "phases.json", ()),
    ("herald-extinction", "herald", "extinction.json", ()),
    ("herald-circuit", "herald", "circuit.json", ()),
    ("tomo-phases", "tomo", "phases.json", ("--shots", "4000", "--seed", "7")),
    ("tomo-extinction", "tomo", "extinction.json", ("--shots", "4000", "--seed", "8")),
    ("tomo-circuit", "tomo", "circuit.json", ("--shots", "4000", "--seed", "11")),
    ("tomo-rho_b", "tomo", "rho_b.json", ()),
    ("tomo-w", "tomo", "w.json", ()),
    ("tomo-thresholds", "tomo", "tomo_thresholds.json", ()),
    ("optimize-default", "optimize", None, ()),
    ("optimize-small", "optimize", "optimize_small.json", ()),
    ("optimize-tight", "optimize", "optimize_tight.json", ()),
    ("sweep-herald", "sweep", "sweep_herald.json", ()),
    ("sweep-fidelity", "sweep", "sweep_fidelity.json", ()),
)
FORMATS = ("json", "csv")

SWEEP_METRIC_TOL = 1e-12
HERALD_NUMBER_TOL = 1e-12

#: A number of a JSON or CSV document: not part of a name such as "T1".
_NUMBER = re.compile(r"(?<![\w.+-])-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?(?![\w.])")


def split_numbers(document: bytes) -> tuple[str, list[float]]:
    """A document with each number cut out, and the numbers."""
    text = document.decode()
    return _NUMBER.sub("#", text), [float(match[0]) for match in _NUMBER.finditer(text)]

#: The metric value that closes each row of a sweep document, by format:
#: the fifth entry of a JSON row, the last field of a CSV line.  The column
#: names are strings, so the header never matches.
_SWEEP_METRIC = {
    "json": re.compile(r"(\[\s*(?:[^\[\],]+,\s*){4})(-?[0-9][0-9.eE+-]*)(\s*\])"),
    "csv": re.compile(r"^((?:[^,\n]*,){4})(-?[0-9][0-9.eE+-]*)()$", re.M),
}


def split_sweep_metric(document: bytes, fmt: str) -> tuple[str, list[float]]:
    """A sweep document with each metric value cut out, and the values."""
    values = []

    def cut(match):
        values.append(float(match[2]))
        return match[1] + match[3]

    return _SWEEP_METRIC[fmt].sub(cut, document.decode()), values


def run_case(command, config, flags, fmt, out) -> int:
    """Run one case with its output written to `out`; the working directory
    must be ``tests/golden`` so the circuit file path resolves."""
    argv = [command, "--format", fmt, "--out", str(out), *flags]
    if config is not None:
        argv += ["--config", config]
    return main(argv)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "name, command, config, flags", CASES, ids=[case[0] for case in CASES]
)
def test_document_is_byte_identical(tmp_path, monkeypatch, name, command, config, flags, fmt):
    monkeypatch.delenv("WCHIP_OUT_DIR", raising=False)
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / f"{name}.{fmt}"
    assert run_case(command, config, flags, fmt, out) == 0
    actual, expected = out.read_bytes(), (GOLDEN / "expected" / f"{name}.{fmt}").read_bytes()
    if command == "sweep":
        (actual, values), (expected, reference) = (
            split_sweep_metric(doc, fmt) for doc in (actual, expected)
        )
        assert len(values) == len(reference) > 0
        deviation = max(abs(a - b) for a, b in zip(values, reference))
        assert deviation <= SWEEP_METRIC_TOL
    if command in ("simulate", "herald"):
        (actual, values), (expected, reference) = map(split_numbers, (actual, expected))
        assert len(values) == len(reference) > 0
        deviation = max(abs(a - b) for a, b in zip(values, reference))
        assert deviation <= HERALD_NUMBER_TOL
    assert actual == expected
