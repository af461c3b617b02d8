"""Runs one benchmark workload in its own process and prints raw results.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src``; the last line
of stdout is a JSON object with the timing samples, operation counts, peak
resident memory and, untraced, the host-speed scale of every step or, traced,
the per-layer spans.  Imports and a short warm-up happen before anything is
timed.

Workloads (why each exists is in README.md):

* ``design``       one ``maximize(1e-4)`` per item on the default grid;
* ``robustness``   one colour-blind W-fidelity ``sweep`` of a seeded
                   21 x 21 (r1, r2) grid x 8 extinctions per call, items are cells;
* ``characterize`` one seeded random device per item, run through
                   ``wchip.cli.main`` as ``simulate`` + ``tomo`` (+ a reference
                   ``tomo`` of ``rho_s``/``rho_b`` every fourth device).

Every operation is checked against references restated here, not computed
by the engine; a failed check or an exception counts as a failed operation.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import wchip.cli
import wchip.optimize
from hostspeed import Sampler, clock
from tracing import Tracer

# --- references, restated from the paper rather than taken from wchip -------
R_OPT = (0.5, 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0))
P_OPT = 3.0 / 64.0  # 12 * (r1 t1^3 r2 t2^2 r3 t3)^2 at R_OPT
SCALING = 12.0
W_PATTERNS = ("BBR", "BRB", "RBB")

# --- workload shapes ----------------------------------------------------------
SWEEP_SIDE = 21
SWEEP_R3 = 1.0 / math.sqrt(2.0)
SWEEP_EXTINCTIONS = tuple(float(e) for e in np.linspace(0.0, 0.5, 8))
DEVICE_SHOTS = 100_000
DEVICE_BETA = 0.1
REFERENCE_EVERY = 4


class Step:
    """Outcome of one timed operation batch: `seconds` of busy time and one
    latency sample per item, by default the busy time shared over the items."""

    __slots__ = ("items", "seconds", "attempted", "failed", "latency_ms")

    def __init__(self, items: int, seconds: float, attempted: int, failed: int,
                 latency_ms: float | None = None):
        self.items, self.seconds = items, seconds
        self.attempted, self.failed = attempted, failed
        self.latency_ms = 1e3 * seconds / items if latency_ms is None else latency_ms


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


class Design:
    """Design a device: maximise the T1 herald probability."""

    def __init__(self, rng: np.random.Generator, workdir: Path):
        del rng, workdir  # the optimiser has no inputs to draw

    def warm_up(self) -> None:
        wchip.optimize.maximize(1e-2, grid_step=0.2)

    def step(self) -> Step:
        start = clock()
        try:
            res = wchip.optimize.maximize(1e-4)
        except Exception:  # a failed operation, not a benchmark crash
            traceback.print_exc()
            return Step(1, clock() - start, 1, 1)
        elapsed = clock() - start
        ok = all(_close(x, ref, 1e-3) for x, ref in zip(res[:3], R_OPT))
        ok = ok and _close(res.value, P_OPT, 1e-9)
        if not ok:
            print(f"design: wrong optimum {tuple(res)}", file=sys.stderr)
        return Step(1, elapsed, 1, 0 if ok else 1)


class Robustness:
    """Map how add-drop extinction degrades the colour-blind W fidelity."""

    def __init__(self, rng: np.random.Generator, workdir: Path):
        del workdir
        self.rng = rng

    def _axis(self) -> tuple[float, ...]:
        return tuple(sorted(float(v) for v in self.rng.uniform(0.05, 0.95, SWEEP_SIDE)))

    def _run(self, r1: tuple[float, ...], r2: tuple[float, ...]) -> Step:
        spec = wchip.optimize.SweepSpec(
            r1=r1, r2=r2, r3=(SWEEP_R3,), ad2_extinction=SWEEP_EXTINCTIONS,
            metric="w_fidelity",
        )
        cells = list(itertools.product(r1, r2, (SWEEP_R3,), SWEEP_EXTINCTIONS))
        start = clock()
        try:
            table = wchip.optimize.sweep(spec)
        except Exception:
            traceback.print_exc()
            return Step(len(cells), clock() - start, len(cells), len(cells))
        elapsed = clock() - start
        if len(table.rows) != len(cells):
            print(f"robustness: {len(table.rows)} rows for {len(cells)} cells", file=sys.stderr)
            return Step(len(cells), elapsed, len(cells), len(cells))
        failed = 0
        for cell, row in zip(cells, table.rows):
            # the colour-blind fidelity of an ideal device with leakage eps
            if tuple(row[:4]) != cell or not _close(row[4], 1.0 / (1.0 + cell[3]), 1e-12):
                failed += 1
        if failed:
            print(f"robustness: {failed} of {len(cells)} rows wrong", file=sys.stderr)
        return Step(len(cells), elapsed, len(cells), failed)

    def warm_up(self) -> None:
        side = tuple(float(v) for v in np.linspace(0.2, 0.8, 5))
        self._run(side, side)

    def step(self) -> Step:
        return self._run(self._axis(), self._axis())


class Characterize:
    """Characterise random devices through the CLI: simulate + tomography."""

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.devices = 0

    def _draw(self) -> dict:
        r = self.rng.uniform(0.05, 0.95, 3)
        phi = self.rng.uniform(0.0, 2.0 * math.pi, 3)
        canonical = {f"r{i + 1}": float(r[i]) for i in range(3)}
        canonical.update({f"phi{i + 1}": float(phi[i]) for i in range(3)})
        canonical["ad2_extinction"] = float(self.rng.uniform(0.0, 0.1))
        return {
            "canonical": canonical,
            "beta": DEVICE_BETA,
            "max_order": 2,
            "seed": int(self.rng.integers(2**31)),
        }

    def warm_up(self) -> None:
        for _ in range(REFERENCE_EVERY):
            self.step()

    def step(self) -> Step:
        device = self._draw()
        configs = {
            "sim": ("simulate", device),
            "tomo": ("tomo", {**device, "shots": DEVICE_SHOTS, "state": "circuit"}),
        }
        if self.devices % REFERENCE_EVERY == REFERENCE_EVERY - 1:
            state = "rho_s" if self.devices // REFERENCE_EVERY % 2 == 0 else "rho_b"
            configs["ref"] = ("tomo", {"state": state, "shots": DEVICE_SHOTS, "seed": device["seed"]})
        # Fresh file names per device, removed after the checks: rewriting one
        # file in place makes ext4 flush it on close, a disk wait a user who
        # writes one output per device never sees.
        stem = self.workdir / str(self.devices)
        self.devices += 1
        paths = {}
        for kind, (_, doc) in configs.items():
            paths[kind] = (f"{stem}-{kind}-config.json", f"{stem}-{kind}-out.json")
            with open(paths[kind][0], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

        codes, times = {}, []
        for kind, (command, _) in configs.items():
            config, out = paths[kind]
            start = clock()
            try:
                codes[kind] = wchip.cli.main([command, "--config", config, "--out", out])
            except Exception:
                traceback.print_exc()
                codes[kind] = None
            times.append(clock() - start)

        failed = 0
        for kind, code in codes.items():
            try:
                ok = code == 0 and self._check(kind, paths[kind][1], device["canonical"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ok = False
                print(f"characterize: {kind} output unreadable: {exc!r}", file=sys.stderr)
            if not ok:
                failed += 1
                print(f"characterize: {kind} failed (exit {code}) on {device}", file=sys.stderr)
        for path in itertools.chain.from_iterable(paths.values()):
            Path(path).unlink(missing_ok=True)
        # a device's latency is its simulate + tomo; the reference tomo
        # counts towards throughput only
        return Step(1, sum(times), len(configs), failed, 1e3 * (times[0] + times[1]))

    @staticmethod
    def _check(kind: str, out: str, canonical: dict) -> bool:
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if kind == "sim":
            r1, r2, r3 = canonical["r1"], canonical["r2"], canonical["r3"]
            t1, t2, t3 = (math.sqrt(1.0 - r * r) for r in (r1, r2, r3))
            prefactor = (r1 * t1**3 * r2 * t2**2 * r3 * t3) ** 2
            dist = doc["coincidence_distribution"]
            return (
                _close(doc["herald"]["T1"]["probability"] / prefactor, SCALING, 1e-6)
                and _close(doc["fidelity_W_T1"], 1.0, 1e-10)
                and set(dist) == {a + b + c for a in "BR" for b in "BR" for c in "BR"}
                and all(
                    _close(v, 1.0 / 3.0 if k in W_PATTERNS else 0.0, 1e-12)
                    for k, v in dist.items()
                )
            )
        # the circuit heralds a W state; rho_s and rho_b only share its counts
        return doc["report"]["W-consistent"] is (kind == "tomo")


WORKLOADS = {"design": Design, "robustness": Robustness, "characterize": Characterize}


def measure(workload, seconds: float, sampler: Sampler | None = None) -> dict:
    """Run whole steps until the next one would likely overrun `seconds`.

    With a running `sampler`, each step also gets the host-speed scale of the
    time it ran in (see hostspeed.py)."""
    steps, samples, spans, attempted, failed = [], [], [], 0, 0
    start = perf_counter()
    while True:
        begin = perf_counter()
        s = workload.step()
        spans.append((begin, perf_counter()))
        steps.append((s.items, s.seconds))
        samples.append(s.latency_ms)
        attempted += s.attempted
        failed += s.failed
        wall = perf_counter() - start
        if wall + wall / len(steps) > seconds:
            break
    out = {"steps": steps, "samples_ms": samples, "attempted": attempted, "failed": failed}
    if sampler is not None:
        out["scales"] = [sampler.scale(begin, end) for begin, end in spans]
        out["kernel_ms"] = [1e3 * s for _, s in sampler.samples]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), args.workdir)
    workload.warm_up()
    # Keep collections from rescanning the import heap on every full pass:
    # a real CLI command runs in a fresh process and never accumulates the
    # thousands of commands' worth of collections this loop would.
    gc.freeze()
    out = {"numpy": np.__version__, "scipy": scipy.__version__}
    if args.trace:
        # untraced and traced halves of the budget; the difference is the
        # tracing overhead
        out["plain"] = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            out["traced"] = measure(workload, args.seconds / 2)
        finally:
            tracer.remove()
        out["layers"] = tracer.layer_metrics(sum(n for n, _ in out["traced"]["steps"]))
        out["self_check"] = tracer.self_check(args.workload)
    else:
        with Sampler() as sampler:
            out["plain"] = measure(workload, args.seconds, sampler)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
