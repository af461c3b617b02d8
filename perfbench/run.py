"""wchip benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design|robustness|characterize \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The package is run from ``src`` through ``PYTHONPATH``; nothing is installed.
``setup_s`` is timed here, as fresh interpreters importing ``wchip`` and
``wchip.cli``; the workload runs in a worker process of its own, so its peak
memory is its own.  Child processes get one BLAS/OpenMP thread each.  The
workload's times are scaled to a reference host speed by the calibration
kernel of hostspeed.py; their unscaled wall-clock figures are printed on a
line of their own.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``).  ``--workload all`` runs the three workloads in turn and
names each metric ``<workload>.<metric>``.  The lines before it give the
machine and code fingerprint and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("design", "robustness", "characterize")
SETUP_RUNS = 7
BLOCK_S = 1.0
WORKER_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WCHIP_OUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing wchip and its CLI.

    Not scaled to the reference host speed: an import tracks the core's
    speed about a third as strongly as the calibration kernel does (it is
    file reads, process start-up and unmarshalling), so scaling it made it
    noisier."""
    cmd = [sys.executable, "-c", "import wchip, wchip.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes bytecode caches
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               env: dict[str, str], workdir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def block_rates(steps: list[tuple[int, float]]) -> list[float]:
    """Items per busy second over consecutive steps grouped into blocks of at
    least BLOCK_S; a short tail joins the last block."""
    rates, items, busy = [], 0, 0.0
    for n, seconds in steps:
        items += n
        busy += seconds
        if busy >= BLOCK_S:
            rates.append((items, busy))
            items, busy = 0, 0.0
    if busy:
        if rates:
            n, b = rates.pop()
            items, busy = items + n, busy + b
        rates.append((items, busy))
    return [n / b for n, b in rates]


def busy_ms_per_item(phase: dict) -> float:
    return 1e3 * sum(s for _, s in phase["steps"]) / sum(n for n, _ in phase["steps"])


def scaled(phase: dict) -> tuple[list[tuple[int, float]], list[float]]:
    """Steps and latency samples at the reference host speed."""
    k = phase["scales"]
    steps = [(n, s * f) for (n, s), f in zip(phase["steps"], k)]
    return steps, [ms * f for ms, f in zip(phase["samples_ms"], k)]


def timings(steps: list[tuple[int, float]], samples_ms: list[float]) -> dict:
    return {
        "items_per_s": (statistics.median(block_rates(steps)), "1/s"),
        "item_p50_ms": (percentile(samples_ms, 50), "ms"),
        "item_p90_ms": (percentile(samples_ms, 90), "ms"),
    }


def end_to_end(raw: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        **timings(*scaled(raw["plain"])),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw: dict) -> dict[str, tuple[float, str]]:
    untraced_ms = busy_ms_per_item(raw["plain"])
    traced_ms = busy_ms_per_item(raw["traced"])
    layers = {name: tuple(v) for name, v in raw["layers"].items()}
    layers["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    layers["trace.overhead_frac"] = ((traced_ms - untraced_ms) / untraced_ms, "ratio")
    return layers


def fingerprint(raw: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "none"
    except OSError:
        commit = "none"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "scipy": raw["scipy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, args, env: dict[str, str], workdir: Path):
    """Metrics, operation counts and self-check verdict of one workload."""
    setup_s = None if args.trace else measure_setup(env)
    raw = run_worker(workload, args.seed, args.seconds, args.trace, env, workdir)
    metrics = per_layer(raw) if args.trace else end_to_end(raw, setup_s)
    if not args.trace:
        plain = raw["plain"]
        wall = timings(plain["steps"], plain["samples_ms"])
        print(f"{workload} wall clock, unscaled: "
              + json.dumps({k: v for k, (v, _) in sorted(wall.items())})
              + f"; calibration kernel median {statistics.median(plain['kernel_ms']):.4f} ms "
              f"over {len(plain['kernel_ms'])} samples, reference "
              f"{1e3 * hostspeed.KERNEL_REF_S:.4f} ms")
    phases = [raw["plain"]] + ([raw["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = raw.get("self_check", [])
    for problem in problems:
        print(f"self-check: {problem}")
    plain = raw["plain"]
    print(f"{workload}: {len(plain['samples_ms'])} latency samples, "
          f"{len(block_rates(plain['steps']))} throughput blocks, "
          f"{sum(n for n, _ in plain['steps'])} items untraced; "
          f"attempted {attempted}, failed {failed}")
    return raw, metrics, attempted, failed, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wchip benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "wchip" / "__init__.py").is_file():
        print(f"wchip sources not found under {SRC}", file=sys.stderr)
        return 2

    declared = declared_metrics(args.trace)
    env = child_env()
    workdir = HERE / ".work" / str(os.getpid())
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    try:
        for workload in selected:
            raw, found, a, f, checked = run_one(workload, args, env, workdir)
            if {k: u for k, (_, u) in found.items()} != declared:
                print("metrics do not match BENCHMARK.json", file=sys.stderr)
                return 2
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, (value, unit) in found.items():
                metrics[prefix + name] = {"value": value, "unit": unit}
            attempted += a
            failed += f
            correct = correct and checked and f == 0
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("fingerprint: " + json.dumps(fingerprint(raw), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
