"""Benchmark runner: runs a workload's samples, each in its own fresh child process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; NAME is one of WORKLOADS, or ``all`` to run
each in turn.  Children run one at a time and start no threads of their own
(the library's FFTs already use every core), so each child's peak resident
set, read here with ``os.wait4``, belongs to one sample of one workload.
Samples start while the time spent so far plus a typical sample fits in S
seconds; there is always at least one.

``--trace 0`` reports the end-to-end metrics (medians over the samples).
``--trace 1`` alternates untraced and traced samples of the same inputs and
reports the per-layer metrics of the traced ones (medians), the tracing
overhead and the accuracy fields (worst case).  Every metric is printed with
its unit and sample count, then one line with the machine record, and last
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_UNITS, layer_metrics  # noqa: E402

WORKLOADS = ("pipeline-32", "picard-aniso", "verify-norms-24")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.02


def sample_seed(seed: int, index: int) -> int:
    """Forcing seed of sample ``index``: each sample of a run draws fresh inputs."""
    return (seed % 2**32) * 1000 + index


def run_child(name: str, seed: int, work: Path, trace: bool) -> dict:
    """One sample in a fresh process; adds the exit code and peak RSS to its result."""
    work.mkdir(parents=True)
    result_path = work / "result.json"
    log_path = work / "log.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), str(work), str(result_path)]
    if trace:
        cmd.append("--trace")
    with open(log_path, "wb") as log:
        child = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    child.kill()
                    pid, status, usage = os.wait4(child.pid, 0)
                    break
                time.sleep(POLL_S)
        except BaseException:  # interrupted or terminated: leave no child behind
            child.kill()
            os.wait4(child.pid, 0)
            raise
    child.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {"failures": [f"child exited {child.returncode} without a result"]}
    if child.returncode != 0 and not result.get("failures"):
        result.setdefault("failures", []).append(f"child exited {child.returncode}")
    result["ok"] = child.returncode == 0 and not result["failures"]
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if not result["ok"]:
        log = log_path.read_text(errors="replace")[-4000:]
        print(f"sample failed: {name} seed={seed} trace={int(trace)}\n"
              + "\n".join(result["failures"]) + f"\n--- child output ---\n{log}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return result


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[list, list]:
    """Untraced (and, with ``trace``, traced) samples until the time budget is spent."""
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        s = sample_seed(seed, index)
        plain.append(run_child(name, s, work / f"{name}-{index}", trace=False))
        if trace:
            traced.append(run_child(name, s, work / f"{name}-{index}-traced", trace=True))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed * (index + 1) / index > seconds:
            return plain, traced


def _median(samples: list[dict], key: str) -> tuple[float, int]:
    values = [s[key] for s in samples if s["ok"] and key in s]
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)


def summarize(plain: list, traced: list, trace: bool) -> dict[str, tuple[float, int, str]]:
    """Metric name -> (value, samples behind it, unit); NaN where no sample passed."""
    if not trace:
        return {name: _median(plain, name) + (unit,) for name, unit in END_TO_END_UNITS.items()}
    good = [s for s in traced if s["ok"]]
    layers = [layer_metrics(s["spans"], s["fft_floor_s"], s["grid_bytes"]) for s in good]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name.startswith("accuracy."):
            field = name.split(".", 1)[1]
            values = [s["accuracy"][field] for s in good]
            metrics[name] = (max(values) if values else float("nan"), len(values), unit)
        elif name == "trace.overhead_frac":
            run_traced, n_traced = _median(traced, "run_s")
            run_plain, n_plain = _median(plain, "run_s")
            metrics[name] = (run_traced / run_plain - 1.0, min(n_traced, n_plain), unit)
        else:
            values = [layer[name] for layer in layers]
            metrics[name] = (statistics.median(values) if values else float("nan"), len(values), unit)
    return metrics


def _cache_kib(level: int) -> int | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            if int((index / "level").read_text()) == level and (index / "type").read_text().strip() != "Instruction":
                return int((index / "size").read_text().strip().rstrip("K"))
        except (OSError, ValueError):
            continue
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_kib": _cache_kib(2),
        "l3_kib": _cache_kib(3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "periodicflow" / "__init__.py").is_file():
        print(f"error: no periodicflow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    compileall.compile_dir(SRC, quiet=1)  # byte-compile once, as an installed package would be
    work = WORK / str(os.getpid())
    metrics, counts, walls, attempted, failed = {}, {}, {}, 0, 0
    try:
        for name in names:
            plain, traced = measure(name, args.seed, args.seconds, trace, work)
            samples = plain + traced
            bad = sum(not s["ok"] for s in samples)
            attempted += len(samples)
            failed += bad
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, (value, count, unit) in summarize(plain, traced, trace).items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
                counts[prefix + metric] = count
                print(f"{name:<16} {metric:<34} {value:>16.6g} {unit:<6} (of {count} samples)")
            for key in ("run_wall_s", "setup_wall_s"):
                walls[prefix + key] = _median(plain, key)[0]
            print(f"{name:<16} {'fail_frac':<34} {bad / len(samples):>16.6g} {'frac':<6} "
                  f"({bad} of {len(samples)} samples failed)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    missing = [name for name, count in counts.items() if count == 0]
    if missing:
        print(f"error: no sample passed its gates for {', '.join(missing)}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "samples": counts, "wall": walls}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
