"""One benchmark sample in a fresh process: set up a workload, run it, check it.

    python3 benchmarks/child.py WORKLOAD SEED WORK_DIR RESULT_JSON [--trace]

``run.py`` starts one of these per sample, with ``src`` on PYTHONPATH, and
reads the peak resident set of the process when it ends.  The result file
holds ``setup_s`` (from this file's first statement, so it includes
``import periodicflow``), ``run_s``, the failed gates and the accuracy
fields; a traced sample adds its spans, the FFT floor and the grid's array
bytes.  The exit code is 0 when every gate passed.
"""

import os
import time


def stolen_s() -> float:
    """Seconds the hypervisor has kept this machine's CPUs from running, summed over CPUs.

    The ``steal`` column of /proc/stat; 0 where the kernel does not report it.
    An idle CPU accrues no steal, so while the benchmark is the machine's only
    load this is time its threads were runnable but held off the CPU.
    """
    try:
        with open("/proc/stat") as stat:
            steal_ticks = int(stat.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return steal_ticks / os.sysconf("SC_CLK_TCK")


T0 = (time.perf_counter(), stolen_s())

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
FLOOR_REPEATS = 5


def fft_floor_s(grid) -> float:
    """Median time of one raw complex FFT of a 3-component field on ``grid``."""
    import numpy as np
    from scipy import fft

    rng = np.random.default_rng(0)
    data = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
    times = []
    for _ in range(FLOOR_REPEATS):
        start = time.perf_counter()
        fft.fftn(data, axes=(-4, -3, -2, -1), workers=-1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def grid_bytes(grid) -> int:
    """Sum of the nbytes of the arrays a Grid holds."""
    import numpy as np

    total = 0
    for value in vars(grid).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def _elapsed(since: tuple[float, float]) -> tuple[float, float]:
    """(wall seconds, wall seconds less stolen seconds) since a (perf_counter, stolen_s) pair."""
    wall = time.perf_counter() - since[0]
    return wall, wall - (stolen_s() - since[1])


def run_sample(name: str, seed: int, work: Path, trace: bool = False, small: bool = False,
               t0: tuple[float, float] | None = None) -> dict:
    """Set up, run and check one workload; ``small`` shrinks grids and skips reference gates.

    ``setup_s`` and ``run_s`` are wall time less the time the hypervisor stole
    from the machine's CPUs meanwhile; ``setup_wall_s`` and ``run_wall_s`` are
    the plain wall times.
    """
    t0 = (time.perf_counter(), stolen_s()) if t0 is None else t0
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    reference = None if small else json.loads((HERE / "reference.json").read_text())[name]
    tracer = Tracer() if trace else None
    phase = tracer.span if tracer else nullcontext
    result = {"workload": name, "seed": seed}
    if tracer:
        tracer.install()
    try:
        with phase("setup"):
            inputs = workload.setup(work, seed, small)
        result["setup_wall_s"], result["setup_s"] = _elapsed(t0)
        with phase("run"):
            start = (time.perf_counter(), stolen_s())
            output = workload.run(inputs)
            result["run_wall_s"], result["run_s"] = _elapsed(start)
        with phase("check"):
            result["failures"], result["accuracy"] = workload.check(inputs, output, reference)
        if tracer:
            tracer.check_complete()
            result["spans"] = tracer.spans
            result["fft_floor_s"] = fft_floor_s(inputs["grid"])
            result["grid_bytes"] = grid_bytes(inputs["grid"])
    finally:
        if tracer:
            tracer.uninstall()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("work", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    try:
        result = run_sample(args.workload, args.seed, args.work, trace=args.trace, t0=T0)
        import periodicflow

        src = HERE.parent / "src"
        if not Path(periodicflow.__file__).resolve().is_relative_to(src.resolve()):
            result["failures"].append(f"periodicflow was imported from {periodicflow.__file__}, not {src}")
    except Exception:  # the sample fails; run.py reports the traceback
        result = {"workload": args.workload, "seed": args.seed, "failures": [traceback.format_exc()]}
    args.result.write_text(json.dumps(result))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
