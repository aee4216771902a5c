"""Record the reference values the benchmark's correctness gates compare against.

    PYTHONPATH=src python3 benchmarks/record_reference.py

Runs each workload once at full size in this process and rewrites
``reference.json`` beside this file: the norm tables of ``pipeline-32`` and
``verify-norms-24`` (``verify-norms-24`` gates on them), and the accuracy
fields and iteration counts of every workload, for picard-aniso per forcing
seed.  Re-record only when a change is meant to move these values, and say so.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

PICARD_SEEDS = range(10)


def _run(name: str, work: Path, seed: int = 0) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.setup(work, seed, small=False)
    output = workload.run(inputs)
    failures, accuracy = workload.check(inputs, output, reference=None)
    if failures:
        raise SystemExit(f"{name} seed {seed} fails its gates: {failures}")
    if hasattr(workload, "norm_table"):
        accuracy["norms_csv"] = workload.norm_table(inputs)
    return accuracy


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
                            cwd=HERE).stdout.strip()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        reference = {
            "commit": commit,
            "pipeline-32": _run("pipeline-32", work),
            "verify-norms-24": _run("verify-norms-24", work),
            "picard-aniso": {"by_seed": {str(seed): _run("picard-aniso", work, seed) for seed in PICARD_SEEDS}},
        }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
