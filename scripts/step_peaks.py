"""Per-step peak RSS and wall time of one perfbench pass.

Runs the plan of WORKLOAD at SEED (perfbench/workloads.py) step by step
in this one interpreter, as perfbench/worker.py runs a pass: mwclab.cli
is imported first, so its thread pinning (MWCLAB_THREADS, 1 unless set)
is what runs, then the workload's set-up, then the steps back to back.
After each step it prints the process's ru_maxrss so far and the step's
wall time; the step where ru_maxrss rises last sets the pass's
peak_rss_mb.  Artifacts go to --outdir (default a temporary directory,
removed at the end).

Usage, from the root of a source checkout:
  python3 scripts/step_peaks.py family_scan 0
  python3 scripts/step_peaks.py reproduce 7 --outdir /tmp/pass
"""

import argparse
import os
import pathlib
import resource
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ.setdefault("MWCLAB_THREADS", "1")

import worker  # noqa: E402  imports mwclab.cli before numpy loads
from workloads import WORKLOADS, plan  # noqa: E402


def _label(step: dict) -> str:
    if "cli" in step:
        argv = step["cli"]
        return " ".join([argv[0], argv[argv.index("--out") + 1]])
    return f"table1 {step['table1']['out']}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--outdir", help="artifact directory (default a temporary one)")
    args = ap.parse_args(argv)

    worker._setup(args.workload)
    steps = plan(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        outdir = pathlib.Path(args.outdir or tmp).resolve()
        outdir.mkdir(parents=True, exist_ok=True)
        os.chdir(outdir)
        print(f"{'step':<32s} {'exit':>4s} {'wall_s':>8s} {'maxrss_mb':>10s}")
        print(f"{'set-up':<32s} {'':>4s} {'':>8s} {_maxrss_mb():10.2f}")
        for step in steps:
            t0 = time.perf_counter()
            code = worker.run_step(step)
            wall = time.perf_counter() - t0
            print(f"{_label(step):<32s} {code:>4d} {wall:8.3f} {_maxrss_mb():10.2f}", flush=True)
        os.chdir(ROOT)
    return 0


def _maxrss_mb() -> float:
    """ru_maxrss of this process so far, in MB of 2**20 bytes, as
    perfbench reports peak_rss_mb."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
