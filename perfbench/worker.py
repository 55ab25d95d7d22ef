"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --plan PLAN.json --outdir DIR [--spans FILE]

The worker imports ``mwclab.cli`` before anything imports numpy, so the
package's own thread pinning (from ``MWCLAB_THREADS``) is what runs.
It then imports the workload's modules and loads its presets (the
set-up that ``setup_s`` times, from just before ``mwclab.cli`` is
imported; ``--setup-only`` prints it and stops), runs the plan's steps
back to back and
prints one JSON line: wall time from the first call into mwclab to the
last artifact written, CPU time, peak RSS, each step's exit code, and
the versions and thread settings in effect.  With ``--spans`` every
public mwclab function is traced, spans go to FILE and the per-layer
metrics come back in the JSON line.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

SETUP_T0 = time.perf_counter()
import mwclab.cli as cli  # first: pins BLAS threads before numpy loads  # noqa: E402

from workloads import SETUP, THREAD_VARS


def _setup(workload: str) -> None:
    for name in SETUP[workload]["modules"]:
        importlib.import_module(f"mwclab.{name}")
    from mwclab import presets

    for name in SETUP[workload]["presets"]:
        presets.load_preset(name)


def run_step(step: dict) -> int:
    """Exit code of one step; library steps return 0 or raise."""
    if "cli" in step:
        return cli.main(step["cli"])
    from mwclab import presets, reports

    spec = step["table1"]
    base = presets.load_preset(spec["preset"])
    values = {**base.values, **{k: str(v) for k, v in spec["overrides"].items()}}
    rows = reports.table1_report(presets.Preset(base.name, values))
    reports.write_csv(spec["out"], reports.TABLE1_FIELDS, rows)
    return 0


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "mwclab": cli.__file__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--outdir")
    ap.add_argument("--spans", help="trace every mwclab function and write spans here")
    args = ap.parse_args()

    _setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - SETUP_T0}))
        return 0
    with open(args.plan, encoding="utf-8") as fh:
        steps = json.load(fh)
    tracer = None
    step_fn = run_step
    if args.spans:
        from tracer import Tracer

        passdir = os.path.abspath(args.outdir)
        tracer = Tracer(run_id="/".join(passdir.split(os.sep)[-2:]))
        tracer.install()
        step_fn = tracer.wrap("bench.step", run_step)
    os.chdir(args.outdir)

    results = []
    cpu0 = os.times()
    t0 = time.perf_counter()
    for step in steps:
        start = time.perf_counter()
        try:
            outcome = {"exit": step_fn(step)}
        except Exception as exc:  # a failing step is a failed check, not a crash
            outcome = {"exit": None, "error": traceback.format_exception_only(exc)[-1]}
        outcome["wall_s"] = time.perf_counter() - start
        results.append(outcome)
    wall = time.perf_counter() - t0
    cpu1 = os.times()

    out = {
        "wall_s": wall,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "steps": results,
        "versions": _versions(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.write(args.spans)
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = len(tracer.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
