"""mwclab benchmark: batch workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload channel_budget --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every pass runs in a fresh interpreter (one caller, closed
loop, each command starting when the previous one ends) with
``MWCLAB_THREADS=1`` and no other thread variable set by the harness.

With ``--trace 0`` the run times ``setup_s`` (median of fresh
interpreters doing the workload's imports and preset loads, half of
them before the passes and half after), runs as many whole passes as
fill ``--seconds`` to the nearest pass (at least one) and reports the
median ``wall_s`` and ``peak_rss_mb``.
With ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics of the traced one.  Every artifact is
checked (see checks.py); the last stdout line is the result JSON, and
a run record with versions, thread settings and raw samples is written
next to the artifacts under ``perfbench/out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import THREAD_VARS, WORKLOADS, plan

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 30
DEADLINE_S = 170.0  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from the files; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, root: Path, workload: str, steps: list[dict], outdir: Path):
        self.workload = workload
        self.outdir = outdir
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["MWCLAB_THREADS"] = "1"
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.src = src
        self.plan_file = outdir / "plan.json"
        self.plan_file.write_text(json.dumps(steps, indent=1))

    def _worker(self, *args: str) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError("out of time before the next worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), "--workload", self.workload, *args],
                env=self.env, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(args)} ran past the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return proc

    def setup_samples(self, count: int) -> list[float]:
        return [
            json.loads(self._worker("--setup-only").stdout)["setup_s"] for _ in range(count)
        ]

    def run_pass(self, index: int, traced: bool) -> tuple[dict, Path]:
        passdir = self.outdir / f"pass{index}"
        passdir.mkdir()
        args = ["--plan", str(self.plan_file), "--outdir", str(passdir)]
        if traced:
            args += ["--spans", str(self.outdir / f"pass{index}.spans.jsonl")]
        result = json.loads(self._worker(*args).stdout.strip().splitlines()[-1])
        if not result["versions"]["mwclab"].startswith(self.src):
            raise BenchError(f"mwclab imported from {result['versions']['mwclab']}, not {self.src}")
        return result, passdir


def check_pass(workload: str, seed: int, steps: list, result: dict, passdir: Path, ref: dict):
    """(attempted, failed labels) over step exit codes and artifacts."""
    attempted, failed = 0, []
    for step, outcome, name in zip(steps, result["steps"], checks.artifacts(steps)):
        attempted += 1
        if outcome["exit"] != 0:
            failed.append(f"step {step} exited {outcome['exit']} {outcome.get('error', '')}")
        c = checks.check_artifact(workload, name, passdir / name, seed, ref)
        attempted += len(c.results)
        failed += c.failed
    return attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mwclab" / "cli.py").is_file():
        print(f"error: no mwclab source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    try:
        steps = plan(args.workload, args.seed)
        runner = Runner(root, args.workload, steps, outdir)
        # half the set-up samples before the passes and half after, so
        # their median spans the run rather than one moment of it
        setup = [] if args.trace else runner.setup_samples(SETUP_REPEATS // 2)
        passes = []
        t0 = time.monotonic()
        if args.trace:
            passes.append(runner.run_pass(0, traced=False))
            passes.append(runner.run_pass(1, traced=True))
        else:
            # whole passes, as many as fit --seconds to the nearest pass
            while True:
                passes.append(runner.run_pass(len(passes), traced=False))
                per_pass = (time.monotonic() - t0) / len(passes)
                if time.monotonic() - t0 + per_pass / 2 > args.seconds:
                    break
            setup += runner.setup_samples(SETUP_REPEATS - len(setup))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reference = checks.load_reference()

    attempted, failed = 0, []
    for result, passdir in passes:
        a, f = check_pass(args.workload, args.seed, steps, result, passdir, reference)
        attempted += a
        failed += f
    selftest = checks.self_test(
        args.workload, passes[0][1], args.seed, reference, outdir / "selftest"
    )
    blind = [s for s in selftest if s["failed_checks"] == 0]
    if blind:
        print(f"error: checks missed perturbed artifacts: {blind}", file=sys.stderr)
        return 3

    results = [r for r, _ in passes]
    if args.trace:
        untraced, traced = results
        values = dict(traced["layers"])
        values["process.cpu_s"] = traced["cpu_s"]
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = {m["name"]: m["unit"] for m in _benchmark(root)["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in _benchmark(root)["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {
            v: os.environ[v] for v in THREAD_VARS if v in os.environ
        },
        "worker_threads": results[0]["threads"],
        "versions": results[0]["versions"],
        "samples": {
            "setup_s": setup,
            "wall_s": [r["wall_s"] for r in results],
            "cpu_s": [r["cpu_s"] for r in results],
            "maxrss_kb": [r["maxrss_kb"] for r in results],
            "steps": [r["steps"] for r in results],
        },
        "checks": {"attempted": attempted, "failed": failed,
                   "fail_frac": len(failed) / attempted},
        "selftest": selftest,
        "metrics": metrics,
    }
    (outdir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for label in failed[:20]:
        print(f"check failed: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def _benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
