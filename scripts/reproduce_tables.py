"""Reproduce every shipped artifact into one output directory.

Produces, under --outdir (default out/):
  table2.csv       family-comparison table (measures + bound probabilities)
  sweep.csv        exact bound vs its large-M approximation over m
  verify_<p>.json  Monte-Carlo validation for each family preset
  recover.json     exact-support recovery experiment
  table1.csv       channel-budget table (slow; skipped by --quick)

Everything routes through the CLI entry points, so the files here are
byte-identical to what `python3 -m mwclab.cli ...` writes for the argv
printed beside each.  --trials and --seed are passed on only when given;
without them each command reads its preset's trials and seed, except
that --quick supplies --trials 10000 when no --trials is given.

Usage:
  python3 scripts/reproduce_tables.py --outdir out --quick
  python3 scripts/reproduce_tables.py --outdir out            # ~15 s
"""

import argparse
import pathlib
import sys
import time

from mwclab import cli
from mwclab.presets import TABLE2_ROW_ORDER


def run(argv: list[str]) -> None:
    t0 = time.perf_counter()
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"mwclab {argv[0]} exited with {code}")
    print(f"  {argv[0]:<8s} {' '.join(argv[1:])}  [{time.perf_counter() - t0:.1f}s]")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out", help="artifact directory (default out/)")
    ap.add_argument("--trials", type=int, help="trials per verify run (default: the preset's)")
    ap.add_argument("--seed", type=int, help="seed for verify/recover/sweep (default: each preset's)")
    ap.add_argument(
        "--quick",
        action="store_true",
        help="skip the channel-budget table; verify at 10k trials unless --trials is given",
    )
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trials = 10_000 if args.quick and args.trials is None else args.trials
    trials_flag = [] if trials is None else ["--trials", str(trials)]
    seed_flag = [] if args.seed is None else ["--seed", str(args.seed)]

    run(["table2", "--out", str(outdir / "table2.csv")])
    run(["sweep", "--preset", "fig2_sweep", *seed_flag, "--out", str(outdir / "sweep.csv")])
    for preset in TABLE2_ROW_ORDER:
        out = str(outdir / f"verify_{preset}.json")
        run(["verify", "--preset", preset, *trials_flag, *seed_flag, "--out", out])
    run(["recover", "--preset", "recover_mwc", *seed_flag, "--out", str(outdir / "recover.json")])
    if args.quick:
        print("skipping table1 (--quick); run without --quick for the full channel budget")
    else:
        run(["table1", "--preset", "table1_mwc", "--out", str(outdir / "table1.csv")])
    print(f"artifacts in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
