"""Sweep the exact-support recovery rate of simultaneous OMP.

Two sweep axes over the matrix pinned by --preset (default recover_mwc,
a 40 x 195 random sign matrix):

  --axis k_rows   rate vs number of jointly active rows (noiseless)
  --axis snr      rate vs per-sample SNR in dB at fixed --k-rows

--k-rows and --r default to the preset's values. --trials, --dist and
--seed default to the preset's, else to recovery_experiment's own
defaults, which is where `mwclab recover` takes them from too. Writes a
CSV (axis value, rate, early-stop fraction) to --out or stdout.

Usage:
  python3 scripts/recovery_curve.py --axis k_rows --values 1,4,8,12,16,20,24
  python3 scripts/recovery_curve.py --axis snr --values 30,20,10,5,0,-5 --k-rows 12
"""

import argparse
import contextlib
import sys

from mwclab.distributions import NonzeroDistribution
from mwclab.mmv import recovery_experiment
from mwclab.presets import effective_preset
from mwclab.reports import write_csv
from mwclab.signmatrix import build_sign_matrix


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="recover_mwc", help="preset naming the sign matrix")
    ap.add_argument("--axis", choices=("k_rows", "snr"), default="k_rows")
    ap.add_argument(
        "--values",
        default="1,2,4,8,12,16,20,24",
        help="comma-separated sweep values (ints for k_rows, floats for snr)",
    )
    ap.add_argument("--k-rows", type=int, help="active rows for the snr axis (default: preset)")
    ap.add_argument("--r", type=int, help="snapshots (default: preset)")
    fallback = "(default: the preset's, else recovery_experiment's)"
    ap.add_argument("--trials", type=int, help=f"trials per point {fallback}")
    ap.add_argument("--dist", help=f"nonzero law {fallback}")
    ap.add_argument("--seed", type=int, help=f"seed {fallback}")
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    eff = effective_preset(args)
    try:
        S = build_sign_matrix(eff.family_spec())
        r = eff.get_int("r")
        settings = eff.given(trials=int, dist=NonzeroDistribution, seed=int)
        k_rows_fixed = eff.get_int("k_rows") if args.axis == "snr" else None
    except ValueError as exc:
        ap.error(str(exc))

    rows = []
    for token in args.values.split(","):
        if args.axis == "k_rows":
            k_rows, snr_db = int(token), None
        else:
            k_rows, snr_db = k_rows_fixed, float(token)
        rep = recovery_experiment(S, k_rows=k_rows, r=r, snr_db=snr_db, **settings)
        rows.append(
            {
                args.axis: k_rows if args.axis == "k_rows" else snr_db,
                "rate": rep.success_rate,
                "early_stop_fraction": rep.early_stops / rep.trials,
            }
        )
        print(f"  {args.axis}={token:>6s}  rate={rep.success_rate:.3f}", file=sys.stderr)

    fields = (args.axis, "rate", "early_stop_fraction")
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.out, "w")) if args.out else sys.stdout
        write_csv(out, fields, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
