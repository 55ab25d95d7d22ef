"""Command line harness: pattern generation, quality measures,
recovery guarantees, bound validation, support recovery and the
reproduction tables.

The commands that read one sign matrix (measures, exrip, bounds,
verify, recover) take it from --pattern, else from --preset with the
family flags laid over it; gen builds one the same way.  Flags that
name a preset key win over the preset's value
(presets.effective_preset).  A key that neither supplies takes the
default of the library call that reads it, which is the one place that
default is written: a command passes on only the keys it was given
(Preset.given), so verify's trials and seed are bound_validity_report's,
recover's trials and seed are recovery_experiment's, table1's seed,
attempts and ceiling are min_channels_search's, sweep's seed is
fig2_report's, and every value law is NonzeroDistribution's default
kind.  A key without a default is a usage error, naming its flag where
the command has one.  Policy the library fixes has no flag: bounds
evaluates rip_min_m and strip_tropp at table1's target and t
(guarantees._search_policy).  Each command returns the writer of its
artifact, and main writes it to --out, or to stdout without one.

Exit codes: 0 on success, 2 on a validation problem (bad flags, a
missing or inconsistent parameter, or a table2 row that failed after
the table was written), 1 on an internal error.  A run record (command,
effective preset and its seed, outputs, wall time) goes to stderr as
one JSON line; stdout carries nothing but the artifact.
"""

import argparse
import contextlib
import json
import sys
import time
from dataclasses import asdict

from .distributions import KINDS, NonzeroDistribution, moment_constants
from .guarantees import (
    BP_DELTA,
    ExripInputs,
    _search_policy,
    coherence_guarantees,
    exrip_from_sign_matrix,
    exrip_probability,
    rip_min_m,
    strip_calderbank,
    strip_gan,
    strip_tropp,
)
from .presets import effective_preset
from .reports import (
    SWEEP_FIELDS,
    TABLE1_FIELDS,
    TABLE2_FIELDS,
    fig2_report,
    table1_report,
    table2_report,
    write_csv,
    write_json,
)
from .sensing import quality_measures
from .signmatrix import FAMILIES, build_sign_matrix, read_pattern_file, write_pattern_file


@contextlib.contextmanager
def _output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _resolve_matrix(args, eff):
    """Sign matrix from --pattern, else from the effective preset."""
    if getattr(args, "pattern", None):
        return read_pattern_file(args.pattern)
    if "family" not in eff.values:
        raise ValueError("need --pattern, --preset or --family")
    return build_sign_matrix(eff.family_spec())


def _eval_inputs(args, eff):
    """(S, k, delta, moment constants) for exrip and bounds."""
    S, k = _resolve_matrix(args, eff), eff.get_int("k")
    return S, k, eff.get_float("delta", BP_DELTA), moment_constants(eff.get_dist(), k)


def cmd_gen(args, eff):
    S = _resolve_matrix(args, eff)
    return lambda fh: write_pattern_file(fh, S)


def cmd_measures(args, eff):
    q = quality_measures(_resolve_matrix(args, eff))
    return lambda fh: write_json(fh, asdict(q))


def cmd_exrip(args, eff):
    S, k, delta, constants = _eval_inputs(args, eff)
    res = exrip_from_sign_matrix(S, delta, constants)
    return lambda fh: write_json(fh, asdict(res))


def cmd_bounds(args, eff):
    S, k, delta, constants = _eval_inputs(args, eff)
    q = quality_measures(S)
    cg = coherence_guarantees(q.mu, S.M, q.spectral_norm_sq, k, args.candes_c)
    exrip = exrip_probability(ExripInputs(q.alpha, q.beta, q.gamma, S.m, S.M, delta, constants))
    # the target and t of table1's search (min_channels_search)
    target, t = _search_policy("rip", k)
    obj = {
        "m": S.m,
        "M": S.M,
        "k": k,
        "delta": delta,
        "mu": q.mu,
        "zero_columns": q.zero_columns,
        "spectral_norm_sq": q.spectral_norm_sq,
        "donoho_elad_max_k": cg.donoho_elad_max_k,
        "tropp_max_k": cg.tropp_max_k,
        "candes_plan": {
            "evaluable": cg.candes_plan_evaluable,
            "mu_ok": cg.candes_plan_mu_ok,
            "k_ok": cg.candes_plan_k_ok,
        },
        "calderbank": asdict(strip_calderbank(S.m, S.M, k, delta)),
        "gan": asdict(strip_gan(q.mu, S.M, k, delta)),
        "tropp": asdict(strip_tropp(q.mu, q.spectral_norm_sq, S.M, k, delta, t)),
        "rip_min_m": rip_min_m(S.M, k, delta, target),
        "rip_target_prob": target,
        "exrip": asdict(exrip),
    }
    return lambda fh: write_json(fh, obj)


def cmd_verify(args, eff):
    # imported on use, so the commands without Monte Carlo do not load it
    from .montecarlo import bound_validity_report

    report = bound_validity_report(
        _resolve_matrix(args, eff),
        eff.get_int("k"),
        **eff.given(delta=float, dist=NonzeroDistribution, trials=int, seed=int),
    )
    return lambda fh: write_json(fh, asdict(report))


def cmd_recover(args, eff):
    from .mmv import recovery_experiment

    report = recovery_experiment(
        _resolve_matrix(args, eff),
        k_rows=eff.get_int("k_rows"),
        r=eff.get_int("r"),
        snr_db=args.snr,
        **eff.given(trials=int, dist=NonzeroDistribution, seed=int),
    )
    return lambda fh: write_json(fh, asdict(report))


def cmd_sweep(args, eff):
    rows = fig2_report(eff)
    return lambda fh: write_csv(fh, SWEEP_FIELDS, rows)


def cmd_table1(args, eff):
    rows = table1_report(eff)
    return lambda fh: write_csv(fh, TABLE1_FIELDS, rows)


def cmd_table2(args, eff):
    rows = table2_report()
    failed = [f"{r['family']} ({r['status']})" for r in rows if r["status"] != "ok"]

    def write(fh):
        # every row is written before a failed one is reported
        write_csv(fh, TABLE2_FIELDS, rows)
        if failed:
            raise ValueError(f"table2 rows failed: {'; '.join(failed)}")

    return write


def _add_family_flags(p: argparse.ArgumentParser, with_pattern: bool = True) -> None:
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int, help="shift register length for LFSR families")
    p.add_argument("--M", type=int, help="pattern length (columns)")
    p.add_argument("--m", type=int, help="number of rows (channels)")
    p.add_argument("--family-seed", type=int, help="seed for the random family")
    p.add_argument("--preset", help="named configuration from presets.ini")
    if with_pattern:
        p.add_argument("--pattern", help="read the sign pattern from a file instead")


def _add_dist_flag(p: argparse.ArgumentParser) -> None:
    default = NonzeroDistribution().kind.replace("_", "-")
    p.add_argument(
        "--dist",
        choices=[kind.replace("_", "-") for kind in KINDS],
        help=f"value law (default the preset's, else NonzeroDistribution's {default}); "
        "every law has exact moment constants",
    )


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="sparsity the guarantee is evaluated at")
    p.add_argument("--delta", type=float, help="isometry tolerance (default sqrt(2)-1)")
    _add_dist_flag(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mwclab",
        description="Sign-pattern conditioning laboratory for the modulated wideband converter.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="artifact path (default stdout)")
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "generate a sign pattern file")
    _add_family_flags(p, with_pattern=False)
    p.add_argument("--seed", dest="family_seed", type=int, help="alias for --family-seed here")

    p = command("measures", cmd_measures, "quality measures of one pattern as JSON")
    _add_family_flags(p)

    p = command("exrip", cmd_exrip, "expected-isometry probability bound as JSON")
    _add_family_flags(p)
    _add_eval_flags(p)

    p = command("bounds", cmd_bounds, "all recovery guarantees for one pattern as JSON")
    _add_family_flags(p)
    _add_eval_flags(p)
    p.add_argument("--candes-c", type=float, help="unspecified constant; omitted means not evaluable")

    p = command("verify", cmd_verify, "Monte Carlo check of the probability bound as JSON")
    _add_family_flags(p)
    _add_eval_flags(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = command("recover", cmd_recover, "greedy support recovery rate as JSON")
    _add_family_flags(p)
    p.add_argument("--k-rows", type=int, help="row sparsity of the unknown")
    p.add_argument("--r", type=int, help="number of measurement columns")
    p.add_argument("--trials", type=int)
    _add_dist_flag(p)
    p.add_argument("--snr", type=float, help="target SNR in dB (default noiseless)")
    p.add_argument("--seed", type=int)

    p = command("sweep", cmd_sweep, "exact vs approximate probability per channel count (CSV)")
    p.add_argument("--preset", default="fig2_sweep", help="default %(default)s")
    p.add_argument("--seed", type=int, help="override the sweep seed")

    p = command("table1", cmd_table1, "minimum channels per guarantee (CSV)")
    p.add_argument("--preset", default="table1_mwc", help="default %(default)s")
    p.add_argument(
        "--attempts", type=int, help="random sign streams; a probe m tries their first m rows"
    )
    p.add_argument("--ceiling", type=int, help="largest m the search will try")

    command("table2", cmd_table2, "family comparison table (CSV)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        eff = effective_preset(args)
        write = args.func(args, eff)
        with _output(args.out) as fh:
            write(fh)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    record = {
        "command": args.command,
        "preset": eff.name,
        "seed": eff.get_int("seed", None),
        "outputs": [args.out if args.out else "-"],
        "wall_time_s": round(time.perf_counter() - start, 3),
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
