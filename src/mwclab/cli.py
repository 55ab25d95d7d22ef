"""Command line harness: pattern generation, quality measures,
recovery guarantees, bound validation, support recovery and the
reproduction tables.

Thread pinning has to happen before numpy is imported anywhere in the
process, so the module top only touches the standard library and the
handlers import the numeric modules lazily.

Exit codes: 0 on success, 2 on a validation problem (bad flags, an
inconsistent parameter combination, or a table2 row that failed after
the table was written), 1 on an internal error.  A run
record (command, effective preset and its seed, outputs, wall time)
goes to stderr as one JSON line; stdout carries nothing but the
artifact when --out is omitted.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict


def _pin_threads() -> None:
    """Single-threaded numeric pools by default so artifacts never
    depend on the host core count; MWCLAB_THREADS raises the limit and
    explicitly exported BLAS variables win."""
    threads = os.environ.get("MWCLAB_THREADS", "1")
    for var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(var, threads)


_pin_threads()

_DIST_TOKENS = (
    "real-normal",
    "real-uniform",
    "complex-normal",
    "complex-uniform",
    "bernoulli-sign",
)


def _dist(token: str):
    from .distributions import NonzeroDistribution

    return NonzeroDistribution(token.replace("-", "_"))


@contextlib.contextmanager
def _output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


# flags whose argparse dest names a preset key; a flag that is given
# wins over the preset's value
_PRESET_KEYS = (
    "family", "m", "n", "M", "family_seed", "k", "delta", "dist",
    "trials", "seed", "k_rows", "r", "attempts", "ceiling",
)


def _effective_preset(args):
    """--preset (table1 and sweep default to theirs; without one, an
    empty preset with no name) with every preset-key flag the user
    gave laid over it.  Values are stored as strings, as the INI file
    gives them; str() of an int or float parses back to the same value."""
    from .presets import Preset, load_preset

    name = getattr(args, "preset", None)
    base = load_preset(name) if name else Preset(None, {})
    given = {
        key: str(value)
        for key in _PRESET_KEYS
        if (value := getattr(args, key, None)) is not None
    }
    return Preset(base.name, {**base.values, **given})


def _family_spec(eff, sources: str):
    """The effective preset's FamilySpec; `sources` names the other
    inputs the command would accept in the error for a missing family."""
    if eff.get_str("family") is None:
        raise ValueError(f"need {sources} or --family")
    if eff.name is None and eff.get_int("m") is None:
        raise ValueError("--family needs --m")
    return eff.family_spec()


def _resolve_matrix(args, eff):
    """Sign matrix from --pattern, else from the effective preset."""
    from .signmatrix import build_sign_matrix, read_pattern_file

    if getattr(args, "pattern", None):
        return read_pattern_file(args.pattern)
    return build_sign_matrix(_family_spec(eff, "--pattern, --preset"))


def _eval_inputs(args, eff):
    """(S, k, delta, value law) for exrip, bounds and verify."""
    from .guarantees import BP_DELTA

    S = _resolve_matrix(args, eff)
    k = eff.get_int("k")
    if k is None:
        raise ValueError("--k is required (no preset supplies it)")
    return (
        S,
        k,
        eff.get_float("delta", BP_DELTA),
        _dist(eff.get_str("dist", "complex_normal")),
    )


def cmd_gen(args, eff) -> None:
    from .signmatrix import write_pattern_file

    S = _resolve_matrix(args, eff)
    with _output(args.out) as fh:
        write_pattern_file(fh, S)


def cmd_measures(args, eff) -> None:
    from .reports import write_json
    from .sensing import quality_measures

    q = quality_measures(_resolve_matrix(args, eff))
    with _output(args.out) as fh:
        write_json(fh, asdict(q))


def cmd_exrip(args, eff) -> None:
    from .guarantees import exrip_from_sign_matrix
    from .reports import write_json

    S, k, delta, dist = _eval_inputs(args, eff)
    res = exrip_from_sign_matrix(S, k, delta=delta, dist=dist)
    with _output(args.out) as fh:
        write_json(fh, asdict(res))


def cmd_bounds(args, eff) -> None:
    from .distributions import moment_constants
    from .guarantees import (
        ExripInputs,
        coherence_guarantees,
        exrip_probability,
        rip_min_m,
        strip_calderbank,
        strip_gan,
        strip_tropp,
    )
    from .reports import write_json
    from .sensing import quality_measures

    S, k, delta, dist = _eval_inputs(args, eff)
    q = quality_measures(S)
    cg = coherence_guarantees(q.mu, S.M, q.spectral_norm_sq, k, args.candes_c)
    exrip = exrip_probability(
        ExripInputs(q.alpha, q.beta, q.gamma, S.m, S.M, k, delta, moment_constants(dist, k))
    )
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
        "tropp": asdict(strip_tropp(q.mu, q.spectral_norm_sq, S.M, k, delta, args.tropp_t)),
        "rip_min_m": rip_min_m(S.M, k, delta, args.target),
        "rip_target_prob": args.target,
        "exrip": asdict(exrip),
    }
    with _output(args.out) as fh:
        write_json(fh, obj)


def cmd_verify(args, eff) -> None:
    from .montecarlo import bound_validity_report
    from .reports import write_json

    S, k, delta, dist = _eval_inputs(args, eff)
    report = bound_validity_report(
        S,
        k,
        delta=delta,
        dist=dist,
        trials=eff.get_int("trials", 10**5),
        seed=eff.get_int("seed", 0),
    )
    with _output(args.out) as fh:
        write_json(fh, asdict(report))


def cmd_recover(args, eff) -> None:
    from .mmv import recovery_experiment
    from .reports import write_json

    spec = _family_spec(eff, "--preset")
    if args.noise_sigma is not None and args.snr is not None:
        raise ValueError("give --noise-sigma or --snr, not both")
    k_rows = eff.get_int("k_rows")
    r = eff.get_int("r")
    if k_rows is None or r is None:
        raise ValueError("--k-rows and --r are required (no preset supplies them)")
    report = recovery_experiment(
        spec,
        k_rows=k_rows,
        r=r,
        trials=eff.get_int("trials", 500),
        dist=_dist(eff.get_str("dist", "complex_normal")),
        noise_sigma=args.noise_sigma if args.noise_sigma is not None else 0.0,
        snr_db=args.snr,
        seed=eff.get_int("seed", 0),
    )
    with _output(args.out) as fh:
        write_json(fh, asdict(report))


def cmd_sweep(args, eff) -> None:
    from .reports import SWEEP_FIELDS, fig2_report, write_csv

    rows = fig2_report(eff)
    with _output(args.out) as fh:
        write_csv(fh, SWEEP_FIELDS, rows)


def cmd_table1(args, eff) -> None:
    from .reports import TABLE1_FIELDS, table1_report, write_csv

    rows = table1_report(eff)
    with _output(args.out) as fh:
        write_csv(fh, TABLE1_FIELDS, rows)


def cmd_table2(args, eff) -> None:
    from .reports import TABLE2_FIELDS, table2_report, write_csv

    rows = table2_report()
    with _output(args.out) as fh:
        write_csv(fh, TABLE2_FIELDS, rows)
    failed = [f"{r['family']} ({r['status']})" for r in rows if r["status"] != "ok"]
    if failed:
        raise ValueError(f"table2 rows failed: {'; '.join(failed)}")


def _add_family_flags(p: argparse.ArgumentParser, with_pattern: bool = True) -> None:
    p.add_argument("--family", choices=("maximal", "gold", "kasami", "hadamard", "random"))
    p.add_argument("--n", type=int, help="shift register length for LFSR families")
    p.add_argument("--M", type=int, help="pattern length (columns)")
    p.add_argument("--m", type=int, help="number of rows (channels)")
    p.add_argument("--family-seed", type=int, help="seed for the random family")
    p.add_argument("--preset", help="named configuration from presets.ini")
    if with_pattern:
        p.add_argument("--pattern", help="read the sign pattern from a file instead")


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="sparsity the guarantee is evaluated at")
    p.add_argument("--delta", type=float, help="isometry tolerance (default sqrt(2)-1)")
    p.add_argument(
        "--dist",
        choices=_DIST_TOKENS,
        help="value law (default the preset's, else complex-normal); every law has exact "
        "moment constants",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mwclab",
        description="Sign-pattern conditioning laboratory for the modulated wideband converter.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a sign pattern file")
    _add_family_flags(p, with_pattern=False)
    p.add_argument("--seed", dest="family_seed", type=int, help="alias for --family-seed here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("measures", help="quality measures of one pattern as JSON")
    _add_family_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("exrip", help="expected-isometry probability bound as JSON")
    _add_family_flags(p)
    _add_eval_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_exrip)

    p = sub.add_parser("bounds", help="all recovery guarantees for one pattern as JSON")
    _add_family_flags(p)
    _add_eval_flags(p)
    p.add_argument("--candes-c", type=float, help="unspecified constant; omitted means not evaluable")
    p.add_argument("--tropp-t", type=float, default=1.0)
    p.add_argument("--target", type=float, default=0.97, help="success probability for the m lower bound")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="Monte Carlo check of the probability bound as JSON")
    _add_family_flags(p)
    _add_eval_flags(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("recover", help="greedy support recovery rate as JSON")
    _add_family_flags(p, with_pattern=False)
    p.add_argument("--k-rows", type=int, help="row sparsity of the unknown")
    p.add_argument("--r", type=int, help="number of measurement columns")
    p.add_argument("--trials", type=int)
    p.add_argument("--dist", choices=_DIST_TOKENS)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--snr", type=float, help="target SNR in dB (overrides --noise-sigma)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("sweep", help="exact vs approximate probability per channel count (CSV)")
    p.add_argument("--preset", default="fig2_sweep", help="default %(default)s")
    p.add_argument("--seed", type=int, help="override the sweep seed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="minimum channels per guarantee (CSV)")
    p.add_argument("--preset", default="table1_mwc", help="default %(default)s")
    p.add_argument("--attempts", type=int, help="random draws per candidate m")
    p.add_argument("--ceiling", type=int, help="largest m the search will try")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="family comparison table (CSV)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table2)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        eff = _effective_preset(args)
        args.func(args, eff)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    record = {
        "command": args.command,
        "preset": eff.name,
        "seed": eff.get_int("seed"),
        "outputs": [args.out if args.out else "-"],
        "wall_time_s": round(time.perf_counter() - start, 3),
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
