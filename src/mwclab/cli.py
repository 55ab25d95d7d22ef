"""Command line harness: pattern generation, quality measures,
recovery guarantees, bound validation, support recovery and the
reproduction tables.

Thread pinning has to happen before numpy is imported anywhere in the
process, so the module top only touches the standard library and the
handlers import the numeric modules lazily.

Exit codes: 0 on success, 2 on a validation problem (bad flags, an
inconsistent parameter combination, or a table2 row that failed after
the table was written), 1 on an internal error.  A run
record (command, seed, outputs, wall time) goes to stderr as one JSON
line; stdout carries nothing but the artifact when --out is omitted.
"""

import argparse
import contextlib
import json
import os
import sys
import time


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


def _load_preset_if_any(args):
    from .presets import load_preset

    name = getattr(args, "preset", None)
    return load_preset(name) if name else None


def _resolve_matrix(args, preset):
    """Sign matrix from --pattern, else --preset, else family flags."""
    from .signmatrix import FamilySpec, build_sign_matrix, read_pattern_file

    if getattr(args, "pattern", None):
        return read_pattern_file(args.pattern)
    if preset is not None:
        return build_sign_matrix(preset.family_spec(m=getattr(args, "m", None)))
    if not getattr(args, "family", None):
        raise ValueError("need --pattern, --preset or --family")
    if getattr(args, "m", None) is None:
        raise ValueError("--family needs --m")
    seed = getattr(args, "family_seed", None)
    if seed is None and args.command == "gen":
        seed = getattr(args, "seed", None)
    spec = FamilySpec(
        family=args.family,
        m=args.m,
        n=getattr(args, "n", None),
        M=getattr(args, "M", None),
        seed=seed,
    )
    return build_sign_matrix(spec)


def _pick_int(args_value, preset, key, fallback=None):
    if args_value is not None:
        return args_value
    if preset is not None and preset.get_int(key) is not None:
        return preset.get_int(key)
    return fallback


def _pick_float(args_value, preset, key, fallback=None):
    if args_value is not None:
        return args_value
    if preset is not None and preset.get_float(key) is not None:
        return preset.get_float(key)
    return fallback


def _require_k(args, preset) -> int:
    k = _pick_int(getattr(args, "k", None), preset, "k")
    if k is None:
        raise ValueError("--k is required (no preset supplies it)")
    return k


def _delta(args, preset) -> float:
    from .guarantees import BP_DELTA

    return _pick_float(getattr(args, "delta", None), preset, "delta", BP_DELTA)


def cmd_gen(args) -> None:
    from .signmatrix import write_pattern_file

    preset = _load_preset_if_any(args)
    S = _resolve_matrix(args, preset)
    with _output(args.out) as fh:
        write_pattern_file(fh, S)


def cmd_measures(args) -> None:
    from .reports import write_json
    from .sensing import quality_measures

    preset = _load_preset_if_any(args)
    S = _resolve_matrix(args, preset)
    q = quality_measures(S)
    with _output(args.out) as fh:
        write_json(fh, q.as_dict())


def cmd_exrip(args) -> None:
    from .guarantees import exrip_from_sign_matrix
    from .reports import write_json

    preset = _load_preset_if_any(args)
    S = _resolve_matrix(args, preset)
    res = exrip_from_sign_matrix(
        S,
        _require_k(args, preset),
        delta=_delta(args, preset),
        dist=_dist(args.dist),
        constant_samples=_pick_int(args.samples, preset, "constant_samples", 10**6),
    )
    with _output(args.out) as fh:
        write_json(fh, res.as_dict())


def cmd_bounds(args) -> None:
    from .guarantees import (
        coherence_guarantees,
        exrip_from_sign_matrix,
        rip_min_m,
        strip_calderbank,
        strip_gan,
        strip_tropp,
    )
    from .reports import write_json
    from .sensing import quality_measures

    preset = _load_preset_if_any(args)
    S = _resolve_matrix(args, preset)
    k = _require_k(args, preset)
    delta = _delta(args, preset)
    q = quality_measures(S)
    cg = coherence_guarantees(q.mu, S.M, q.spectral_norm_sq, k, args.candes_c)
    exrip = exrip_from_sign_matrix(
        S,
        k,
        delta=delta,
        dist=_dist(args.dist),
        constant_samples=_pick_int(args.samples, preset, "constant_samples", 10**6),
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
        "calderbank": strip_calderbank(S.m, S.M, k, delta).as_dict(),
        "gan": strip_gan(q.mu, S.M, k, delta).as_dict(),
        "tropp": strip_tropp(q.mu, q.spectral_norm_sq, S.M, k, delta, args.tropp_t).as_dict(),
        "rip_min_m": rip_min_m(S.M, k, delta, args.target),
        "rip_target_prob": args.target,
        "exrip": exrip.as_dict(),
    }
    with _output(args.out) as fh:
        write_json(fh, obj)


def cmd_verify(args) -> None:
    from .montecarlo import bound_validity_report
    from .reports import write_json

    preset = _load_preset_if_any(args)
    S = _resolve_matrix(args, preset)
    report = bound_validity_report(
        S,
        _require_k(args, preset),
        delta=_delta(args, preset),
        dist=_dist(args.dist),
        trials=_pick_int(args.trials, preset, "trials", 10**5),
        seed=_pick_int(args.seed, preset, "seed", 0),
        constant_samples=_pick_int(args.samples, preset, "constant_samples", 10**6),
    )
    with _output(args.out) as fh:
        write_json(fh, report.as_dict())


def cmd_recover(args) -> None:
    from .mmv import recovery_experiment
    from .reports import write_json
    from .signmatrix import FamilySpec

    preset = _load_preset_if_any(args)
    if preset is not None:
        spec = preset.family_spec(m=args.m)
    else:
        if not args.family:
            raise ValueError("need --preset or --family")
        if args.m is None:
            raise ValueError("--family needs --m")
        spec = FamilySpec(
            family=args.family, m=args.m, n=args.n, M=args.M, seed=args.family_seed
        )
    if args.noise_sigma is not None and args.snr is not None:
        raise ValueError("give --noise-sigma or --snr, not both")
    k_rows = _pick_int(args.k_rows, preset, "k_rows")
    r = _pick_int(args.r, preset, "r")
    if k_rows is None or r is None:
        raise ValueError("--k-rows and --r are required (no preset supplies them)")
    report = recovery_experiment(
        spec,
        k_rows=k_rows,
        r=r,
        trials=_pick_int(args.trials, preset, "trials", 500),
        dist=_dist(args.dist if args.dist else _pick_str(preset, "dist", "complex-normal")),
        noise_sigma=args.noise_sigma if args.noise_sigma is not None else 0.0,
        snr_db=args.snr,
        seed=_pick_int(args.seed, preset, "seed", 0),
    )
    with _output(args.out) as fh:
        write_json(fh, report.as_dict())


def _pick_str(preset, key, fallback):
    if preset is not None and preset.get_str(key):
        return preset.get_str(key).replace("_", "-")
    return fallback


def cmd_sweep(args) -> None:
    from .presets import Preset, load_preset
    from .reports import SWEEP_FIELDS, fig2_report, write_csv

    preset = load_preset(args.preset or "fig2_sweep")
    if args.seed is not None:
        preset = Preset(preset.name, {**preset.values, "seed": str(args.seed)})
    rows = fig2_report(preset)
    with _output(args.out) as fh:
        write_csv(fh, SWEEP_FIELDS, rows)


def cmd_table1(args) -> None:
    from .presets import load_preset
    from .reports import TABLE1_FIELDS, table1_report, write_csv

    preset = load_preset(args.preset or "table1_mwc")
    rows = table1_report(preset, attempts=args.attempts, ceiling=args.ceiling)
    with _output(args.out) as fh:
        write_csv(fh, TABLE1_FIELDS, rows)


def cmd_table2(args) -> None:
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
    p.add_argument("--dist", choices=_DIST_TOKENS, default="complex-normal")
    p.add_argument(
        "--samples",
        type=int,
        help="Monte Carlo sample count for the moment constants of complex-uniform and "
        "real-uniform values (the other laws use closed forms)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mwclab",
        description="Sign-pattern conditioning laboratory for the modulated wideband converter.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a sign pattern file")
    _add_family_flags(p, with_pattern=False)
    p.add_argument("--seed", type=int, help="alias for --family-seed here")
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
    p.add_argument("--preset", help="default fig2_sweep")
    p.add_argument("--seed", type=int, help="override the sweep seed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="minimum channels per guarantee (CSV)")
    p.add_argument("--preset", help="default table1_mwc")
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
        args.func(args)
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
        "preset": getattr(args, "preset", None),
        "seed": getattr(args, "seed", None),
        "outputs": [args.out if args.out else "-"],
        "wall_time_s": round(time.perf_counter() - start, 3),
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
