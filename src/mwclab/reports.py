"""Artifact builders: the family comparison table, the channel-budget
table and the exact-versus-approximate probability sweep.

Each builder returns plain rows (lists of dicts) so tests can inspect
values before formatting; write_csv/write_json render them with fixed
float formatting and newline conventions so reruns are byte-identical,
to a path or to an open text handle (signmatrix._text_file).
"""

import csv
import json

from .distributions import NonzeroDistribution, moment_constants
from .guarantees import (
    SEARCH_BOUNDS,
    ExripInputs,
    _candidate_pool,
    exrip_approx,
    exrip_from_sign_matrix,
    exrip_probability,
    min_channels_search,
    rip_min_m,
)
from .presets import Preset, TABLE2_ROW_ORDER, load_preset
from .sensing import correlation_measures
from .signmatrix import FamilySpec, _text_file, build_sign_matrix

TABLE2_FIELDS = (
    "family",
    "m",
    "M",
    "k",
    "alpha100",
    "beta100",
    "gamma100",
    "p_complex_normal",
    "p_complex_uniform",
    "status",
)
TABLE1_FIELDS = ("bound", "k", "target", "m_required", "status", "note")
SWEEP_FIELDS = ("m", "p_exact", "p_approx")


def table2_report() -> list[dict]:
    """One row per sign-pattern family preset, in fixed order.

    A row whose preset or parameters fail validation (ValueError or
    KeyError) is reported in its status column and does not stop the
    remaining rows; any other exception propagates.
    """
    rows = []
    for name in TABLE2_ROW_ORDER:
        label = name.removeprefix("table2_")
        try:
            preset = load_preset(name)
            spec = preset.family_spec()
            S = build_sign_matrix(spec)
            alpha, beta, gamma = correlation_measures(S)
            k = preset.get_int("k")
            delta = preset.get_float("delta")
            probs = {}
            for kind in ("complex_normal", "complex_uniform"):
                const = moment_constants(NonzeroDistribution(kind), k)
                probs[kind] = exrip_probability(
                    ExripInputs(alpha, beta, gamma, S.m, S.M, delta, const)
                ).probability
            rows.append(
                {
                    "family": label,
                    "m": S.m,
                    "M": S.M,
                    "k": k,
                    "alpha100": 100.0 * alpha,
                    "beta100": 100.0 * beta,
                    "gamma100": 100.0 * gamma,
                    "p_complex_normal": probs["complex_normal"],
                    "p_complex_uniform": probs["complex_uniform"],
                    "status": "ok",
                }
            )
        except (ValueError, KeyError) as exc:  # keep the table going, flag the row
            rows.append(
                {**dict.fromkeys(TABLE2_FIELDS), "family": label, "status": f"error: {exc}"}
            )
    return rows


def fig2_report(preset: Preset) -> list[dict]:
    """Exact bound probability against its 1 - 1/(m delta^2) shortcut
    for one random instance per channel count."""
    M = preset.get_int("M")
    k = preset.get_int("k")
    delta = preset.get_float("delta")
    seed = preset.get_int("seed", 0)
    const = moment_constants(preset.get_dist(), k)
    start = preset.get_int("m_start")
    stop = preset.get_int("m_stop")
    step = preset.get_int("m_step")
    rows = []
    for m in range(start, stop + 1, step):
        S = build_sign_matrix(FamilySpec("random", m=m, M=M, seed=(seed, m)))
        exact = exrip_from_sign_matrix(S, delta, const).probability
        approx = exrip_approx(m, delta).probability
        rows.append({"m": m, "p_exact": exact, "p_approx": approx})
    return rows


def table1_report(preset: Preset) -> list[dict]:
    """Minimum channel count per recovery guarantee at one (M, k).

    RIP and the expected-RIP rows use the doubled sparsity 2k
    (recovering a k-sparse support through basis pursuit needs the
    matrix to act on 2k-sparse differences); coherence rows state their
    guarantee directly at k.  Each row's target probability is the
    one the search reports.  The dist, seed, attempts and ceiling keys
    the preset lacks take min_channels_search's defaults.  The nine
    searches share one candidate pool, released when the table is done.
    """
    M = preset.get_int("M")
    k = preset.get_int("k")
    delta = preset.get_float("delta")
    search = preset.given(dist=NonzeroDistribution, seed=int, attempts=int, ceiling=int)
    rows = []
    try:
        for bound in SEARCH_BOUNDS:
            K_used = 2 * k if bound in ("rip", "exrip", "exrip_approx") else k
            res = min_channels_search(bound, M, K_used, delta=delta, **search)
            target = res.params["target_prob"]
            note = res.detail
            if bound == "rip":
                note += f"; at k={k} the same bound needs m={rip_min_m(M, k, delta, target)}"
            if res.witness_seed is not None:
                note += f"; witness: the first {res.m} rows of draw {res.witness_seed}"
            rows.append(
                {
                    "bound": bound,
                    "k": K_used,
                    "target": target,
                    "m_required": res.m,
                    "status": res.status,
                    "note": note,
                }
            )
    finally:
        _candidate_pool.cache_clear()
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(out, fieldnames, rows) -> None:
    """Rows are dicts; floats render at 6 decimals, None as empty."""
    with _text_file(out, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(fieldnames)
        for row in rows:
            w.writerow([_format_cell(row[f]) for f in fieldnames])


def write_json(out, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with _text_file(out, "w") as fh:
        fh.write(text)


__all__ = [
    "SWEEP_FIELDS",
    "TABLE1_FIELDS",
    "TABLE2_FIELDS",
    "fig2_report",
    "table1_report",
    "table2_report",
    "write_csv",
    "write_json",
]
