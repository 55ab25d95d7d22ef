"""Output checks behind ``attempted`` and ``failed``.

Every artifact a pass writes is checked two ways:

* against ``reference.json``, recorded at the seed commit with workload
  seed 0.  Seed-independent artifacts (the family table, the structured
  patterns, the deterministic channel-budget rows, the seed-free parts
  of ``verify``) are compared on every seed, the rest on seed 0 only.
  Tolerances admit only the drifts the ROADMAP names: last-digit
  changes in the float measures, exact moment constants (about 1e-4 on
  probabilities) and a new sign-draw stream for the channel search,
  which may move the drawn rows inside fixed windows.
* against invariants that hold for any seed: ``verify`` bound verdict
  true and E[Z^2] within 5 standard errors of 1, recovery rate at least
  0.90, sweep gap below 0.5 / m, alpha and beta inside their theorem
  bounds, well-formed pattern files.

Only the standard library is used, so checking never imports mwclab.
"""

import csv
import hashlib
import json
from pathlib import Path

from workloads import FAMILY_PATTERNS, RANDOM_PATTERN

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0

DELTA = 0.41421356237309515  # every preset's delta
ULP_REL = 1e-12  # last-digit drift of alpha, beta, gamma, mu
SPECTRAL_REL = 1e-9  # power iteration stops at a relative step of 1e-10
MC_REL = 1e-9  # summation order of the Monte-Carlo moments
CSV_ABS = 1.5e-6  # one unit in the sixth decimal of a CSV cell
PROB_ABS = 2e-4  # exact moment constants move probabilities by ~1e-4
MOMENT_ABS = 2e-4  # and B_K, C_K by about as much
GAP_MAX = 0.01  # criterion 05: |p_exact - p_approx| over the seed-0 sweep
# The gap shrinks like 1/m and is not below 0.01 for every seed: over
# 3000 random instances at each m in 20..40, m * gap had a 99.9th
# percentile of 0.30 and a maximum of 0.35 (m = 20 passed 0.01 on 117 of
# them), so other seeds are held to 0.5 / m.
GAP_M = 0.5
Z2_SIGMAS = 5  # verify's own E[Z^2] = 1 verdict is a 3-sigma test
RECOVER_MIN = 0.90  # criterion 10
SWEEP_M = list(range(20, 101, 5))  # fig2_sweep grid

# Channel-search rows that depend on the random draws.  The search
# doubles m and then bisects on a predicate that is random in m, so one
# unlucky pair of draws at a doubling probe lifts the result a whole
# bracket (seed 46 gave tropp_coherence 20481).  Each window is the
# doubling bracket seeds 0-23 landed in, widened by one bracket each
# way; donoho_elad keeps criterion 09's lower edge of 3172 instead.
DRAWN_WINDOWS = {
    "donoho_elad": (3172, 16384),
    "tropp_coherence": (4097, 32768),
    "exrip": (17, 128),
}


class Checks:
    """Named pass/fail results of one artifact."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def ok(self, label: str, cond: bool) -> None:
        self.results.append((label, bool(cond)))

    def equal(self, label, got, want) -> None:
        self.ok(f"{label}: {got!r} == {want!r}", got == want)

    def close(self, label, got, want, abs_tol=0.0, rel_tol=0.0) -> None:
        ok = abs(got - want) <= max(abs_tol, rel_tol * abs(want))
        self.ok(f"{label}: {got!r} vs {want!r}", ok)

    def within(self, label, got, lo, hi) -> None:
        self.ok(f"{label}: {got!r} in [{lo!r}, {hi!r}]", lo <= got <= hi)

    @property
    def failed(self) -> list[str]:
        return [label for label, ok in self.results if not ok]


def welch(m: int, M: int) -> float:
    return (2 * m - 1) / (2 * m * M - 1)


def _theorem_bounds(c: Checks, label, alpha, beta, m, M, scale=1.0, tol=0.0) -> None:
    c.within(f"{label} alpha", alpha, scale / m - tol, scale + tol)
    c.within(f"{label} beta", beta, scale * welch(m, M) - tol, scale + tol)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _pattern_header(name: str, seed: int) -> list[str]:
    """Expected `m M family seed` header from the gen flags."""
    if name == RANDOM_PATTERN[0]:
        flags, seed_token = RANDOM_PATTERN[1], str(seed)
    else:
        flags, seed_token = dict(FAMILY_PATTERNS)[name], "none"
    f = dict(zip(flags[::2], flags[1::2]))
    M = f["--M"] if "--M" in f else str((1 << int(f["--n"])) - 1)
    return [f["--m"], M, f["--family"], seed_token]


def _seeded(name: str, seed: int) -> bool:
    """Whether this pattern's reference applies at this seed."""
    return name != RANDOM_PATTERN[0] or seed == REFERENCE_SEED


def check_table2(c: Checks, path: Path, ref: dict) -> None:
    rows = {r["family"]: r for r in _rows(path)}
    c.equal("table2 families", sorted(rows), sorted(ref))
    for fam, want in ref.items():
        got = rows[fam]
        c.equal(f"table2 {fam} status", got["status"], "ok")
        m, M = int(got["m"]), int(got["M"])
        for key in ("m", "M", "k"):
            c.equal(f"table2 {fam} {key}", float(got[key]), want[key])
        for key in ("alpha100", "beta100", "gamma100"):
            c.close(f"table2 {fam} {key}", float(got[key]), want[key], abs_tol=CSV_ABS)
        for key in ("p_complex_normal", "p_complex_uniform"):
            p = float(got[key])
            c.close(f"table2 {fam} {key}", p, want[key], abs_tol=PROB_ABS)
            c.within(f"table2 {fam} {key}", p, 0.0, 1.0)
        _theorem_bounds(
            c, f"table2 {fam}", float(got["alpha100"]), float(got["beta100"]), m, M,
            scale=100.0, tol=CSV_ABS,
        )


def check_sweep(c: Checks, path: Path, seed: int, ref: list) -> None:
    rows = _rows(path)
    c.equal("sweep m grid", [int(r["m"]) for r in rows], SWEEP_M)
    for r in rows:
        m, exact, approx = int(r["m"]), float(r["p_exact"]), float(r["p_approx"])
        c.close(f"sweep m={m} p_approx", approx, 1.0 - 1.0 / (m * DELTA * DELTA), abs_tol=CSV_ABS)
        c.within(f"sweep m={m} gap", abs(exact - approx), 0.0, GAP_M / m)
    if seed == REFERENCE_SEED:
        gap = max(abs(float(r["p_exact"]) - float(r["p_approx"])) for r in rows)
        c.within("sweep max gap", gap, 0.0, GAP_MAX)
        for r, want in zip(rows, ref):
            c.close(f"sweep m={r['m']} p_exact", float(r["p_exact"]), want, abs_tol=PROB_ABS)


def check_verify(c: Checks, path: Path, seed: int, ref: dict, label: str) -> None:
    d = _json(path)
    th, est = d["theoretical"], d["estimate"]
    p = th["params"]
    c.equal(f"{label} lower_bound_holds", d["lower_bound_holds"], True)
    # a 3-sigma verdict is false on ~1 in 370 correct runs, so other
    # seeds repeat its comparison at 5 sigma
    c.within(
        f"{label} E[Z^2] - 1", abs(est["moment2"] - 1.0), 0.0,
        Z2_SIGMAS * est["moment2_stderr"],
    )
    c.equal(f"{label} trials", est["trials"], 100000)
    c.equal(f"{label} seed", est["seed"], seed)
    _theorem_bounds(c, label, p["alpha"], p["beta"], p["m"], p["M"], tol=ULP_REL)
    c.close(f"{label} probability", th["probability"], ref["probability"], abs_tol=PROB_ABS)
    for key in ("alpha", "beta", "gamma"):
        c.close(f"{label} {key}", p[key], ref[key], rel_tol=ULP_REL)
    for key in ("B_K", "C_K"):
        c.close(f"{label} {key}", p[key], ref[key], abs_tol=MOMENT_ABS)
    if seed == REFERENCE_SEED:
        c.equal(f"{label} mean_z2_is_one", d["mean_z2_is_one"], True)
        c.equal(f"{label} empirical_p", est["empirical_p"], ref["empirical_p"])
        for key in ("moment2", "moment4"):
            c.close(f"{label} {key}", est[key], ref[key], rel_tol=MC_REL)


def check_recover(c: Checks, path: Path, seed: int, ref: dict) -> None:
    d = _json(path)
    c.equal("recover trials", d["trials"], 500)
    c.within("recover success_rate", d["success_rate"], RECOVER_MIN, 1.0)
    if seed == REFERENCE_SEED:
        for key in ("successes", "early_stops"):
            c.equal(f"recover {key}", d[key], ref[key])


def check_table1(c: Checks, path: Path, ref: list) -> None:
    rows = _rows(path)
    c.equal("table1 bounds", [r["bound"] for r in rows], [r["bound"] for r in ref])
    for got, want in zip(rows, ref):
        b = got["bound"]
        for key in ("k", "target", "status"):
            c.equal(f"table1 {b} {key}", got[key], want[key])
        if b in DRAWN_WINDOWS:
            lo, hi = DRAWN_WINDOWS[b]
            c.within(f"table1 {b} m_required", int(got["m_required"] or 0), lo, hi)
        else:
            c.equal(f"table1 {b} m_required", got["m_required"], want["m_required"])


def check_pattern(c: Checks, path: Path, name: str, seed: int, ref: str | None) -> None:
    data = path.read_bytes()
    lines = data.decode("ascii").split("\n")
    header = _pattern_header(name, seed)
    c.equal(f"{name}.pat header", lines[0].split(), header)
    m, M = int(header[0]), int(header[1])
    rows = lines[1 : 1 + m]
    c.equal(f"{name}.pat layout", (len(lines), lines[-1]), (m + 2, ""))
    c.ok(
        f"{name}.pat rows are {M} signs",
        all(len(t) == M and set(t) <= {"1", "-1"} for t in (r.split(" ") for r in rows)),
    )
    c.equal(f"{name}.pat distinct rows", len(set(rows)), m)
    if _seeded(name, seed):
        c.equal(f"{name}.pat sha256", hashlib.sha256(data).hexdigest(), ref)


def check_measures(c: Checks, path: Path, name: str, seed: int, ref: dict | None) -> None:
    d = _json(path)
    m, M = (int(v) for v in _pattern_header(name, seed)[:2])
    c.equal(f"{name} shape", (d["m"], d["M"]), (m, M))
    _theorem_bounds(c, name, d["alpha"], d["beta"], m, M, tol=ULP_REL)
    c.within(f"{name} gamma", d["gamma"], 0.0, 1.0 + ULP_REL)
    c.within(f"{name} mu", d["mu"], 0.0, 1.0)
    c.within(f"{name} zero_columns", d["zero_columns"], 0, M - 1)
    # ||Phi||_F^2 = M and rank <= m put ||Phi||^2 in [M/m, M]
    c.within(
        f"{name} spectral_norm_sq", d["spectral_norm_sq"],
        M / m * (1 - SPECTRAL_REL), M * (1 + SPECTRAL_REL),
    )
    if _seeded(name, seed):
        for key in ("alpha", "beta", "gamma", "mu"):
            c.close(f"{name} {key}", d[key], ref[key], rel_tol=ULP_REL)
        c.close(f"{name} spectral_norm_sq", d["spectral_norm_sq"], ref["spectral_norm_sq"],
                rel_tol=SPECTRAL_REL)
        c.equal(f"{name} zero_columns", d["zero_columns"], ref["zero_columns"])


def check_artifact(workload: str, name: str, path: Path, seed: int, reference: dict) -> Checks:
    """All checks of one artifact; a missing or unreadable file, or a
    field that is not there, is one failed check."""
    c = Checks()
    ref = reference[workload].get(name)
    try:
        if name == "table2.csv":
            check_table2(c, path, ref)
        elif name == "sweep.csv":
            check_sweep(c, path, seed, ref)
        elif name.startswith("verify_"):
            check_verify(c, path, seed, ref, name.removesuffix(".json"))
        elif name == "recover.json":
            check_recover(c, path, seed, ref)
        elif name == "table1.csv":
            check_table1(c, path, ref)
        elif name.endswith(".pat"):
            check_pattern(c, path, name.removesuffix(".pat"), seed, ref)
        else:
            check_measures(c, path, name.removesuffix(".json"), seed, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        c.ok(f"{name} readable ({type(exc).__name__}: {exc})", False)
    return c


def artifacts(steps: list[dict]) -> list[str]:
    """Output file of each plan step, in step order."""
    names = []
    for step in steps:
        if "cli" in step:
            argv = step["cli"]
            names.append(argv[argv.index("--out") + 1])
        else:
            names.append(step["table1"]["out"])
    return names


def _csv_cell(first: str, column: int, change):
    """Change one cell of the CSV row whose first cell is `first`."""

    def perturb(text: str) -> str:
        rows = text.split("\n")
        i = next(i for i, r in enumerate(rows) if r.split(",")[0] == first)
        cells = rows[i].split(",")
        cells[column] = change(cells[column])
        rows[i] = ",".join(cells)
        return "\n".join(rows)

    return perturb


def _json_field(path: str, change):
    """Change one field, named by a dotted path, of a JSON artifact."""

    def perturb(text: str) -> str:
        d = json.loads(text)
        *parents, key = path.split(".")
        inner = d
        for p in parents:
            inner = inner[p]
        inner[key] = change(inner[key])
        return json.dumps(d)

    return perturb


def _flip_first_sign(text: str) -> str:
    header, first, rest = text.split("\n", 2)
    flipped = "-1" + first[1:] if first.startswith("1") else first[1:]
    return "\n".join([header, flipped, rest])


# (artifact, what is changed, change); each must fail at least one check
PERTURBATIONS = {
    "channel_budget": [
        ("table1.csv", "rip m_required + 1", _csv_cell("rip", 3, lambda v: str(int(v) + 1))),
    ],
    "reproduce": [
        (
            "table2.csv",
            "gold alpha100 + 1e-5",
            _csv_cell("gold", 4, lambda v: f"{float(v) + 1e-5:.6f}"),
        ),
        (
            "sweep.csv",
            "p_approx at m=20 + 1e-3",
            _csv_cell("20", 2, lambda v: f"{float(v) + 1e-3:.6f}"),
        ),
        (
            "verify_table2_gold.json",
            "estimate.moment2 + 0.01",
            _json_field("estimate.moment2", lambda v: v + 0.01),
        ),
        ("recover.json", "success_rate 0.85", _json_field("success_rate", lambda v: 0.85)),
    ],
    "family_scan": [
        ("gold9.pat", "first sign flipped", _flip_first_sign),
        ("gold9.json", "mu scaled by 1 + 1e-9", _json_field("mu", lambda v: v * (1 + 1e-9))),
    ],
}


def self_test(workload: str, passdir: Path, seed: int, reference: dict, workdir: Path) -> list[dict]:
    """Perturb copies of real artifacts and record how many checks each
    copy fails; a perturbation that fails none means the checks are blind."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, what, perturb in PERTURBATIONS[workload]:
        entry = {"artifact": name, "change": what, "failed_checks": None}
        out.append(entry)
        try:
            text = perturb((passdir / name).read_text(encoding="utf-8"))
        except (OSError, StopIteration, ValueError, KeyError, IndexError):
            continue  # missing or malformed: already a failed check of the pass
        bad = workdir / name
        bad.write_text(text, encoding="utf-8")
        entry["failed_checks"] = len(check_artifact(workload, name, bad, seed, reference).failed)
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))

