"""Workload plans: the argv lists and library calls each pass runs.

A plan is a list of steps.  A step is either ``{"cli": argv}``, run
through ``mwclab.cli.main``, or ``{"table1": {...}}``, a direct
``reports.table1_report`` call on a preset with overridden values
(``table1`` has no ``--seed`` flag).  Every output path is relative to
the pass's output directory.  Plans depend on the workload seed only.
"""

WORKLOADS = ("channel_budget", "reproduce", "family_scan")

# recorded with every run; the harness itself sets only MWCLAB_THREADS
THREAD_VARS = (
    "MWCLAB_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# The table1 search at the preset's 100 draws per candidate m takes
# minutes; two draws keep every bound, the full ceiling and the tall
# (m up to 32768, M = 195) matrices while fitting one pass in ~25 s.
CHANNEL_ATTEMPTS = 2

TABLE2_PRESETS = (
    "table2_maximal",
    "table2_gold",
    "table2_hadamard",
    "table2_random1",
    "table2_kasami",
    "table2_random2",
)

# Wide (m < M) structured patterns: both Gram paths of sensing.coherence
# (full M x M up to M = 4096, blocked above) and the LFSR generators.
FAMILY_PATTERNS = (
    ("gold9", ["--family", "gold", "--n", "9", "--m", "80"]),
    ("gold11", ["--family", "gold", "--n", "11", "--m", "160"]),
    ("kasami10", ["--family", "kasami", "--n", "10", "--m", "32"]),
    ("kasami12", ["--family", "kasami", "--n", "12", "--m", "64"]),
    ("maximal11", ["--family", "maximal", "--n", "11", "--m", "160"]),
    ("maximal13", ["--family", "maximal", "--n", "13", "--m", "160"]),
    ("hadamard4096", ["--family", "hadamard", "--M", "4096", "--m", "160"]),
    ("hadamard8192", ["--family", "hadamard", "--M", "8192", "--m", "160"]),
)
RANDOM_PATTERN = ("random", ["--family", "random", "--M", "2047", "--m", "128"])

# What a fresh interpreter imports and loads before the clock starts;
# set-up time is measured on exactly these steps.
SETUP = {
    "channel_budget": {"modules": ["reports"], "presets": ["table1_mwc"]},
    "reproduce": {
        "modules": ["reports", "montecarlo", "mmv"],
        "presets": [*TABLE2_PRESETS, "fig2_sweep", "recover_mwc"],
    },
    "family_scan": {"modules": ["signmatrix", "sensing", "reports"], "presets": []},
}


def plan(workload: str, seed: int) -> list[dict]:
    if workload == "channel_budget":
        return [
            {
                "table1": {
                    "preset": "table1_mwc",
                    "overrides": {"seed": seed, "attempts": CHANNEL_ATTEMPTS},
                    "out": "table1.csv",
                }
            }
        ]
    if workload == "reproduce":
        s = str(seed)
        steps = [
            {"cli": ["table2", "--out", "table2.csv"]},
            {"cli": ["sweep", "--preset", "fig2_sweep", "--seed", s, "--out", "sweep.csv"]},
        ]
        for preset in TABLE2_PRESETS:
            steps.append(
                {
                    "cli": [
                        "verify", "--preset", preset, "--trials", "100000",
                        "--seed", s, "--out", f"verify_{preset}.json",
                    ]
                }
            )
        steps.append(
            {
                "cli": [
                    "recover", "--preset", "recover_mwc", "--trials", "500",
                    "--seed", s, "--out", "recover.json",
                ]
            }
        )
        return steps
    if workload == "family_scan":
        name, flags = RANDOM_PATTERN
        patterns = [*FAMILY_PATTERNS, (name, [*flags, "--family-seed", str(seed)])]
        steps = []
        for name, flags in patterns:
            steps.append({"cli": ["gen", *flags, "--out", f"{name}.pat"]})
            steps.append(
                {"cli": ["measures", "--pattern", f"{name}.pat", "--out", f"{name}.json"]}
            )
        return steps
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
