"""Spans around the public functions of every mwclab module.

Each public function (the module's ``__all__``, or its public names
when it has none) is replaced by a wrapper in every mwclab module that
binds the same function object, so ``from .sensing import coherence``
in ``guarantees`` is traced as well.  Spans stay in memory and are
written as JSONL when the pass ends; the per-layer metrics are derived
from them afterwards.

A span is ``{"id", "name", "parent", "run", "start", "end", "done"}``
plus optional ``attrs``.  ``end`` is when the call returned and
``done`` when the wrapper finished its own bookkeeping (hashing a
matrix, reading a file size); a parent's self time subtracts each
child's ``done - start`` so that bookkeeping is charged to no layer.
"""

import functools
import hashlib
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = (
    "cli",
    "distributions",
    "guarantees",
    "mmv",
    "montecarlo",
    "presets",
    "reports",
    "sensing",
    "sequences",
    "signmatrix",
)


def _shape(S):
    return S.entries.shape if hasattr(S, "entries") else S.shape


def _quality(args, result, _):
    m, M = _shape(args["S"])
    # S S^T and S R S^T, both m x m over M
    return {"gram_macs": 2 * m * m * M}


def _coherence(args, result, _):
    import numpy as np

    from mwclab import sensing

    S = np.ascontiguousarray(args["S"])
    m, M = S.shape
    digest = hashlib.blake2b(S, digest_size=16).hexdigest()
    n = M - result[1]  # nonzero columns
    if n < 2:
        macs = 0
    elif M <= sensing._FULL_GRAM_MAX_M:
        macs = m * M * M  # real S^T S over all M columns
    else:
        macs = 4 * m * n * n  # complex Phi^H Phi over the nonzero columns
    return {"gram_macs": macs, "key": f"{m}x{M}:{S.dtype}:{digest}"}


def _spectral(args, result, _):
    m, M = _shape(args["S"])
    # the smaller integer Gram; the power-iteration matvecs are not counted
    return {"gram_macs": min(m, M) ** 2 * max(m, M)}


def _moments(args, result, _):
    return {"samples": result.samples or 0}


def _trials(args, result, _):
    return {"trials": args["trials"]}


def _somp(args, result, _):
    return {"early_stop": int(result.early_stop)}


def _stream_pos(args):
    target = next(iter(args.values()))
    return None if isinstance(target, (str, os.PathLike)) else target.tell()


def _io_bytes(args, result, pos):
    target = next(iter(args.values()))
    return {"bytes": os.path.getsize(target) if pos is None else target.tell() - pos}


def _step(args, result, _):
    step = args["step"]
    return {"command": step["cli"][0] if "cli" in step else "table1"}


# span name -> (before hook or None, after hook); hooks see bound arguments
ANNOTATORS = {
    "bench.step": (None, _step),
    "sensing.quality_measures": (None, _quality),
    "sensing.coherence": (None, _coherence),
    "sensing.spectral_norm_sq": (None, _spectral),
    "distributions.moment_constants": (None, _moments),
    "montecarlo.empirical_exrip": (None, _trials),
    "mmv.somp": (None, _somp),
    "signmatrix.read_pattern_file": (_stream_pos, _io_bytes),
    "signmatrix.write_pattern_file": (_stream_pos, _io_bytes),
    "reports.write_csv": (_stream_pos, _io_bytes),
    "reports.write_json": (_stream_pos, _io_bytes),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, name: str, fn):
        before, after = ANNOTATORS.get(name, (None, None))
        sig = inspect.signature(fn) if after else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "run": self.run_id,
            }
            spans.append(span)
            bound = state = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    state = before(bound.arguments)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = span["done"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span["end"] = time.perf_counter()
            if sig is not None:
                span["attrs"] = after(bound.arguments, result, state)
            span["done"] = time.perf_counter()
            return result

        return traced

    def install(self) -> None:
        """Wrap every public mwclab function wherever it is bound."""
        mods = [importlib.import_module(f"mwclab.{name}") for name in MODULES]
        wrapped = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{n}", fn)
        for mod in mods:
            for n, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, n, wrapped[value])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times from one pass's spans."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["done"] - s["start"]
    names = {s["id"]: s["name"] for s in spans}
    own = {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}
    # own time plus that of same-layer callees, so a moment-constant call
    # keeps the sample draws it makes through sample_values and block_rng
    in_layer = defaultdict(float)
    for s in reversed(spans):  # callees come after their caller
        parent = s["parent"]
        if parent is not None and names[parent].split(".")[0] == s["name"].split(".")[0]:
            in_layer[parent] += own[s["id"]] + in_layer[s["id"]]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attrs = defaultdict(int)
    module_self = defaultdict(float)
    coherence_keys = set()
    instances = 0
    for s in spans:
        name = s["name"]
        calls[name] += 1
        self_s[name] += own[s["id"]]
        module_self[name.split(".", 1)[0]] += own[s["id"]]
        for key, value in s.get("attrs", {}).items():
            if key == "key":
                coherence_keys.add(value)
            elif key != "command":
                attrs[(name, key)] += value
        parent = names.get(s["parent"])
        if parent == "guarantees.min_channels_search" and name in (
            "sensing.coherence",
            "sensing.quality_measures",
        ):
            instances += 1

    def total(prefix, key):
        return sum(v for (n, k), v in attrs.items() if n.startswith(prefix) and k == key)

    bound_fns = (
        "coherence_guarantees",
        "exrip_approx",
        "exrip_from_sign_matrix",
        "exrip_probability",
        "rip_min_m",
        "strip_calderbank",
        "strip_gan",
        "strip_tropp",
    )
    coherence_calls = calls["sensing.coherence"]
    return {
        "sensing.quality_calls": calls["sensing.quality_measures"],
        "sensing.quality_self_s": self_s["sensing.quality_measures"],
        "sensing.coherence_calls": coherence_calls,
        "sensing.coherence_self_s": self_s["sensing.coherence"],
        "sensing.coherence_distinct_ratio": (
            len(coherence_keys) / coherence_calls if coherence_calls else 0.0
        ),
        "sensing.spectral_calls": calls["sensing.spectral_norm_sq"],
        "sensing.spectral_self_s": self_s["sensing.spectral_norm_sq"],
        "sensing.matrix_self_s": self_s["sensing.sensing_matrix"],
        "sensing.gram_macs": total("sensing.", "gram_macs"),
        "guarantees.search_calls": calls["guarantees.min_channels_search"],
        "guarantees.search_self_s": self_s["guarantees.min_channels_search"],
        "guarantees.instances": instances,
        "guarantees.bound_calls": sum(calls[f"guarantees.{f}"] for f in bound_fns),
        "distributions.moment_calls": calls["distributions.moment_constants"],
        "distributions.moment_samples": total("distributions.", "samples"),
        "distributions.moment_self_s": sum(
            own[s["id"]] + in_layer[s["id"]]
            for s in spans
            if s["name"] == "distributions.moment_constants"
        ),
        "montecarlo.trials": total("montecarlo.", "trials"),
        "montecarlo.self_s": module_self["montecarlo"],
        "montecarlo.report_self_s": self_s["montecarlo.bound_validity_report"],
        "mmv.somp_calls": calls["mmv.somp"],
        "mmv.somp_self_s": self_s["mmv.somp"],
        "mmv.early_stops": total("mmv.", "early_stop"),
        "mmv.experiment_self_s": self_s["mmv.recovery_experiment"],
        "sequences.calls": sum(v for n, v in calls.items() if n.startswith("sequences.")),
        "sequences.self_s": module_self["sequences"],
        "signmatrix.build_calls": calls["signmatrix.build_sign_matrix"],
        "signmatrix.build_self_s": self_s["signmatrix.build_sign_matrix"],
        "signmatrix.io_self_s": (
            self_s["signmatrix.read_pattern_file"] + self_s["signmatrix.write_pattern_file"]
        ),
        "signmatrix.io_bytes": total("signmatrix.", "bytes"),
        "reports.self_s": module_self["reports"],
        "reports.bytes_written": total("reports.", "bytes"),
        "presets.load_calls": calls["presets.load_preset"],
        "presets.self_s": module_self["presets"],
        "cli.self_s": module_self["cli"],
    }
