"""Named experiment configurations, loaded from the bundled INI file,
and the one place where command-line flags are laid over them."""

import configparser
from dataclasses import dataclass, field
from importlib import resources

from .distributions import NonzeroDistribution
from .signmatrix import FamilySpec

TABLE2_ROW_ORDER = (
    "table2_maximal",
    "table2_gold",
    "table2_hadamard",
    "table2_random1",
    "table2_kasami",
    "table2_random2",
)

# flags whose argparse dest names a preset key; a flag that is given
# wins over the preset's value
_PRESET_KEYS = (
    "family", "m", "n", "M", "family_seed", "k", "delta", "dist",
    "trials", "seed", "k_rows", "r", "attempts", "ceiling",
)

_REQUIRED = object()


@dataclass(frozen=True)
class Preset:
    """A configuration's values as strings, as the INI file gives them.

    A getter without a default treats its key as required: a missing
    key is a ValueError that names the flag supplying it when the
    command reading the preset has one (flags), the bare key otherwise.
    A key whose default belongs to a library call goes to it through
    given(), which leaves out what the preset lacks."""

    name: str | None  # None for the flags-only configuration of the CLI
    values: dict
    flags: frozenset = field(default=frozenset(), repr=False)

    def _get(self, key: str, default, parse):
        if key in self.values:
            return parse(self.values[key])
        if default is not _REQUIRED:
            return default
        if key in self.flags:
            raise ValueError(f"--{key.replace('_', '-')} is required (no preset supplies it)")
        raise ValueError(f"{key} is required (no flag or preset supplies it)")

    def get_int(self, key: str, default=_REQUIRED) -> int | None:
        return self._get(key, default, int)

    def get_float(self, key: str, default=_REQUIRED) -> float | None:
        return self._get(key, default, float)

    def get_str(self, key: str, default=_REQUIRED) -> str | None:
        return self._get(key, default, str)

    def family_spec(self) -> FamilySpec:
        """The sign-pattern spec from the family, m, n, M and family_seed keys."""
        return FamilySpec(
            family=self.get_str("family"),
            m=self.get_int("m"),
            n=self.get_int("n", None),
            M=self.get_int("M", None),
            seed=self.get_int("family_seed", None),
        )

    def get_dist(self) -> NonzeroDistribution:
        """The value law of the dist key, the default law without one."""
        return self._get("dist", NonzeroDistribution(), NonzeroDistribution)

    def given(self, **parsers) -> dict:
        """{key: parse(value)} for each named key the preset has.  A key
        it lacks is left out, so the function these keywords go to
        applies its own default."""
        return {k: parse(self.values[k]) for k, parse in parsers.items() if k in self.values}


def _read_config() -> configparser.ConfigParser:
    text = resources.files("mwclab").joinpath("presets.ini").read_text(encoding="utf-8")
    cfg = configparser.ConfigParser()
    cfg.optionxform = str  # keep M and m distinct
    cfg.read_string(text)
    return cfg


def list_presets() -> list[str]:
    return list(_read_config().sections())


def load_preset(name: str) -> Preset:
    cfg = _read_config()
    if name not in cfg:
        known = ", ".join(cfg.sections())
        raise ValueError(f"unknown preset {name!r}; available: {known}")
    return Preset(name, dict(cfg[name]))


def effective_preset(args) -> Preset:
    """args.preset (without one, an empty preset with no name) with
    every preset-key flag given in the argparse namespace laid over it,
    and the preset keys the command declares as flags as its flags.
    Values are stored as strings; str() of an int or float parses back
    to the same value."""
    name = getattr(args, "preset", None)
    base = load_preset(name) if name else Preset(None, {})
    flags = [key for key in _PRESET_KEYS if hasattr(args, key)]
    given = {key: str(getattr(args, key)) for key in flags if getattr(args, key) is not None}
    return Preset(base.name, {**base.values, **given}, frozenset(flags))


__all__ = ["Preset", "TABLE2_ROW_ORDER", "effective_preset", "list_presets", "load_preset"]
