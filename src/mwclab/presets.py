"""Named experiment configurations, loaded from the bundled INI file."""

import configparser
from dataclasses import dataclass
from importlib import resources

from .signmatrix import FamilySpec

TABLE2_ROW_ORDER = (
    "table2_maximal",
    "table2_gold",
    "table2_hadamard",
    "table2_random1",
    "table2_kasami",
    "table2_random2",
)


@dataclass(frozen=True)
class Preset:
    name: str | None  # None for the flags-only configuration of the CLI
    values: dict

    def get_int(self, key: str, default: int | None = None) -> int | None:
        if key not in self.values:
            return default
        return int(self.values[key])

    def get_float(self, key: str, default: float | None = None) -> float | None:
        if key not in self.values:
            return default
        return float(self.values[key])

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def family_spec(self) -> FamilySpec:
        """The sign-pattern spec from the family, m, n, M and family_seed keys."""
        rows = self.get_int("m")
        if rows is None:
            raise ValueError(f"preset {self.name} has no row count and none was given")
        return FamilySpec(
            family=self.values["family"],
            m=rows,
            n=self.get_int("n"),
            M=self.get_int("M"),
            seed=self.get_int("family_seed"),
        )


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


__all__ = ["Preset", "TABLE2_ROW_ORDER", "list_presets", "load_preset"]
