"""Flat key-value scenario configs: `section.key = value` lines.

Blank lines and `#` comments are ignored.  Unknown keys are rejected and all
validation errors are reported together.  The resolved config (defaults
applied) round-trips through the emitted manifest.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .models import (BathParams, ModelError, SystemPotential, TwoModeParams,
                     build_caldeira_leggett, build_two_mode,
                     discretize_ohmic_bath)


class ConfigError(ValueError):
    """Carries every validation error found in a config."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (parser, default); None default means required-if-relevant is
# checked separately, "" means no default (key optional)
_SCHEMA: dict[str, tuple[Any, Any]] = {
    "model.kind": (str, "two_mode"),
    "model.m_s": (float, 1.0),
    "model.m_e": (float, 1.0),
    "model.omega": (float, 1.0),
    "model.coupling": (float, 0.25),
    "model.potential": (str, "harmonic"),
    "model.omega_s": (float, 1.0),
    "model.coupling_sign": (int, -1),
    "bath.kind": (str, "ohmic"),
    "bath.n": (int, 32),
    "bath.omega_cutoff": (float, 5.0),
    "bath.eta": (float, 0.1),
    "bath.masses": (_parse_float_list, ()),
    "bath.freqs": (_parse_float_list, ()),
    "bath.couplings": (_parse_float_list, ()),
    "state.alpha_x": (float, 1.0),
    "state.alpha_p": (float, 0.0),
    "state.beta_x": (float, -1.0),
    "state.beta_p": (float, 0.0),
    "state.cm_alpha_x": (float, None),
    "state.cm_alpha_p": (float, None),
    "state.cm_beta_x": (float, None),
    "state.cm_beta_p": (float, None),
    "state.temperature": (float, 0.0),
    "run.t_max": (float, 2.0),
    "run.t_steps": (int, 101),
    "run.allow_positivity_violation": (_parse_bool, False),
    "run.open_freq_ref": (float, 1.0),
    "oracle.dim": (int, 24),
    "oracle.x0": (float, 0.4),
    "oracle.negativity_time": (float, None),
    "master.variant": (str, "harmonic"),
    "master.lam": (float, 0.25),
    "master.dim": (int, 40),
    "master.t_max": (float, 0.5),
    "master.t_steps": (int, 11),
    "master.x0": (float, 1.5),
}

_ENUMS = {
    "model.kind": ("two_mode", "caldeira_leggett"),
    "model.potential": ("free", "harmonic"),
    "bath.kind": ("ohmic", "explicit"),
    "master.variant": ("none", "free", "harmonic"),
}

# keys whose defaults derive from other keys rather than the schema table
_DERIVED_DEFAULTS = {
    "state.cm_alpha_x": "state.alpha_x",
    "state.cm_alpha_p": "state.alpha_p",
    "state.cm_beta_x": "state.beta_x",
    "state.cm_beta_p": "state.beta_p",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed, validated, default-resolved scenario."""

    values: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def resolved(self) -> dict[str, str]:
        """Full effective configuration as manifest-ready strings."""
        out = {}
        for key in sorted(self.values):
            v = self.values[key]
            if v is None:
                continue
            out[key] = _fmt(v)
        return out

    def t_grid(self) -> list[float]:
        n = self["run.t_steps"]
        tmax = self["run.t_max"]
        return [tmax * i / (n - 1) for i in range(n)] if n > 1 else [0.0]

    def master_t_grid(self) -> list[float]:
        n = self["master.t_steps"]
        tmax = self["master.t_max"]
        return [tmax * i / (n - 1) for i in range(n)] if n > 1 else [0.0]

    def bath(self) -> BathParams:
        sign = self["model.coupling_sign"]
        if self["bath.kind"] == "ohmic":
            b = discretize_ohmic_bath(self["bath.n"], self["bath.omega_cutoff"],
                                      self["bath.eta"])
            return BathParams(b.masses, b.freqs, b.couplings, sign)
        return BathParams(self["bath.masses"], self["bath.freqs"],
                          self["bath.couplings"], sign)

    def potential(self) -> SystemPotential:
        return SystemPotential(self["model.potential"], self["model.m_s"],
                               self["model.omega_s"])

    def two_mode(self) -> TwoModeParams:
        return TwoModeParams(self["model.m_s"], self["model.m_e"],
                             self["model.omega"], self["model.coupling"])

    def hamiltonian(self):
        if self["model.kind"] == "two_mode":
            return build_two_mode(self.two_mode())
        return build_caldeira_leggett(self.potential(), self.bath())


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate; raises ConfigError listing every problem at once."""
    errors: list[str] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'section.key = value'")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value.strip()

    values: dict[str, Any] = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in raw:
            try:
                values[key] = parser(raw[key])
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
        else:
            values[key] = default
    for key, source in _DERIVED_DEFAULTS.items():
        if values.get(key) is None:
            values[key] = values.get(source)

    for key, options in _ENUMS.items():
        if key in values and values[key] not in options:
            errors.append(f"{key}: must be one of {', '.join(options)}")

    if not errors:
        errors.extend(_semantic_errors(values))
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(values)


def _semantic_errors(values: dict[str, Any]) -> list[str]:
    errors = []
    cfg = ScenarioConfig(values)
    if values["model.kind"] == "two_mode":
        try:
            cfg.two_mode()
        except ModelError as exc:
            errors.append(f"model: {exc}")
    else:
        try:
            cfg.potential()
        except ModelError as exc:
            errors.append(f"model: {exc}")
        try:
            cfg.bath()
        except ModelError as exc:
            errors.append(f"bath: {exc}")
    if values["run.t_steps"] < 1:
        errors.append("run.t_steps: must be >= 1")
    if values["run.t_max"] < 0:
        errors.append("run.t_max: must be >= 0")
    if values["oracle.dim"] < 2:
        errors.append("oracle.dim: must be >= 2")
    try:
        from .master import MasterEqScenario
        MasterEqScenario(values["master.variant"], values["master.lam"],
                         values["master.dim"], values["model.m_s"],
                         values["model.omega_s"])
    except Exception as exc:
        errors.append(f"master: {exc}")
    return errors


def manifest_text(cfg: ScenarioConfig) -> str:
    lines = [f"{k} = {v}" for k, v in cfg.resolved().items()]
    return "\n".join(lines) + "\n"
