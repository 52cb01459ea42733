"""Experiment configuration: a single YAML file drives simulate/sweep runs.

Sweeps vary one parameter over a value list; coupled parameters are derived
per point from arithmetic expressions over the swept value (e.g. N: "50 * M").
"""

from __future__ import annotations

import ast
import math
import operator
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import yaml

from .phy import PhyConfig
from .regimes import REGIMES

SCHEMES = ("scenario1", "scenario2")

# Unit-free normalization: B = 1 Hz, T' = 1 s, Pmax = 1 W, Pmax/(N0*B) = 1e6.
# chi is set so the receive-power gain cap binds only at sub-cluster range and
# cluster-scale links stay inside the power-law region (see README).
DEFAULT_PHY = {
    "chi": 1e-11,
    "alpha": 4.0,
    "N0": 1e-6,
    "B": 1.0,
    "Pmax": 1.0,
    "K": 1,
    "gain_cap": 1.0,
}

_INT_FIELDS = {"N", "M", "S", "n_realizations", "base_seed"}
_FLOAT_FIELDS = {"gamma", "q", "rho_or_alpha1", "C_sec", "T_prime", "eps0"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple
    couple: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in (self.param, *self.couple):
            if not isinstance(name, str) or name not in _INT_FIELDS | _FLOAT_FIELDS:
                raise ValueError(f"cannot sweep or couple {name!r}: not a numeric model parameter")
        if not all(_is_number(v) for v in self.values):
            raise ValueError(f"sweep.values must be numbers, got {list(self.values)!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str
    regime: str
    N: int
    M: int
    S: int
    gamma: float
    q: float
    rho_or_alpha1: float
    n_realizations: int
    base_seed: int
    C_sec: float = 4.0
    T_prime: float = 1.0
    eps0: float = 0.1
    check_bounds: bool = False
    threads: int | None = None
    phy: PhyConfig | None = None
    sweep: SweepSpec | None = None

    def __post_init__(self):
        if self.phy is None:
            object.__setattr__(self, "phy", PhyConfig(**DEFAULT_PHY))
        for name in sorted(_INT_FIELDS):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in sorted(_FLOAT_FIELDS):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.check_bounds, bool):
            raise ValueError(f"check_bounds must be true or false, got {self.check_bounds!r}")
        if self.threads is not None and not (_is_int(self.threads) and self.threads >= 1):
            raise ValueError(f"threads must be null or an integer >= 1, got {self.threads!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {tuple(REGIMES)}, got {self.regime!r}")
        for name in ("N", "M", "S", "n_realizations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        if self.gamma < 0 or self.q < 0:
            raise ValueError("gamma and q must be non-negative")
        if self.rho_or_alpha1 <= 0 or self.C_sec <= 0 or self.T_prime <= 0 or self.eps0 <= 0:
            raise ValueError("rho_or_alpha1, C_sec, T_prime and eps0 must be positive")
        regime = REGIMES[self.regime]
        if not regime.allows_gamma(self.gamma):
            side = ">" if regime.gamma_above_1 else "<"
            raise ValueError(f"regime {regime.name} needs gamma {side} 1, got {self.gamma}")
        if regime.driver and regime.driver_value(self) <= 0:
            raise ValueError(
                f"regime {regime.name} drives the cluster occupancy by {regime.driver}: "
                f"{regime.driver} must be positive, got {regime.driver_value(self)}"
            )
        if self.scheme == "scenario2" and self.S % 2 != 0:
            raise ValueError("scenario2 splits the cache: S must be even")
        if self.scheme not in regime.exponents:
            raise ValueError(
                f"regime {regime.name} has no tuning rule for {self.scheme}; "
                f"use one of {sorted(regime.exponents)}"
            )
        # asymptotic preconditions have no finite-size threshold; warn, not fail
        if regime.q_warn_divisor and self.q > self.M / regime.q_warn_divisor:
            warnings.warn(regime.q_warning.format(q=self.q, M=self.M), stacklevel=2)

    def point(self, **overrides) -> "ExperimentConfig":
        return replace(self, sweep=None, **overrides)


_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Pow: operator.pow,
    ast.Mod: operator.mod,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_MAX_EXPONENT = 64


def _eval_node(node, env: dict):
    if isinstance(node, ast.Constant) and _is_number(node.value):
        return node.value
    if isinstance(node, ast.Name) and node.id in env:
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_node(node.operand, env))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        left, right = _eval_node(node.left, env), _eval_node(node.right, env)
        if isinstance(node.op, ast.Pow) and abs(right) > _MAX_EXPONENT:
            raise ValueError(f"exponent {right} exceeds {_MAX_EXPONENT}")
        return _BINARY_OPS[type(node.op)](left, right)
    if isinstance(node, ast.Name):
        raise ValueError(f"unknown name {node.id!r}; known: {sorted(env)}")
    raise ValueError(f"{type(node).__name__} is not allowed")


def _eval_coupling(expr: str, env: dict) -> float:
    """Arithmetic over the swept variables, e.g. '50 * M' or 'M // 8 + 1'.

    Only numeric literals, the names in env, unary + and -, and the binary
    operators + - * / // ** % are accepted.
    """
    try:
        return _eval_node(ast.parse(expr, mode="eval").body, env)
    except (SyntaxError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"cannot evaluate coupling expression {expr!r}: {exc}") from exc


def sweep_points(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand a config into per-point configs (a single point if no sweep)."""
    if cfg.sweep is None:
        return [cfg]
    points = []
    for value in cfg.sweep.values:
        env = {cfg.sweep.param: value}
        overrides = {cfg.sweep.param: value}
        for name, expr in cfg.sweep.couple.items():
            env[name] = _eval_coupling(expr, env)
            overrides[name] = env[name]
        for name in list(overrides):
            if name in _INT_FIELDS:
                overrides[name] = int(round(overrides[name]))
        points.append(cfg.point(**overrides))
    return points


def swept_param_names(cfg: ExperimentConfig) -> list[str]:
    if cfg.sweep is None:
        return []
    return [cfg.sweep.param, *cfg.sweep.couple.keys()]


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    del d["threads"]
    if cfg.sweep is None:
        del d["sweep"]
    return d


def config_from_dict(raw: dict) -> ExperimentConfig:
    data = dict(raw)
    phy_section = data.pop("phy", None) or {}
    if not isinstance(phy_section, dict):
        raise ValueError(f"phy must be a mapping of channel parameters, got {phy_section!r}")
    phy_raw = {**DEFAULT_PHY, **phy_section}
    unknown_phy = set(phy_raw) - {f.name for f in fields(PhyConfig)}
    if unknown_phy:
        raise ValueError(f"unknown phy keys: {sorted(unknown_phy)}")
    for key, value in phy_raw.items():
        if not (_is_number(value) or (key == "sinr_ceiling" and value is None)):
            raise ValueError(f"phy.{key} must be a number, got {value!r}")
    try:
        phy = PhyConfig(**phy_raw)
    except ValueError as exc:  # every PhyConfig message starts with its key
        raise ValueError(f"phy.{exc}") from exc
    sweep_raw = data.pop("sweep", None)
    sweep = None
    if sweep_raw:
        if not isinstance(sweep_raw, dict):
            raise ValueError(f"sweep must be a mapping with param and values, got {sweep_raw!r}")
        unknown_sweep = set(sweep_raw) - {"param", "values", "couple"}
        if unknown_sweep:
            raise ValueError(f"unknown sweep keys: {sorted(map(str, unknown_sweep))}")
        for key in ("param", "values"):
            if key not in sweep_raw:
                raise ValueError(f"sweep.{key} is missing")
        if not isinstance(sweep_raw["values"], (list, tuple)):
            raise ValueError(f"sweep.values must be a list, got {sweep_raw['values']!r}")
        couple = sweep_raw.get("couple") or {}
        if not isinstance(couple, dict):
            raise ValueError(f"sweep.couple must be a mapping of name: expression, got {couple!r}")
        sweep = SweepSpec(
            param=sweep_raw["param"], values=tuple(sweep_raw["values"]), couple=dict(couple)
        )
    top = fields(ExperimentConfig)
    unknown = set(data) - {f.name for f in top}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    required = {f.name for f in top if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(data)
    if missing:
        raise ValueError(f"config is missing required keys: {sorted(missing)}")
    return ExperimentConfig(phy=phy, sweep=sweep, **data)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} did not parse to a mapping")
    return config_from_dict(raw)
