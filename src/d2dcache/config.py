"""Experiment configuration: a single YAML file drives simulate/sweep runs.

Sweeps vary one parameter over a value list; coupled parameters are derived
per point from arithmetic expressions over the swept value (e.g. N: "50 * M").
"""

from __future__ import annotations

import ast
import math
import operator
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import yaml

from .phy import PhyConfig, check_field_types, field_kinds
from .regimes import REGIMES

SCHEMES = ("scenario1", "scenario2")


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
        if isinstance(self.values, list):  # a YAML sequence
            object.__setattr__(self, "values", tuple(self.values))
        check_field_types(self)
        for name in (self.param, *self.couple):
            if name not in _NUMERIC_FIELDS:
                raise ValueError(f"sweep: cannot sweep or couple {name!r}: not a numeric parameter")
        values = list(self.values)
        if not all(_is_number(v) for v in values):
            raise ValueError(f"sweep.values must be numbers, got {values!r}")
        if _NUMERIC_FIELDS[self.param] is int and not all(_is_int(v) for v in values):
            raise ValueError(f"sweep.values must be integers to sweep {self.param}, got {values!r}")


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
    eps0: float = 0.1
    check_bounds: bool = False
    threads: int | None = None
    phy: PhyConfig = field(default_factory=PhyConfig)
    sweep: SweepSpec | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be null or an integer >= 1, got {self.threads!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {tuple(REGIMES)}, got {self.regime!r}")
        for name in ("N", "M", "S", "n_realizations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)}")
        for name in ("base_seed", "gamma", "q"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("rho_or_alpha1", "C_sec", "eps0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
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


# the model parameters a sweep may set, and the type of each
_NUMERIC_FIELDS = {
    name: kinds[0] for name, kinds in field_kinds(ExperimentConfig).items()
    if kinds in ((int,), (float,))
}


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
        for name, value in overrides.items():
            # finite coupled values round half to even; inf and nan reach the schema
            if _NUMERIC_FIELDS[name] is int and isinstance(value, float) and math.isfinite(value):
                overrides[name] = int(round(value))
        points.append(replace(cfg, sweep=None, **overrides))
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


def _build(cls, raw, name: str = ""):
    """cls(**raw), its keys checked against cls's fields. A field typed by a
    config dataclass is built the same way from its own mapping, and its
    errors are prefixed with its key (phy.K). A null value of a field with a
    default factory takes the default."""
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a mapping, got {raw!r}")
    prefix = f"{name}." if name else ""
    unknown = set(raw) - set(field_kinds(cls))
    if unknown:
        raise ValueError(f"unknown {name or 'config'} keys: {sorted(map(str, unknown))}")
    data = {}
    for f in fields(cls):
        value = raw.get(f.name)
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{prefix}{f.name} is missing")
        section = next((k for k in field_kinds(cls)[f.name] if is_dataclass(k)), None)
        if section is not None and isinstance(value, dict):
            data[f.name] = _build(section, value, prefix + f.name)
        elif f.name in raw and not (value is None and f.default_factory is not MISSING):
            data[f.name] = value
    try:
        return cls(**data)
    except ValueError as exc:
        if not name or str(exc).startswith(name):  # SweepSpec names its section
            raise
        raise ValueError(f"{prefix}{exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, raw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(yaml.safe_load(fh))
