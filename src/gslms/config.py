"""Experiment configuration: dataclasses, strict INI parsing, builtins.

The file format is deliberately rigid.  A key left out takes its dataclass
default, but a key that the parser does not know — or that does not apply to
the selected input process or algorithm kind — is a hard error, so a
misspelled hyperparameter can never silently fall back to its default.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Optional

from .groups import GRZA, GZA, _usable_epsilon
from .signals import (
    AR1GaussianMixture, InputProcess, WhiteGaussian, benchmark_schedule, stationary_power,
)
from .varparam import default_mu_max, g_terms

__all__ = [
    "ConfigError",
    "AlgorithmSpec",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "config_hash",
    "builtin_config",
    "BUILTIN_EXPERIMENTS",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _check_line(what: str, value: str, empty: bool = False) -> None:
    """Reject a value that ``parse_config`` would not read back from the one
    INI line ``serialize_config`` writes it on (stripped; empty = default)."""
    if value.strip() != value or len(value.splitlines()) > 1 or not (value or empty):
        raise ConfigError(f"{what} must be one {'' if empty else 'nonempty '}line "
                          f"with no surrounding whitespace, got {value!r}")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm entry: either fixed (mu, rho) or the variable strategy."""

    name: str
    mode: Optional[str] = None  # None = plain LMS, else "gza" / "grza"
    variable: bool = False
    mu: float = 0.0
    rho: float = 0.0
    gamma: float = 0.95
    gamma_prime: float = 0.95
    mu_max: Optional[float] = None  # None = 2 / (3 sigma_u2 L) at runtime

    def __post_init__(self):
        if self.mode not in (None, GZA, GRZA):
            raise ConfigError(f"unknown algorithm mode {self.mode!r}")
        _check_line("algorithm name", self.name)
        # The name is its curve file's, in the output directory beside manifest.json.
        if self.name == "manifest" or set(self.name) & {"/", os.sep, os.altsep}:
            raise ConfigError(f"algorithm name {self.name!r} cannot name a curve file: "
                              "it holds a path separator or is 'manifest'")
        # A field the other kind uses would change config_hash, yet
        # serialize_config drops it and the engine never reads it.
        cls = type(self)
        if ((self.mu, self.rho) != (0.0, 0.0) if self.variable else
                (self.gamma, self.gamma_prime, self.mu_max) != (cls.gamma, cls.gamma_prime, None)):
            raise ConfigError(f"{_PARAM_KEYS[not self.variable][1]}, got {self!r}")
        if self.variable:
            for g in (self.gamma, self.gamma_prime):
                if not 0.0 <= g < 1.0:
                    raise ConfigError("smoothing factors must lie in [0, 1)")
            if self.mu_max is not None and not self.mu_max > 0:
                raise ConfigError("mu_max must be positive when given")
        else:
            if not all(math.isfinite(v) and v >= 0 for v in (self.mu, self.rho)):
                raise ConfigError(f"fixed mu and rho must be finite and nonnegative, "
                                  f"got mu={self.mu}, rho={self.rho}")
            if self.mode is None and self.rho != 0:
                raise ConfigError(f"plain LMS takes no rho (only gza or grza), got rho={self.rho}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte-Carlo experiment."""

    experiment: str = "custom"
    runs: int = 100
    iterations: int = 24000
    group_size: int = 5
    epsilon: float = 0.1
    sigma_z2: float = 0.01
    input: InputProcess = WhiteGaussian()
    master_seed: int = 2024
    output_dir: str = ""  # empty = resolve via environment / fallback
    format: str = "csv"
    algorithms: tuple[AlgorithmSpec, ...] = ()

    def __post_init__(self):
        _check_line("experiment id", self.experiment)
        _check_line("output_dir", self.output_dir, empty=True)
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.iterations < 0:
            raise ConfigError("iterations must be nonnegative")
        L = benchmark_schedule().L
        if not 1 <= self.group_size <= L:
            raise ConfigError(f"group size must lie in [1, {L}] (the plant length)")
        if not _usable_epsilon(self.epsilon):
            raise ConfigError(f"epsilon must be positive with a finite 1/epsilon, "
                              f"got {self.epsilon}")
        if not self.sigma_z2 >= 0:
            raise ConfigError("noise variance must be nonnegative")
        if not math.isfinite(self.sigma_z2):
            raise ConfigError(f"noise variance must be finite, got {self.sigma_z2}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise ConfigError("algorithm names must be unique")
        variable = [a for a in self.algorithms if a.variable]
        if variable:
            # The VP model's moment g = g0 + g1 zeta (varparam.g_terms) and
            # the default step-size cap must be usable for every run.
            su2 = self.sigma_u2
            g0, g1 = g_terms(self.sigma_z2, su2, L)
            if not (math.isfinite(g0) and math.isfinite(g1)):
                raise ConfigError(f"input power {su2} and noise variance {self.sigma_z2} "
                                  f"overflow the variable-parameter model (g0={g0}, g1={g1})")
            if any(a.mu_max is None for a in variable) and not default_mu_max(su2, L) > 0:
                raise ConfigError(f"input power {su2} makes the default mu_max = 2/(3 sigma_u2 L) "
                                  f"zero; set mu_max")

    @property
    def sigma_u2(self) -> float:
        """Stationary input power implied by the input process spec."""
        return stationary_power(self.input)


def _bool(raw: str) -> bool:
    """``true``/``yes``/``on``/``1`` or ``false``/``no``/``off``/``0``, any case."""
    lowered = raw.strip().lower()
    if lowered not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(raw)
    return configparser.ConfigParser.BOOLEAN_STATES[lowered]


# Key tables: rows of (INI key, dataclass field, parser) in the order that
# serialize_config writes them.  A dict parser is a closed set of spellings.
_EXPERIMENT_KEYS = (
    ("id", "experiment", str), ("runs", "runs", int), ("iterations", "iterations", int),
    ("group_size", "group_size", int), ("epsilon", "epsilon", float),
    ("noise_variance", "sigma_z2", float), ("input", "input", str),  # then _INPUT_KEYS
    ("master_seed", "master_seed", int), ("output_dir", "output_dir", str),
    ("format", "format", str),
)
# input kind -> (process dataclass, its name in errors, its keys)
_INPUT_KEYS = {
    "white": (WhiteGaussian, "white input process", (("input_variance", "variance", float),)),
    "ar1-mixture": (AR1GaussianMixture, "ar1-mixture process", (
        ("ar_alpha", "alpha", float), ("ar_a", "a", float), ("ar_sigma_v2", "sigma_v2", float))),
}
_INPUT_KIND = {cls: kind for kind, (cls, _, _) in _INPUT_KEYS.items()}
_ALGORITHM_KEYS = (("mode", "mode", {"lms": None, GZA: GZA, GRZA: GRZA}),
                   ("variable", "variable", _bool))
# AlgorithmSpec.variable -> its parameter keys, and the error for them on the other kind
_PARAM_KEYS = {
    False: ((("mu", "mu", float), ("rho", "rho", float)),
            "fixed mu/rho do not apply to a variable-parameter algorithm"),
    True: ((("gamma", "gamma", float), ("gamma_prime", "gamma_prime", float),
            ("mu_max", "mu_max", float)), "smoothing keys apply only to variable-parameter algorithms"),
}
_ALG_PREFIX = "algorithm:"


def _given(parser, section, rows):
    """``(key, field, parser, raw value)`` of each row that ``section`` sets."""
    raws = [(row, parser.get(section, row[0], fallback="")) for row in rows]
    return [(*row, raw) for row, raw in raws if raw.strip()]


def _parse(parser, section, rows) -> dict:
    """Field values of the keys of ``rows`` that ``section`` sets."""
    fields = {}
    for key, name, conv, raw in _given(parser, section, rows):
        try:
            fields[name] = conv[raw] if isinstance(conv, dict) else conv(raw)
        except KeyError:
            raise ConfigError(f"[{section}] unknown {key} {raw!r}") from None
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return fields


def parse_config(text: str) -> ExperimentConfig:
    """Parse the INI experiment format; reject unknown keys and sections.

    A key left out (or left empty) keeps its dataclass default.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section == "experiment":
            tables = (_EXPERIMENT_KEYS, *(rows for _, _, rows in _INPUT_KEYS.values()))
        elif section.startswith(_ALG_PREFIX):
            tables = (_ALGORITHM_KEYS, *(rows for rows, _ in _PARAM_KEYS.values()))
        else:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser.options(section)) - {key for rows in tables for key, _, _ in rows}
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    fields = _parse(parser, "experiment", _EXPERIMENT_KEYS)
    kind = fields.get("input") or _INPUT_KIND[type(ExperimentConfig.input)]
    if kind not in _INPUT_KEYS:
        raise ConfigError(f"unknown input process {kind!r} (use {' or '.join(_INPUT_KEYS)})")
    process, label, rows = _INPUT_KEYS[kind]
    misplaced = _given(parser, "experiment", [row for other, (_, _, keys) in _INPUT_KEYS.items()
                                              if other != kind for row in keys])
    if misplaced:
        raise ConfigError(f"{misplaced[0][0]} does not apply to the {label}")
    params = _parse(parser, "experiment", rows)
    try:
        fields["input"] = process(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    algorithms = []
    for section in filter(lambda s: s.startswith(_ALG_PREFIX), parser.sections()):
        spec = _parse(parser, section, _ALGORITHM_KEYS)
        variable = spec.get("variable", AlgorithmSpec.variable)
        (rows, _), (misplaced, message) = _PARAM_KEYS[variable], _PARAM_KEYS[not variable]
        if any(_given(parser, section, misplaced)):
            raise ConfigError(f"[{section}] {message}")
        spec.update(_parse(parser, section, rows))
        algorithms.append(AlgorithmSpec(name=section[len(_ALG_PREFIX):], **spec))

    return ExperimentConfig(**fields, algorithms=tuple(algorithms))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc


def _fmt(value, conv) -> str:
    if isinstance(conv, dict):  # the spelling that parses to ``value``
        return next(text for text, v in conv.items() if v == value)
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config with every key written out explicitly.

    The output parses back to an identical ExperimentConfig, which is what
    makes `show-config | run` a faithful round trip.
    """
    def lines(obj, rows):
        return [f"{key} = {_fmt(getattr(obj, name), conv)}" for key, name, conv in rows]

    kind = _INPUT_KIND[type(cfg.input)]
    out = ["[experiment]"]
    for key, name, conv in _EXPERIMENT_KEYS:
        if name == "input":
            out += [f"{key} = {kind}", *lines(cfg.input, _INPUT_KEYS[kind][2])]
        else:
            out += lines(cfg, [(key, name, conv)])
    for alg in cfg.algorithms:
        out += ["", f"[{_ALG_PREFIX}{alg.name}]"]
        out += lines(alg, _ALGORITHM_KEYS + _PARAM_KEYS[alg.variable][0])
    return "\n".join(out) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short digest of the fully resolved configuration."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


BUILTIN_EXPERIMENTS = ("exp1", "exp2")


def builtin_config(name: str) -> ExperimentConfig:
    """Built-in config of one benchmark experiment, read from its INI file in
    ``gslms/configs`` (which holds the calibrated fixed-parameter baselines).

    exp1: white Gaussian input, unit variance.  exp2: AR(1) input with
    Gaussian-mixture innovations (alpha=1/2, a=3/2, sigma_v2=4/13).  Both run
    100 averaging runs of 24000 iterations over the three-stage plant
    schedule with L=35, groups of 5, epsilon=0.1 and 20 dB SNR.
    """
    if name not in BUILTIN_EXPERIMENTS:
        raise ConfigError(f"no built-in experiment named {name!r}")
    return load_config(os.path.join(os.path.dirname(__file__), "configs", f"{name}.ini"))
