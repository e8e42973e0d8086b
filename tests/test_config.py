"""Unit tests for config parsing, serialization and the built-in experiments."""

import importlib.util
import math
from pathlib import Path

import pytest

from gslms.cli import main
from gslms.config import (
    _EXP1_BASELINES,
    _EXP2_BASELINES,
    BUILTIN_EXPERIMENTS,
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    builtin_config,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from gslms.harness import experiment_schedule
from gslms.signals import AR1GaussianMixture, WhiteGaussian


# ---------------------------------------------------------------------------
# dataclass validation


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.runs == 100
    assert cfg.iterations == 24000
    assert experiment_schedule(cfg).L == 35
    assert cfg.group_size == 5
    assert isinstance(cfg.input, WhiteGaussian)


@pytest.mark.parametrize(
    "kw",
    [
        dict(runs=0),
        dict(iterations=-1),
        dict(epsilon=float("nan")),
        dict(group_size=0),
        dict(group_size=36),
        dict(epsilon=0.0),
        dict(epsilon=1e-320),
        dict(epsilon=float("inf")),
        dict(sigma_z2=-0.01),
        dict(format="xml"),
        dict(master_seed=-1),
    ],
)
def test_config_rejects_bad_fields(kw):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kw)


def test_config_rejects_duplicate_algorithm_names():
    spec = AlgorithmSpec(name="lms")
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithms=(spec, spec))


def test_algorithm_spec_validation():
    with pytest.raises(ConfigError):
        AlgorithmSpec(name="")
    with pytest.raises(ConfigError):
        AlgorithmSpec(name="x", mode="zippy")
    with pytest.raises(ConfigError):
        AlgorithmSpec(name="x", mu=-0.1)
    for bad in (dict(mu=math.nan), dict(mu=math.inf), dict(mode="gza", rho=math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            AlgorithmSpec(name="x", **bad)
    with pytest.raises(ConfigError):
        AlgorithmSpec(name="x", variable=True, gamma=1.0)
    with pytest.raises(ConfigError):
        AlgorithmSpec(name="x", variable=True, mu_max=0.0)
    AlgorithmSpec(name="x", variable=True)  # defaults are fine
    # fixed plain LMS never applies rho, but the config echo and its hash
    # would carry it
    with pytest.raises(ConfigError, match="plain LMS takes no rho"):
        AlgorithmSpec(name="x", mu=0.01, rho=0.5)
    AlgorithmSpec(name="x", mu=0.01, rho=0.0)
    AlgorithmSpec(name="x", mode="gza", mu=0.01, rho=0.5)


def test_sigma_u2_property():
    assert ExperimentConfig(input=WhiteGaussian(2.0)).sigma_u2 == 2.0
    assert ExperimentConfig(input=AR1GaussianMixture()).sigma_u2 == pytest.approx(4.0 / 3.0)


# ---------------------------------------------------------------------------
# parsing


def test_parse_empty_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_parse_full_experiment_section():
    cfg = parse_config(
        """
        [experiment]
        id = demo
        runs = 5
        iterations = 1000
        group_size = 4
        epsilon = 0.2
        noise_variance = 0.02
        input = white
        input_variance = 2.0
        master_seed = 99
        format = json

        [algorithm:fast]
        mode = grza
        mu = 0.05
        rho = 1e-4
        """
    )
    assert cfg.experiment == "demo"
    assert cfg.runs == 5
    assert cfg.input == WhiteGaussian(2.0)
    assert cfg.format == "json"
    assert cfg.algorithms == (
        AlgorithmSpec(name="fast", mode="grza", mu=0.05, rho=1e-4),
    )


def test_filter_length_key_rejected(tmp_path, capsys):
    """The filter length is the plants' (35), so the key is unknown: a value
    that cannot run is refused at parse time, and the CLI exits 2."""
    text = "[experiment]\nfilter_length = 16\n"
    with pytest.raises(ConfigError, match="unknown key.*filter_length"):
        parse_config(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "filter_length" in err
    assert not (tmp_path / "out").exists()


def test_parse_ar1_mixture_input():
    cfg = parse_config(
        """
        [experiment]
        input = ar1-mixture
        ar_alpha = 0.3
        ar_a = 2.0
        ar_sigma_v2 = 0.5
        """
    )
    assert cfg.input == AR1GaussianMixture(alpha=0.3, a=2.0, sigma_v2=0.5)


def test_parse_variable_algorithm():
    cfg = parse_config(
        """
        [algorithm:vp]
        mode = gza
        variable = yes
        gamma = 0.9
        gamma_prime = 0.8
        mu_max = 0.05
        """
    )
    (alg,) = cfg.algorithms
    assert alg.variable is True
    assert alg.gamma == 0.9
    assert alg.mu_max == 0.05


@pytest.mark.parametrize(
    "text",
    [
        "[experiment]\nrusn = 5\n",  # misspelled key
        "[simulation]\nruns = 5\n",  # unknown section
        "[algorithm:a]\nstep = 0.1\n",  # unknown algorithm key
        "[experiment]\ninput = pink\n",  # unknown input process
        "[experiment]\ninput = white\nar_alpha = 0.5\n",  # AR key on white input
        "[experiment]\ninput = ar1-mixture\ninput_variance = 1.0\n",  # white key on AR input
        "[algorithm:a]\nmode = nlms\n",  # unknown mode
        "[algorithm:a]\nvariable = yes\nmu = 0.1\n",  # fixed key on variable algorithm
        "[algorithm:a]\ngamma = 0.9\n",  # variable key on fixed algorithm
        "[experiment]\nruns = many\n",  # unparseable int
        "[algorithm:a]\nvariable = maybe\n",  # unparseable bool
        "not an ini file at all",  # malformed syntax
    ],
)
def test_parse_rejects_malformed_inputs(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize(
    "raw, expected",
    [("true", True), ("YES", True), ("1", True), ("on", True),
     ("false", False), ("No", False), ("0", False), ("off", False)],
)
def test_parse_bool_spellings(raw, expected):
    cfg = parse_config(f"[algorithm:a]\nvariable = {raw}\n")
    assert cfg.algorithms[0].variable is expected


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_load_config_round_trip(tmp_path):
    cfg = builtin_config("exp2")
    path = tmp_path / "exp2.ini"
    path.write_text(serialize_config(cfg))
    assert load_config(path) == cfg


# ---------------------------------------------------------------------------
# serialization and hashing


@pytest.mark.parametrize("name", BUILTIN_EXPERIMENTS)
def test_serialize_parse_round_trip(name):
    cfg = builtin_config(name)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_is_stable():
    cfg = builtin_config("exp1")
    assert serialize_config(cfg) == serialize_config(cfg)


@pytest.mark.parametrize(
    "name, digest", [("exp1", "bdd30dbc97ed9b9e"), ("exp2", "802ac97122d5776f")]
)
def test_builtin_config_hash_is_pinned(name, digest):
    """The serialised bytes of the built-ins, and so every emitted
    ``config_hash``, stay as they are."""
    assert config_hash(builtin_config(name)) == digest


@pytest.mark.parametrize("name", BUILTIN_EXPERIMENTS)
def test_shipped_ini_matches_builtin(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini"
    cfg = load_config(path)
    assert cfg == builtin_config(name)
    assert serialize_config(cfg) == serialize_config(builtin_config(name))


def test_config_hash_tracks_content():
    cfg = builtin_config("exp1")
    base = config_hash(cfg)
    assert base == config_hash(builtin_config("exp1"))
    assert len(base) == 16
    changed = ExperimentConfig(
        experiment=cfg.experiment,
        runs=cfg.runs + 1,
        input=cfg.input,
        algorithms=cfg.algorithms,
    )
    assert config_hash(changed) != base


def test_round_trip_preserves_float_precision():
    # repr-based serialization must survive an exact parse for every float
    cfg = builtin_config("exp1")
    again = parse_config(serialize_config(cfg))
    for a, b in zip(cfg.algorithms, again.algorithms):
        assert a.mu == b.mu
        assert a.rho == b.rho


# ---------------------------------------------------------------------------
# builtin experiments


def test_builtin_experiment_catalogue():
    assert BUILTIN_EXPERIMENTS == ("exp1", "exp2")
    with pytest.raises(ConfigError):
        builtin_config("exp3")


@pytest.mark.parametrize("name", BUILTIN_EXPERIMENTS)
def test_builtin_protocol_constants(name):
    cfg = builtin_config(name)
    assert cfg.runs == 100
    assert cfg.iterations == 24000
    assert experiment_schedule(cfg).L == 35
    assert cfg.group_size == 5
    assert cfg.epsilon == 0.1
    assert cfg.sigma_z2 == 0.01
    assert [a.name for a in cfg.algorithms] == ["lms", "gza", "grza", "vp-gza", "vp-grza"]
    fixed = [a for a in cfg.algorithms if not a.variable]
    assert all(a.mu > 0 for a in fixed)
    assert {a.name for a in cfg.algorithms if a.variable} == {"vp-gza", "vp-grza"}


def test_builtin_input_processes():
    assert builtin_config("exp1").input == WhiteGaussian(1.0)
    assert builtin_config("exp2").input == AR1GaussianMixture(
        alpha=0.5, a=1.5, sigma_v2=4.0 / 13.0
    )


def test_calibration_script_reproduces_frozen_baselines(capsys):
    """scripts/calibrate_baselines.py still derives the frozen fixed-parameter
    baselines bit for bit (exp2 runs on the AR(1) input)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_baselines.py"
    spec = importlib.util.spec_from_file_location("calibrate_baselines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.calibrate("exp1") == _EXP1_BASELINES
    assert script.calibrate("exp2") == _EXP2_BASELINES
    capsys.readouterr()
