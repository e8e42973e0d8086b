"""Unit tests for config parsing, serialization and the built-in experiments."""

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gslms.cli import main
from gslms.config import (
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
        # text that its INI line would not carry back as itself
        dict(experiment=""),
        dict(experiment=" exp1 "),
        dict(experiment="exp\n1"),
        dict(experiment="exp1\r"),
        dict(output_dir="out "),
        dict(output_dir="a\u2028b"),
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
    # a name must come back from its [algorithm:NAME] line and name a curve
    # file inside the output directory other than manifest.json
    for name in ("", "a\nb", " lms", "lms ", "x\x85", "a/b", "../up", "/abs", "manifest"):
        with pytest.raises(ConfigError):
            AlgorithmSpec(name=name)
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


def test_algorithm_spec_rejects_the_other_kinds_fields():
    """A field the row's kind never uses would be dropped by
    ``serialize_config`` yet change ``config_hash``, so it is rejected."""
    with pytest.raises(ConfigError, match="fixed mu/rho do not apply"):
        AlgorithmSpec(name="v", mode="gza", variable=True, mu=0.5, rho=3.0)
    for bad in (dict(gamma=0.9), dict(gamma_prime=0.5), dict(mu_max=0.01)):
        with pytest.raises(ConfigError, match="smoothing keys apply only"):
            AlgorithmSpec(name="f", mode="gza", mu=0.01, rho=1e-4, **bad)
    spec = AlgorithmSpec(name="v", mode="gza", variable=True, gamma=0.9, mu_max=0.01)
    cfg = ExperimentConfig(algorithms=(spec, AlgorithmSpec(name="f", mu=0.01)))
    assert parse_config(serialize_config(cfg)) == cfg


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


_TEXT = st.text(max_size=6)


@st.composite
def _algorithm_specs(draw, name):
    mode = draw(st.sampled_from([None, "gza", "grza"]))
    if draw(st.booleans()):
        return AlgorithmSpec(
            name=name, mode=mode, variable=True,
            gamma=draw(st.floats(0.0, 1.0, exclude_max=True)),
            gamma_prime=draw(st.floats(0.0, 1.0, exclude_max=True)),
            mu_max=draw(st.none() | st.floats(0.0, 10.0, exclude_min=True)),
        )
    rho = draw(st.floats(0.0, 1.0)) if mode else 0.0
    return AlgorithmSpec(name=name, mode=mode, mu=draw(st.floats(0.0, 1.0)), rho=rho)


@st.composite
def _api_configs(draw):
    """An ``ExperimentConfig`` built through the API from any text and any
    in-range numbers; a combination the dataclasses refuse is skipped."""
    try:
        names = draw(st.lists(_TEXT, max_size=3, unique=True))
        input_process = draw(st.one_of(
            st.builds(WhiteGaussian, st.floats(1e-6, 1e6)),
            st.builds(AR1GaussianMixture, st.floats(-0.99, 0.99), st.floats(-10.0, 10.0),
                      st.floats(1e-6, 10.0)),
        ))
        return ExperimentConfig(
            experiment=draw(_TEXT), runs=draw(st.integers(1, 10**6)),
            iterations=draw(st.integers(0, 10**6)), group_size=draw(st.integers(1, 35)),
            epsilon=draw(st.floats(1e-300, 1e300)), sigma_z2=draw(st.floats(0.0, 1e6)),
            input=input_process, master_seed=draw(st.integers(0, 2**64)),
            output_dir=draw(_TEXT), format=draw(st.sampled_from(["csv", "json"])),
            algorithms=tuple(draw(_algorithm_specs(name)) for name in names),
        )
    except ConfigError:
        reject()


@settings(deadline=None, max_examples=60)
@given(cfg=_api_configs())
def test_api_config_round_trips_through_its_ini_text(cfg):
    """Every config the API accepts serialises to text that parses back to
    it, so the ``config.ini`` a run writes reruns that run."""
    assert parse_config(serialize_config(cfg)) == cfg


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
    """scripts/calibrate_baselines.py still derives the fixed-parameter
    baselines frozen in the built-in INI files bit for bit (exp2 runs on the
    AR(1) input)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_baselines.py"
    spec = importlib.util.spec_from_file_location("calibrate_baselines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for name in BUILTIN_EXPERIMENTS:
        rows = {a.name: a for a in builtin_config(name).algorithms}
        assert script.calibrate(name) == {
            "lms_mu": rows["lms"].mu, "gza_mu": rows["gza"].mu, "gza_rho": rows["gza"].rho,
            "grza_mu": rows["grza"].mu, "grza_rho": rows["grza"].rho}
    capsys.readouterr()
