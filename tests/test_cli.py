"""Unit tests for the command-line front end's argument checks."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gslms
from gslms.cli import main
from gslms.config import (
    _ALGORITHM_KEYS,
    _EXPERIMENT_KEYS,
    _INPUT_KEYS,
    _PARAM_KEYS,
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from gslms.oracles import _leaf_sums


def _rejected(capsys, argv):
    """Run the CLI; return its exit code, stdout and stderr."""
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_workers_below_one_rejected_before_running(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc, out, err = _rejected(
        capsys, ["paper-exp1", "--runs", "1", "--iterations", "10",
                 "--workers", "0", "--output-dir", str(out_dir)],
    )
    assert rc == 2
    assert out == ""
    assert err == "error: --workers must be at least 1, got 0\n"
    assert not out_dir.exists()


def _default_workers():
    return gslms.cli.build_parser().parse_args(["paper-exp1"]).workers


def test_workers_default_to_the_usable_cpus(monkeypatch):
    """The CPUs the process may run on where the OS says, otherwise the
    host's count, otherwise 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _default_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _default_workers() == 1


def test_validate_model_horizon_below_one_rejected(capsys):
    rc, out, err = _rejected(capsys, ["validate-model", "--horizon", "0"])
    assert rc == 2
    assert out == ""
    assert err == "error: --horizon must be at least 1, got 0\n"


def test_validate_model_ensemble_below_two_rejected(capsys):
    rc, out, err = _rejected(capsys, ["validate-model", "--ensemble", "1"])
    assert rc == 2
    assert out == ""
    assert err == "error: --ensemble must be at least 2, got 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate-model", "--sigma-z2", "-1"], "--sigma-z2 must be finite and non-negative, got -1.0"),
        (["validate-model", "--sigma-z2", "nan"], "--sigma-z2 must be finite and non-negative, got nan"),
        (["validate-model", "--mu", "-1"], "--mu must be finite and non-negative, got -1.0"),
        (["validate-model", "--mu", "inf"], "--mu must be finite and non-negative, got inf"),
        (["validate-model", "--rho", "-1"], "--rho must be finite and non-negative, got -1.0"),
        (["validate-model", "--rho", "nan"], "--rho must be finite and non-negative, got nan"),
        (["validate-model", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["paper-exp1", "--seed", "-1", "--runs", "1", "--iterations", "10"],
         "--seed must be at least 0, got -1"),
        # plain LMS has no attractor, so no update would ever apply this rho
        (["validate-model", "--mode", "lms", "--rho", "1e-4"],
         "--mode lms takes no --rho (only gza or grza), got 0.0001"),
    ],
)
def test_unrunnable_flag_rejected_before_running(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    if argv[0].startswith("paper-"):
        argv = argv + ["--output-dir", str(out_dir)]
    rc, out, err = _rejected(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


def _vp_config(experiment):
    return (f"[experiment]\nruns = 1\niterations = 10\n{experiment}\n"
            "[algorithm:vp-gza]\nmode = gza\nvariable = true\n")


def _fixed_config(algorithm):
    return f"[experiment]\nruns = 1\niterations = 50\n\n[algorithm:fixed]\n{algorithm}"


_AR1 = "input = ar1-mixture\n"


def _named_config(name, experiment=""):
    return (f"[experiment]\nruns = 1\niterations = 20\n{experiment}\n"
            f"[algorithm:{name}]\nmode = lms\nmu = 0.01\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[experiment]\nmaster_seed = -1\n\n[algorithm:lms]\nmu = 0.01\n",
         "master_seed must be non-negative, got -1"),
        ("[experiment]\nruns = 1\niterations = 10\n", "no [algorithm:NAME] section"),
        # values the input process or noise model cannot run with
        (_vp_config("input_variance = 0\n"), "input variance must be positive and finite, got 0.0"),
        (_vp_config("input_variance = -1\n"), "input variance must be positive and finite, got -1.0"),
        (_vp_config("input_variance = nan\n"), "input variance must be positive and finite, got nan"),
        (_vp_config("input_variance = inf\n"), "input variance must be positive and finite, got inf"),
        (_vp_config(_AR1 + "ar_alpha = 1.5\n"), "AR coefficient must satisfy |alpha| < 1, got 1.5"),
        (_vp_config(_AR1 + "ar_a = inf\n"), "mixture offset a must be finite, got inf"),
        (_vp_config(_AR1 + "ar_a = nan\n"), "mixture offset a must be finite, got nan"),
        (_vp_config(_AR1 + "ar_sigma_v2 = inf\n"),
         "innovation variance must be positive and finite, got inf"),
        # finite parameters whose stationary power (1 + a^2) sigma_v2 / (1 - alpha^2)
        # overflows
        (_vp_config(_AR1 + "ar_a = 1e200\n"),
         "stationary input power (1 + a^2) sigma_v2 / (1 - alpha^2) must be finite"),
        (_vp_config("noise_variance = inf\n"), "noise variance must be finite, got inf"),
        # values whose VP model terms g0 = sigma_z2 sigma_u2 L and
        # g1 = (2 + L) sigma_u2, or default mu_max = 2 / (3 sigma_u2 L), overflow
        (_vp_config("input_variance = 1e308\n"),
         "overflow the variable-parameter model (g0=3.5e+307, g1=inf)"),
        (_vp_config("noise_variance = 1e308\n"),
         "overflow the variable-parameter model (g0=inf, g1=37.0)"),
        (_vp_config("input_variance = 3e306\n"), "makes the default mu_max = 2/(3 sigma_u2 L) zero"),
        # fixed parameters that would only run into a NaN curve
        (_fixed_config("mu = nan\n"),
         "fixed mu and rho must be finite and nonnegative, got mu=nan, rho=0.0"),
        (_fixed_config("mu = inf\n"),
         "fixed mu and rho must be finite and nonnegative, got mu=inf, rho=0.0"),
        (_fixed_config("mode = gza\nmu = 0.01\nrho = nan\n"),
         "fixed mu and rho must be finite and nonnegative, got mu=0.01, rho=nan"),
        # a rho that plain LMS never applies, but that the config hash would see
        (_fixed_config("mode = lms\nmu = 0.01\nrho = 0.5\n"),
         "plain LMS takes no rho (only gza or grza), got rho=0.5"),
        # an epsilon whose GRZA weight 1 / epsilon overflows at a zero group
        ("[experiment]\nruns = 1\niterations = 50\nepsilon = 1e-320\n\n"
         "[algorithm:grza]\nmode = grza\nmu = 0.01\nrho = 1e-4\n",
         "epsilon must be positive with a finite 1/epsilon, got 1e-320"),
        ("[experiment]\nruns = 1\niterations = 50\nepsilon = inf\n\n"
         "[algorithm:grza]\nmode = grza\nmu = 0.01\nrho = 1e-4\n",
         "epsilon must be positive with a finite 1/epsilon, got inf"),
        # names that would put a curve file outside the output directory,
        # under a missing subdirectory, or over manifest.json
        (_named_config("/escaped"), "algorithm name '/escaped' cannot name a curve file"),
        (_named_config("../up"), "algorithm name '../up' cannot name a curve file"),
        (_named_config("manifest", "format = json\n"),
         "algorithm name 'manifest' cannot name a curve file"),
        (_named_config("a/b"), "algorithm name 'a/b' cannot name a curve file"),
    ],
    ids=["negative-master-seed", "no-algorithm-section", "zero-input-variance",
         "negative-input-variance", "nan-input-variance", "inf-input-variance",
         "ar-alpha-above-one", "inf-ar-a", "nan-ar-a", "inf-ar-sigma-v2", "overflowing-ar-power",
         "inf-noise-variance", "overflowing-model-g1", "overflowing-model-g0",
         "zero-default-mu-max",
         "nan-fixed-mu", "inf-fixed-mu", "nan-fixed-rho", "rho-on-fixed-lms", "tiny-epsilon",
         "inf-epsilon", "absolute-name", "parent-dir-name", "manifest-name", "nested-name"],
)
def test_unrunnable_config_file_rejected_before_running(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out_dir = tmp_path / "out"
    rc, out, err = _rejected(capsys, ["run", str(path), "--output-dir", str(out_dir)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "experiment, fixed_diverged",
    [("input_variance = 1e200\n", [[0, 0], [1, 0]]),
     ("input_variance = 1e-300\nnoise_variance = 0\n", [])],
    ids=["moments-overflow", "zero-normalization"],
)
def test_broken_vp_model_is_a_contained_divergence(tmp_path, capsys, experiment, fixed_diverged):
    """A VP row whose transient model breaks (the moments overflow, or the
    normalization underflows to 0) diverges at that step, not the command:
    exit 0, nothing on stderr, and a strict-JSON manifest that lists each
    of the VP row's runs as diverged at iteration 0.  The fixed row's curve
    file is byte for byte the one the same config writes without the VP row
    (at 1e200 the input itself overflows, so the fixed row diverges too)."""
    (tmp_path / "both").mkdir()
    (tmp_path / "fixed").mkdir()
    rc, both_dir, manifest = _run_boundary_case(tmp_path / "both", experiment, _GRID_ROWS)
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert "vp-grza: stage1 nan dB  [2 diverged]" in out
    diverged = {curve["algorithm"]: curve["diverged"] for curve in manifest["curves"]}
    assert diverged == {"gza": fixed_diverged, "vp-grza": [[0, 0], [1, 0]]}
    rc, fixed_dir, _ = _run_boundary_case(tmp_path / "fixed", experiment, _FIXED_ROW)
    assert rc == 0
    assert (both_dir / "gza.csv").read_bytes() == (fixed_dir / "gza.csv").read_bytes()


_BOUNDARY_VALUES = ("0", "-1", "1e-320", "1e-150", "1e150", "1e155", "1e200", "1e250",
                    "1e308", "inf", "nan")
_FIXED_ROW = "[algorithm:gza]\nmode = gza\nmu = 0.02\nrho = 2e-4\n"
_GRID_ROWS = _FIXED_ROW + "\n[algorithm:vp-grza]\nmode = grza\nvariable = true\n"
# (id, [experiment] lines, algorithm sections): one key set per case
_BOUNDARY_CASES = (
    [(f"{key}={value}", f"{key} = {value}\n", _GRID_ROWS)
     for key in ("input_variance", "noise_variance", "epsilon") for value in _BOUNDARY_VALUES]
    + [(f"{key}={value}", f"{_AR1}{key} = {value}\n", _GRID_ROWS)
       for key in ("ar_alpha", "ar_a", "ar_sigma_v2")
       for value in _BOUNDARY_VALUES + ("0.999999",)]
    + [("fixed-only-input_variance=1e308", "input_variance = 1e308\n", _FIXED_ROW)]
)


def _reject_constant(name):
    raise ValueError(f"manifest.json holds {name}, which is not JSON")


def _run_boundary_case(tmp_path, experiment, algorithms):
    """``gslms run`` on the case with numpy warnings raised as errors;
    returns its exit code, its output directory and, on exit 0, its
    manifest, which must parse as strict JSON (else None)."""
    path = tmp_path / "edge.ini"
    path.write_text(f"[experiment]\n{experiment}\n{algorithms}")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["run", str(path), "--runs", "2", "--iterations", "300",
                   "--output-dir", str(out_dir)])
    manifest = None
    if rc == 0:
        with open(out_dir / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh, parse_constant=_reject_constant)
    return rc, out_dir, manifest


@pytest.mark.parametrize("experiment, algorithms", [case[1:] for case in _BOUNDARY_CASES],
                         ids=[case[0] for case in _BOUNDARY_CASES])
def test_boundary_values_run_or_are_rejected_before_any_work(tmp_path, experiment, algorithms):
    """Each input or noise key at a boundary value (with a fixed and a VP row)
    runs or is rejected before any work: exit 0 or 2, no exception and no
    numpy ``RuntimeWarning``; exit 2 leaves no output directory, and exit 0
    a ``manifest.json`` that parses as strict JSON.  A VP model that breaks
    mid-run is a diverged row, not a failed command."""
    rc, out_dir, _ = _run_boundary_case(tmp_path, experiment, algorithms)
    assert rc in (0, 2)
    if rc == 2:
        assert not out_dir.exists()


_GENERATED_VALUES = _BOUNDARY_VALUES + ("0.999999",)


def _numeric_rows(owner, rows):
    """``(key, default text)`` of each number-valued row of a key table;
    the text is None where the default is None."""
    return [(key, None if getattr(owner, name) is None else repr(getattr(owner, name)))
            for key, name, conv in rows if conv in (int, float)]


@st.composite
def _generated_ini(draw):
    """The ``[experiment]`` lines and the algorithm sections of an INI file
    written from the parser's own key tables: an input kind, a fixed and a
    variable algorithm row with drawn modes, and a few of the number keys of
    those sections, each at its default or at a boundary value."""
    kind = draw(st.sampled_from(sorted(_INPUT_KEYS)))
    process, _, input_rows = _INPUT_KEYS[kind]
    lines = {"experiment": [f"input = {kind}"]}
    keys = [("experiment", row) for row in (_numeric_rows(ExperimentConfig, _EXPERIMENT_KEYS)
                                            + _numeric_rows(process, input_rows))]
    for name, variable in (("fixed", False), ("vp", True)):
        section = f"algorithm:{name}"
        mode = draw(st.sampled_from(sorted(_ALGORITHM_KEYS[0][2])))
        lines[section] = [f"mode = {mode}", f"variable = {str(variable).lower()}"]
        keys += [(section, row) for row in _numeric_rows(AlgorithmSpec, _PARAM_KEYS[variable][0])]
    for section, (key, default) in draw(st.lists(st.sampled_from(keys), min_size=1,
                                                 max_size=4, unique=True)):
        value = draw(st.sampled_from((default,) + _GENERATED_VALUES))
        if value is not None:
            lines[section].append(f"{key} = {value}")
    experiment = "".join(f"{row}\n" for row in lines.pop("experiment"))
    return experiment, "\n".join(f"[{section}]\n" + "".join(f"{row}\n" for row in rows)
                                  for section, rows in lines.items())


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(case=_generated_ini())
def test_generated_ini_runs_or_is_rejected_before_any_work(case):
    """INI files written from the key tables, several keys at a time at
    their defaults or boundary values, obey the rules of the boundary grid
    above: exit 0 or 2, no exception and no numpy ``RuntimeWarning``, no
    output directory on exit 2, and a strictly JSON manifest on exit 0.
    Every config that parses round-trips through ``serialize_config``."""
    with tempfile.TemporaryDirectory() as tmp:
        rc, out_dir, _ = _run_boundary_case(pathlib.Path(tmp), *case)
        assert rc in (0, 2)
        if rc == 2:
            assert not out_dir.exists()
    try:
        cfg = parse_config("[experiment]\n{}\n{}".format(*case))
    except ConfigError:
        return
    assert parse_config(serialize_config(cfg)) == cfg


def test_overflowing_input_power_is_written_as_null(tmp_path):
    """``input_variance = 1e308`` with fixed rows only runs: every run
    diverges, and the manifest writes the runs' infinite input power as
    null."""
    rc, _, manifest = _run_boundary_case(tmp_path, "input_variance = 1e308\n", _FIXED_ROW)
    assert rc == 0
    assert manifest["measured_input_power"] is None
    assert manifest["curves"][0]["runs_used"] == 0


def test_zero_iterations_run_prints_empty_stage_lines(tmp_path, capsys):
    """At 0 iterations every curve is empty, so no stage has a steady state:
    each algorithm's line lists no stage, and the run exits 0."""
    out_dir = tmp_path / "out"
    rc, out, err = _rejected(capsys, ["paper-exp1", "--runs", "1", "--iterations", "0",
                                      "--output-dir", str(out_dir)])
    assert rc == 0
    assert err == ""
    assert out == ("experiment exp1: 1 runs x 0 iterations\n"
                   + "".join(f"  {name:>10}: \n"
                             for name in ("lms", "gza", "grza", "vp-gza", "vp-grza"))
                   + f"wrote 7 files to {out_dir}\n")


def test_run_blocks_give_identical_files_for_any_worker_count(tmp_path, capsys):
    """45 runs make three blocks of 15; one, two or three workers (so up to
    one process per block) write the same bytes."""
    outputs = {}
    for workers in (1, 2, 3):
        out_dir = tmp_path / f"workers{workers}"
        assert main(["paper-exp2", "--runs", "45", "--iterations", "500",
                     "--workers", str(workers), "--output-dir", str(out_dir)]) == 0
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    capsys.readouterr()
    assert len(outputs[1]) == 7
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_validate_model_tol_not_finite_positive_rejected(capsys, tol):
    rc, out, err = _rejected(capsys, ["validate-model", "--tol", tol])
    assert rc == 2
    assert out == ""
    assert err == f"error: --tol must be finite and positive, got {float(tol)}\n"


def _child_env(**extra):
    """The environment of a child interpreter that imports this ``gslms``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gslms.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **extra)


def test_cli_import_loads_no_scipy():
    """The package is numpy-only: importing the CLI in a fresh interpreter
    pulls in no scipy module."""
    code = ("import sys, gslms.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _two_cpus(monkeypatch):
    """Make the usable CPUs, and so validate-model's workers, two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_diverging_validate_model_case_fails_without_traceback(monkeypatch, capfd):
    """At mu = 10 the ensemble diverges: the per-member samples overflow,
    so their standard errors are not finite.  Validation reads only means,
    so the case ends in its FAIL verdict and exit 1, not a ValueError, with
    nothing on stderr: on one leaf, and on 3 leaves over 2 worker processes,
    which each silence their own overflows."""
    _two_cpus(monkeypatch)
    for ensemble in ("100", "2100"):
        rc = main(["validate-model", "--mu", "10", "--horizon", "60", "--ensemble", ensemble])
        out, err = capfd.readouterr()
        assert rc == 1
        assert err == "", ensemble
        lines = out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("  lms mu=10 rho=0: ")
        assert lines[0].endswith(" -> FAIL")


def test_diverging_validate_model_json_reports_nan_as_failed(monkeypatch, capfd):
    """Over 400 steps the means themselves overflow; the deviation reads
    NaN, which is not within the tolerance.  So on one leaf and on 3 leaves
    over 2 worker processes, with nothing on stderr.  JSON has no NaN or
    infinity, so the report is strict JSON with null in their place."""
    _two_cpus(monkeypatch)

    def not_json(token):
        raise ValueError(f"not JSON: {token}")

    for ensemble in ("50", "2100"):
        rc = main(["validate-model", "--mu", "10", "--horizon", "400", "--ensemble", ensemble,
                   "--json"])
        out, err = capfd.readouterr()
        report = json.loads(out, parse_constant=not_json)
        assert rc == 1
        assert err == "", ensemble
        assert report["passed"] is False
        assert report["reports"][0]["max_rel_deviation"] is None
        assert None in report["reports"][0]["rel_deviation"]


def test_validate_model_json_is_the_same_on_any_worker_count(monkeypatch, capsys):
    """2100 members make 3 leaves, run in-process on 1 CPU and on pools of
    2 and 3 worker processes: the same ``--json`` bytes each time."""
    outputs = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        assert main(["validate-model", "--horizon", "20", "--ensemble", "2100", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["reports"][1]["ensemble"] == 2100


def _leaf_out_of_memory(task):
    """The leaf worker, except that the second leaf cannot allocate."""
    if task[1][0] == 1:
        np.empty((2**30, 2**20))  # 8 PiB: refused before any page is touched
    return _leaf_sums(task)


def test_a_worker_error_exits_1_with_one_line(monkeypatch, capfd):
    """A MemoryError in a worker process reaches main, which prints numpy's
    message as one ``error:`` line and exits 1, with no traceback and no
    report."""
    _two_cpus(monkeypatch)
    monkeypatch.setattr(gslms.oracles, "_leaf_sums", _leaf_out_of_memory)
    rc = main(["validate-model", "--horizon", "3", "--ensemble", "2100"])
    out, err = capfd.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("error: Unable to allocate 8.00 PiB") and err.count("\n") == 1


def test_validate_model_workers_resolve_to_the_usable_cpus(monkeypatch, capsys):
    """validate-model runs its leaves on the CPUs the process may run on,
    as ``--workers`` defaults to, otherwise on the host's count."""
    seen, validate = [], gslms.cli.validate_model_recursion

    def recorded(*args, workers):
        seen.append(workers)
        return validate(*args, workers=1)

    monkeypatch.setattr(gslms.cli, "validate_model_recursion", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    main(["validate-model", "--horizon", "2", "--ensemble", "10"])
    monkeypatch.delattr(os, "sched_getaffinity")
    main(["validate-model", "--horizon", "2", "--ensemble", "10", "--mu", "0.01"])
    assert capsys.readouterr().out.count(" -> ") == 3
    assert seen == [3, 3, 8]


HUGE_COUNTS = {"2p31": 2**31, "1e12": 10**12, "1e15": 10**15}
HUGE_COUNT_ARGV = {
    "iterations": ["paper-exp1", "--runs", "2", "--iterations", "{}"],
    "horizon": ["validate-model", "--ensemble", "100", "--horizon", "{}"],
}


@pytest.mark.parametrize(
    "argv",
    [pytest.param([arg.format(count) for arg in argv], id=f"{key}-{tag}")
     for key, argv in HUGE_COUNT_ARGV.items() for tag, count in HUGE_COUNTS.items()]
    + [pytest.param(["paper-exp1", "--runs", "2", "--iterations", str(3 * 10**9)],
                    id="iterations-3e9")],
)
def test_memory_exhaustion_exits_1_with_one_line(tmp_path, argv):
    """A count whose arrays cannot be held ends in one ``error:`` line and
    exit 1, not a traceback, and writes no output directory; a bare
    ``MemoryError`` (no message of its own) reads "out of memory".  Each
    count key takes 2**31, 10**12 and 10**15 (a huge ensemble runs, see
    below).  The command runs in a child
    interpreter whose address space is capped at 1 GiB before ``gslms`` is
    imported, so nothing is allocated here.  A huge horizon fails in the
    caller's ``(5, horizon)`` sums, before the first leaf runs."""
    pytest.importorskip("resource")
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "from gslms.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          env=_child_env(OPENBLAS_NUM_THREADS="1", GSLMS_OUTPUT_DIR="out"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "out of memory" in proc.stderr or "Unable to allocate" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_huge_run_count_starts_without_listing_its_blocks():
    """``runs = 10**12`` makes 5 * 10**10 blocks, made as they are handed
    out: the third block reaches ``_run_block`` within 10 s under a 1 GiB
    address-space cap, where listing them first had not ended by then; so
    do 2**31 and 10**15 runs.  The child interpreter stops at a marker
    raised by that third call, so nothing is allocated here."""
    pytest.importorskip("resource")
    code = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        from dataclasses import replace
        import gslms.harness as harness
        from gslms.config import builtin_config

        class Marker(Exception):
            pass

        run_block, seen = harness._run_block, []

        def third_raises(task):
            seen.append(task[1])
            if len(seen) == 3:
                raise Marker
            return run_block(task)

        harness._run_block = third_raises
        cfg = replace(builtin_config("exp1"), runs=int(sys.argv[1]), iterations=10)
        try:
            harness.run_experiment(cfg, workers=1)
        except Marker:
            print("marker", seen)
    """)
    for runs in HUGE_COUNTS.values():
        proc = subprocess.run([sys.executable, "-c", code, str(runs)],
                              env=_child_env(OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, (runs, proc.stderr)
        assert proc.stdout == "marker [(0, 0, 20), (1, 20, 20), (2, 40, 20)]\n", runs


@pytest.mark.parametrize("ensemble", HUGE_COUNTS.values(), ids=HUGE_COUNTS.keys())
def test_huge_ensemble_starts_without_listing_its_leaves(ensemble):
    """A huge validation ensemble makes its leaves of 1024 members as they
    are handed out, and no array grows with the ensemble: the third leaf
    reaches ``_leaf_sums`` within 10 s under a 1 GiB address-space cap.
    The child interpreter stops at a marker raised by that third call, so
    nothing is allocated here."""
    pytest.importorskip("resource")
    code = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        import gslms.oracles as oracles
        from gslms.filters import FilterConfig
        from gslms.groups import AttractorMode, GroupPartition
        from gslms.signals import WhiteGaussian, benchmark_plants

        class Marker(Exception):
            pass

        leaf_sums, seen = oracles._leaf_sums, []

        def third_raises(task):
            seen.append(task[1])
            if len(seen) == 3:
                raise Marker
            return leaf_sums(task)

        oracles._leaf_sums = third_raises
        cfg = FilterConfig(35, GroupPartition.contiguous(35, 5), AttractorMode("grza", 0.1),
                           mu=0.005, rho=1e-4)
        try:
            oracles.validate_model_recursion(benchmark_plants()[0], WhiteGaussian(1.0), cfg,
                                             0.01, 5, int(sys.argv[1]), 12345, workers=1)
        except Marker:
            print("marker", seen)
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(ensemble)],
                          env=_child_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "marker [(0, 0, 1024), (1, 1024, 1024), (2, 2048, 1024)]\n"
