"""Unit tests for the command-line front end's argument checks."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import gslms
from gslms.cli import main


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
    "experiment, message",
    [
        ("input_variance = 1e200\n",
         "non-finite moment estimates: MomentEstimates(g=inf, "),
        ("input_variance = 1e-300\nnoise_variance = 0\n",
         "normalization moment must be positive, got g=0.0"),
    ],
    ids=["moments-overflow", "zero-normalization"],
)
def test_model_error_exits_1_with_one_line(tmp_path, capsys, experiment, message):
    """A VP run whose transient model breaks ends in one ``error:`` line and
    exit 1 (a validation failure), not a traceback, and writes nothing."""
    path = tmp_path / "model.ini"
    path.write_text(f"[experiment]\nruns = 1\niterations = 50\n{experiment}\n"
                    "[algorithm:vp-gza]\nmode = gza\nvariable = true\n")
    out_dir = tmp_path / "out"
    rc, out, err = _rejected(capsys, ["run", str(path), "--output-dir", str(out_dir)])
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out_dir.exists()


_BOUNDARY_VALUES = ("0", "-1", "1e-320", "1e-150", "1e150", "1e308", "inf", "nan")
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
    runs, is rejected before any work, or fails validation: exit 0, 2 or 1,
    no exception and no numpy ``RuntimeWarning``; exit 2 leaves no output
    directory, and exit 0 a ``manifest.json`` that parses as strict JSON."""
    rc, out_dir, _ = _run_boundary_case(tmp_path, experiment, algorithms)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert not out_dir.exists()


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


def test_cli_import_loads_no_scipy():
    """The package is numpy-only: importing the CLI in a fresh interpreter
    pulls in no scipy module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gslms.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, gslms.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_diverging_validate_model_case_fails_without_traceback(capsys):
    """At mu = 10 the ensemble diverges: the per-member samples overflow,
    so their standard errors are not finite.  Validation reads only means,
    so the case ends in its FAIL verdict and exit 1, not a ValueError."""
    rc = main(["validate-model", "--mu", "10", "--horizon", "60", "--ensemble", "100"])
    out, _ = capsys.readouterr()
    assert rc == 1
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("  lms mu=10 rho=0: ")
    assert lines[0].endswith(" -> FAIL")


def test_diverging_validate_model_json_reports_nan_as_failed(capsys):
    """Over 400 steps the means themselves overflow; the deviation reads
    NaN, which is not within the tolerance."""
    rc = main(["validate-model", "--mu", "10", "--horizon", "400", "--ensemble", "50", "--json"])
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert rc == 1
    assert report["passed"] is False
    assert math.isnan(report["reports"][0]["max_rel_deviation"])
