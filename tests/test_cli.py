"""Unit tests for the command-line front end's argument checks."""

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
