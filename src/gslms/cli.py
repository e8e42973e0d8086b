"""Command-line interface.

Subcommands:

* ``run CONFIG`` — execute an experiment described by a config file.
* ``paper-exp1`` / ``paper-exp2`` — the two built-in benchmark experiments.
* ``validate-model`` — Monte-Carlo check of the transient-MSD recursion.
* ``show-config`` — print a fully resolved config (builtin or from a file).

Shared flags override config values; the output directory resolves as
flag > config > $GSLMS_OUTPUT_DIR > ./results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .config import (
    BUILTIN_EXPERIMENTS, ConfigError, ExperimentConfig, builtin_config, load_config,
    serialize_config,
)
from .filters import FilterConfig
from .groups import AttractorMode, GroupPartition
from .harness import emit_curves, experiment_schedule, run_experiment, steady_state_db
from .oracles import validate_model_recursion
from .signals import WhiteGaussian, benchmark_plants

OUTPUT_DIR_ENV = "GSLMS_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "results"


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the host's where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _add_override_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--runs", type=int, help="override the number of Monte-Carlo runs")
    sub.add_argument("--iterations", type=int, help="override the iteration count")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--workers", type=int, default=_usable_cpus(),
                     help="worker processes (default: the usable CPUs, %(default)s here)")
    sub.add_argument("--output-dir", help="directory for result files")
    sub.add_argument("--format", choices=("csv", "json"), help="curve file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gslms",
        description="Group-sparse LMS adaptive-filter simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to an experiment config file")
    _add_override_flags(p_run)

    for name in BUILTIN_EXPERIMENTS:
        p = subs.add_parser(f"paper-{name}", help=f"run the built-in {name} benchmark")
        _add_override_flags(p)

    p_val = subs.add_parser(
        "validate-model",
        help="compare the transient-MSD model against a Monte-Carlo ensemble",
    )
    p_val.add_argument("--mode", choices=("lms", "gza", "grza"), help="attractor mode for a custom case")
    p_val.add_argument("--mu", type=float, help="fixed step size for a custom case")
    p_val.add_argument("--rho", type=float, help="fixed shrinkage for a custom case")
    p_val.add_argument("--horizon", type=int, default=50)
    p_val.add_argument("--ensemble", type=int, default=5000)
    p_val.add_argument("--seed", type=int, default=12345)
    p_val.add_argument("--sigma-z2", type=float, default=ExperimentConfig.sigma_z2)
    p_val.add_argument("--tol", type=float, default=0.05, help="pass/fail threshold on max relative deviation")
    p_val.add_argument("--json", action="store_true", help="emit the full report as JSON")

    p_show = subs.add_parser("show-config", help="print a fully resolved config")
    p_show.add_argument("config", nargs="?", help="config file to resolve (default: builtin)")
    p_show.add_argument(
        "--experiment", choices=BUILTIN_EXPERIMENTS, default="exp1",
        help="builtin experiment to show when no file is given",
    )
    return parser


def _apply_overrides(cfg, args):
    flags = (("runs", args.runs), ("iterations", args.iterations),
             ("master_seed", args.seed), ("format", args.format))
    return replace(cfg, **{name: value for name, value in flags if value is not None})


def _resolve_output_dir(cfg, args) -> str:
    # The destination is a runtime choice, not part of the experiment
    # identity: the flag never enters the emitted config echo or its hash.
    if args.output_dir:
        return args.output_dir
    if cfg.output_dir:
        return cfg.output_dir
    return os.environ.get(OUTPUT_DIR_ENV) or DEFAULT_OUTPUT_DIR


def _cmd_experiment(cfg, args) -> int:
    cfg = _apply_overrides(cfg, args)
    if not cfg.algorithms:
        raise ConfigError("the config has no [algorithm:NAME] section, so there is nothing to run")
    curves = run_experiment(cfg, workers=args.workers)
    out_dir = _resolve_output_dir(cfg, args)
    paths = emit_curves(curves, cfg, out_dir)
    schedule = experiment_schedule(cfg)
    print(f"experiment {cfg.experiment}: {cfg.runs} runs x {cfg.iterations} iterations")
    for curve in curves:
        stages = steady_state_db(curve.msd, schedule)
        stage_txt = "  ".join(f"stage{k+1} {v:.2f} dB" for k, v in enumerate(stages))
        diverged = curve.metadata["diverged_runs"]
        divergence = f"  [{diverged} diverged]" if diverged else ""
        print(f"  {curve.name:>10}: {stage_txt}{divergence}")
    print(f"wrote {len(paths)} files to {out_dir}")
    return 0


def _cmd_validate(args) -> int:
    plant = benchmark_plants()[0]
    partition = GroupPartition.contiguous(plant.shape[0], ExperimentConfig.group_size)
    custom = args.mode is not None or args.mu is not None or args.rho is not None
    if custom:
        mode_tag = args.mode if args.mode is not None else ("grza" if args.rho else "lms")
        cases = [(mode_tag, args.mu if args.mu is not None else 0.005,
                  args.rho if args.rho is not None else 0.0)]
    else:
        cases = [("lms", 0.005, 0.0), ("grza", 0.005, 1e-4)]
    reports, workers = [], _usable_cpus()
    for mode_tag, mu, rho in cases:
        mode = None if mode_tag == "lms" else AttractorMode(mode_tag, ExperimentConfig.epsilon)
        cfg = FilterConfig(plant.shape[0], partition, mode, mu=mu, rho=rho)
        reports.append(validate_model_recursion(
            plant, WhiteGaussian(1.0), cfg, args.sigma_z2,
            args.horizon, args.ensemble, args.seed, workers=workers,
        ))
    ok = all(r.max_rel_deviation <= args.tol for r in reports)
    if args.json:
        print(json.dumps({
            "tolerance": args.tol,
            "passed": ok,
            "reports": [r.to_dict() for r in reports],
        }, indent=2, sort_keys=True, allow_nan=False))
    else:
        for r in reports:
            verdict = "pass" if r.max_rel_deviation <= args.tol else "FAIL"
            print(
                f"{r.mode:>5} mu={r.mu:g} rho={r.rho:g}: "
                f"max relative deviation {r.max_rel_deviation:.4%} over "
                f"{r.horizon} steps, ensemble {r.ensemble} -> {verdict}"
            )
    return 0 if ok else 1


def _check_flags(args) -> None:
    """Reject a flag value the command cannot run with, before any work
    starts: a count or seed below its least value, a noise variance,
    step size or shrinkage that is negative or not finite, a tolerance
    that is not finite and positive, or a shrinkage for plain LMS."""
    for name, least in (("workers", 1), ("horizon", 1), ("ensemble", 2), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ConfigError(f"--{name} must be at least {least}, got {value}")
    for name in ("sigma_z2", "mu", "rho"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value >= 0):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be finite and non-negative, got {value}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {tol}")
    if getattr(args, "mode", None) == "lms" and args.rho:
        raise ConfigError(f"--mode lms takes no --rho (only gza or grza), got {args.rho}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        if args.command == "run":
            return _cmd_experiment(load_config(args.config), args)
        if args.command.startswith("paper-"):
            return _cmd_experiment(builtin_config(args.command[len("paper-"):]), args)
        if args.command == "validate-model":
            return _cmd_validate(args)
        if args.command == "show-config":
            cfg = load_config(args.config) if args.config else builtin_config(args.experiment)
            sys.stdout.write(serialize_config(cfg))
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        # A bare MemoryError has no message; numpy's names the allocation.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
