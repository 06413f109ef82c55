"""invlap-bench: run the diffusion benchmark experiments or the pair suite.

Configuration comes from an optional key=value file plus command-line
overrides; the command line wins.  Exit status is 0 even when individual
method rows carry expected numerical-failure flags; nonzero is reserved
for configuration and solver errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness, oracles
from .core import METHODS, make_time_grid

#: Keys of a configuration file: the long options, with '_' for '-'.
#: A flag takes 'true' or 'false'.
_FLAGS = ("pairs", "gnuplot")
_VALUES = ("experiment", "methods", "terms", "times", "t_range", "mesh_density", "out")
#: The values that are integers.
_INTEGERS = ("terms", "times", "mesh_density")


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise harness.ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key in _FLAGS:
            if value not in ("true", "false"):
                raise harness.ConfigError(
                    f"{path}:{lineno}: {key} takes true or false, got {value!r}")
            value = value == "true"
        elif key in _INTEGERS:
            try:
                value = int(value)
            except ValueError:
                raise harness.ConfigError(
                    f"{path}:{lineno}: {key} takes an integer, got {value!r}") from None
        elif key not in _VALUES:
            raise harness.ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_t_range(text: str) -> tuple:
    try:
        lo, hi = (float(s) for s in text.split(":"))
    except ValueError as exc:
        raise harness.ConfigError(f"--t-range expects 'low:high', got {text!r}") from exc
    return lo, hi


def _experiment_config(options: dict) -> harness.ExperimentConfig:
    """The configuration of the options given; ExperimentConfig holds every
    default."""
    settings = {}
    if options.get("methods"):
        settings["methods"] = tuple(
            m.strip() for m in str(options["methods"]).split(",") if m.strip())
    if options.get("t_range"):
        settings["t_min"], settings["t_max"] = _parse_t_range(str(options["t_range"]))
    for key, field in (("times", "n_times"), ("terms", "terms"),
                       ("mesh_density", "n_per_unit")):
        if key in options:
            settings[field] = options[key]
    return harness.ExperimentConfig(experiment=str(options.get("experiment", "")), **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlap-bench",
        description="Inverse-Laplace benchmark driver (BEM experiments A-D "
                    "and the analytic-pair suite).")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--experiment", choices=sorted(harness.EXPERIMENT_DEFAULTS),
                        help="experiment id (A: steady/optimal-p, B: steady/shared-p, "
                             "C: sinusoid/shared-p, D: delayed-step/shared-p)")
    parser.add_argument("--pairs", action="store_true",
                        help="run the analytic-pair accuracy table instead of an experiment")
    parser.add_argument("--methods", help="comma-separated method list")
    parser.add_argument("--terms", type=int,
                        help="approximation terms per method (default: the experiment's, "
                             "or each method's harness.PAIR_TERMS order with --pairs)")
    parser.add_argument("--times", type=int, help="number of output times")
    parser.add_argument("--t-range", dest="t_range", help="time range as low:high")
    parser.add_argument("--mesh-density", dest="mesh_density", type=int,
                        help="boundary elements per unit length")
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--gnuplot", action="store_true",
                        help="also write whitespace-separated per-method files")
    return parser


def _merged_options(args) -> dict:
    options = _parse_config_file(args.config) if args.config else {}
    options.update({k: getattr(args, k) for k in _VALUES if getattr(args, k) is not None})
    options.update({k: True for k in _FLAGS if getattr(args, k)})
    return options


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = _merged_options(args)
        out_dir = Path(options.get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        config = _experiment_config(options)

        if options.get("pairs"):
            grid = make_time_grid(config.t_min, config.t_max, config.n_times, "logarithmic")
            rows = harness.run_pairs_benchmark(
                config.methods or METHODS, oracles.pair_catalog(),
                config.terms or None, grid)
            path = out_dir / "pairs.csv"
            with open(path, "w") as fh:
                harness.write_pairs_csv(rows, fh)
            print(f"wrote {path}")
            return 0

        if not config.experiment:
            raise harness.ConfigError("choose --experiment A|B|C|D or --pairs")
        result = harness.run_experiment(config)
        exp_path = out_dir / f"experiment_{config.experiment}.csv"
        with open(exp_path, "w") as fh:
            harness.write_experiment_csv(result, fh)
        summary_path = out_dir / "summary.csv"
        with open(summary_path, "w") as fh:
            harness.write_summary_csv(result.summary, fh)
        written = [exp_path, summary_path]
        if options.get("gnuplot"):
            written += harness.write_gnuplot(result, out_dir)
        for path in written:
            print(f"wrote {path}")
        return 0
    except (harness.ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
