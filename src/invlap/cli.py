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


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise harness.ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _parse_t_range(text: str) -> tuple:
    try:
        lo, hi = (float(s) for s in text.split(":"))
    except ValueError as exc:
        raise harness.ConfigError(f"--t-range expects 'low:high', got {text!r}") from exc
    return lo, hi


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
    options: dict = {}
    if args.config:
        options.update(_parse_config_file(args.config))
    cli = {
        "experiment": args.experiment,
        "pairs": args.pairs or None,
        "methods": args.methods,
        "terms": args.terms,
        "times": args.times,
        "t_range": args.t_range,
        "mesh_density": args.mesh_density,
        "out": args.out,
        "gnuplot": args.gnuplot or None,
    }
    options.update({k: v for k, v in cli.items() if v is not None})
    return options


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = _merged_options(args)
        out_dir = Path(options.get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        methods = None
        if options.get("methods"):
            methods = tuple(m.strip() for m in str(options["methods"]).split(",") if m.strip())
        t_lo, t_hi = 0.01, 10.0
        if options.get("t_range"):
            t_lo, t_hi = _parse_t_range(str(options["t_range"]))
        n_times = int(options.get("times", 15))
        terms = int(options.get("terms", 0))

        if options.get("pairs"):
            grid = make_time_grid(t_lo, t_hi, n_times, "logarithmic")
            rows = harness.run_pairs_benchmark(
                methods or METHODS, oracles.pair_catalog(),
                terms or None, grid)
            path = out_dir / "pairs.csv"
            with open(path, "w") as fh:
                harness.write_pairs_csv(rows, fh)
            print(f"wrote {path}")
            return 0

        if not options.get("experiment"):
            raise harness.ConfigError("choose --experiment A|B|C|D or --pairs")
        config = harness.ExperimentConfig(
            experiment=str(options["experiment"]),
            methods=methods or (),
            terms=terms,
            n_times=n_times,
            t_min=t_lo,
            t_max=t_hi,
            n_per_unit=int(options.get("mesh_density", 8)),
        )
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
