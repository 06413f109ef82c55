"""One benchmark process: set up, then run one sweep (or stop after set-up).

Run by ``run.py`` from the root of a checkout; prints one JSON record as
its last line.  ``t_ready`` is the ``time.monotonic()`` reading when
set-up ends, which the parent compares with the moment it started the
process, so set-up includes interpreter start and ``import invlap``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: The Talbot contour evaluates exp(-0.08 p)/p where exp overflows; the
#: resulting values are flagged by the inverter, so these warnings from
#: the closed-form images are expected outcomes, not failures.
warnings.filterwarnings("ignore", category=RuntimeWarning, module="invlap.oracles")

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(workload: str, variant: int, mini: bool) -> dict:
    with open(EXPECTED) as fh:
        table = json.load(fh)
    return table[workload + ("-mini" if mini else "")][str(variant)]


def run_once(inputs, traced: bool, spans_path: str = ""):
    """Time one sweep; returns (wall seconds, rows, layer metrics or None)."""
    tracer = None
    if traced:
        tracer = tracing.Tracer(workloads.WORKLOADS[inputs.workload].kind)
        tracer.install()
    try:
        start = time.perf_counter()
        rows = workloads.run_sweep(inputs)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = None
    if tracer is not None:
        if not tracer.restored():
            raise RuntimeError("traced wrappers were not restored")
        layers = tracing.layer_metrics(tracer, wall)
        if spans_path:
            tracer.dump(spans_path, {"wall_s": wall})
        layers["missing"] = tracer.missing
    return wall, rows, layers


def summarize(rows, expected) -> dict:
    attempted, failures, ratios = checks.check_rows(rows, expected)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "image_calls": sum(r.measured for r in rows),
        "err_ratio": statistics.median(ratios) if ratios else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--mini", action="store_true")
    parser.add_argument("--spans", default="", help="write the traced spans here")
    args = parser.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed, args.mini)
    record = {"t_ready": time.monotonic(), "variant": inputs.variant}
    if args.mode != "setup":
        wall, rows, layers = run_once(inputs, args.mode == "traced", args.spans)
        record.update(summarize(rows, load_expected(args.workload, inputs.variant, args.mini)))
        record.update(wall_s=wall, layers=layers)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
