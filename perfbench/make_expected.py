"""Write expected.json: per-time flags and errors of every operation.

The benchmark compares each run with the outputs recorded here, so this
script is run once, on the code the benchmark was defined on, for every
workload variant at both sizes:

    python3 perfbench/make_expected.py

Re-running it on a later version would make that version its own
reference; an intended change of outputs is a change to the benchmark.
"""

import json
import sys

import worker  # puts the checkout's src on sys.path first

import checks  # noqa: E402
import workloads  # noqa: E402


def expected_rows(workload: str, variant: int, mini: bool) -> dict:
    seed = next(s for s in range(10_000) if workloads.variant_for_seed(workload, s) == variant)
    rows = workloads.run_sweep(workloads.make_inputs(workload, seed, mini))
    out = {}
    for row in rows:
        if row.error or row.measured != row.planned:
            raise RuntimeError(f"{workload} variant {variant}: {row.key} failed: "
                               f"{row.error or 'accounting mismatch'}")
        out[row.key] = {"flags": checks.encode_flags(row.flags),
                        "err": {k: float(f"{e:.4g}") for k, e in checks.row_errors(row).items()}}
    return out


def main() -> int:
    table = {}
    for mini in (True, False):
        for workload in workloads.WORKLOADS:
            name = workload + ("-mini" if mini else "")
            table[name] = {}
            for variant in range(workloads.n_variants(workload)):
                table[name][str(variant)] = expected_rows(workload, variant, mini)
                print(f"{name} variant {variant}: {len(table[name][str(variant)])} rows",
                      file=sys.stderr, flush=True)
    with open(worker.EXPECTED, "w") as fh:
        json.dump(table, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
