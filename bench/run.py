"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every metric is printed by name and unit, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The full record,
with run metadata, failures and the determinism digest, is written to
``bench/results/``.
"""

import os

# BLAS and OpenMP read these once, when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("search", "lower_dense", "energy_cyclic")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up (import, generate, warm up) and print the seconds it took")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "branchflow" / "__init__.py").is_file():
        print(f"error: no branchflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import branchflow  # noqa: F401
    import_s = time.perf_counter() - t0

    import harness

    if args.setup_probe:
        print(json.dumps({"setup_s": harness.timed_setup(args.workload, args.seed, import_s)}))
        return 0

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"digest {result['digest']}  attempted {result['attempted']}  failed {result['failed']}")
    for f in result["failures"][:20]:
        print(f"FAILED instance {f['instance_index']} (seed {f['instance_seed']}): {f['check']}")
    if "layer_claim" in result:
        claim = result["layer_claim"]
        print(f"claim {claim['layer']} / trace.bracket_s = {claim['share_of_bracket_s']:.3f}: "
              f"{'holds' if claim['holds'] else 'DOES NOT HOLD'}")
    print(f"record {result['result_file']}")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
