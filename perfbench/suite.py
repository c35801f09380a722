"""Run every workload of BENCHMARK.json once, for its run_seconds, and print
each end-to-end metric by name, with its unit, per workload, plus each
workload's fail_frac.

    python3 perfbench/suite.py [--seed 1]

Run from the root of a checkout.  Each workload runs in its own process,
one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(f"{name}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = out.stdout.strip().splitlines()
        print("\n".join(ln for ln in lines[:-1] if ln.startswith(name)))
        if out.stderr.strip():
            print(out.stderr.strip(), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
