"""Record the benchmark's numbers for this checkout in BENCH_<LABEL>.json.

    python3 scripts/record_bench.py LABEL

For each workload that BENCHMARK.json gates, bench/run.py runs untraced
REPEATS times and traced once, at seed 1 and --seconds 40.  One run of
the Tier-1 suite, as ROADMAP.md gives its command, is timed as the case
tier1.wall_s.  Then the per-bit generation cost of criterion 09
(cli.ns_per_bit, sala and psi2 with k = lcm(1..n-2), n = 8, 16, 32 and
64, 2^15 bits) is timed REPEATS times in this process.

The file at the root of the checkout holds the machine, the Python
version and the commit, one case per end-to-end metric and per ns/bit
order (its unit, min, median and every repeat: each untraced run is
already a median over its jobs), and each traced run's correctness,
theory-checked counts and per-layer self_share values.  Uses only the
standard library; exits 1 if a benchmark run or the Tier-1 suite fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SECONDS = 40
SEED = 1
ORDERS = (8, 16, 32, 64)
BITS = 1 << 15


def bench(workload: str, trace: int) -> dict:
    """One bench/run.py run: its provenance record and its result line,
    with each metric reduced to its value."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    result = {**json.loads(lines[-2]), **json.loads(lines[-1])}
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def tier1() -> float:
    """Wall seconds of one run of the Tier-1 command in ROADMAP.md."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise SystemExit(f"error: Tier-1 ({' '.join(cmd)}) exited with {proc.returncode}")
    return seconds


def case(name: str, n: Optional[int], unit: str, values: list) -> dict:
    return {"name": name, "n": n, "unit": unit, "min": min(values),
            "median": statistics.median(values), "repeats": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    units = {metric["name"]: metric["unit"] for metric in config["end_to_end"]}

    cases, traced, provenance = [], {}, None
    for workload in (w["name"] for w in config["workloads"]):
        n = int(workload.rsplit("-n", 1)[1])
        runs = [bench(workload, 0) for _ in range(REPEATS)]
        provenance = provenance or runs[0]["provenance"]
        for metric, unit in units.items():
            cases.append(case(f"{workload}.{metric}", n, unit,
                              [r["metrics"][metric] for r in runs]))
        run = bench(workload, 1)
        traced[workload] = {
            "correct": run["correct"] and all(r["correct"] for r in runs),
            "counts": {k: run["metrics"][k] for k in run["provenance"]["expected_counts"]},
            "self_share": {k: v for k, v in run["metrics"].items() if k.endswith("self_share")},
        }

    cases.append(case("tier1.wall_s", None, "s", [tier1()]))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from prrseq.cli import ns_per_bit
    from prrseq.rules import RuleKind, RuleSpec

    for n in ORDERS:
        for label, spec in (
            ("sala", RuleSpec(RuleKind.SALA, n)),
            ("psi2", RuleSpec(RuleKind.PSI2, n, k=math.lcm(*range(1, n - 1)))),
        ):
            costs = [ns_per_bit(spec, BITS, 1) for _ in range(REPEATS)]
            cases.append(case(f"ns_per_bit.{label}", n, "ns/bit", costs))

    record = {
        "label": args.label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": provenance["commit"],
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpu_count": os.cpu_count()},
        "settings": {"seed": SEED, "seconds": SECONDS, "repeats": REPEATS, "bits": BITS},
        "cases": cases,
        "traced": traced,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0 if all(t["correct"] for t in traced.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
