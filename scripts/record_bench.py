"""Record the benchmark's numbers for this checkout in BENCH_<LABEL>.json.

    python3 scripts/record_bench.py LABEL

For each workload that BENCHMARK.json gates, bench/run.py runs untraced
REPEATS times and traced once, at seed 1 and --seconds 40.  One run of
the Tier-1 suite, as ROADMAP.md gives its command, is timed as the case
tier1.wall_s.  Then the per-bit generation cost of criterion 09
(cli.ns_per_bit, sala and psi2 with k = lcm(1..n-2), n = 8, 16, 21, 32 and
64, 2^15 bits) is timed REPEATS times in this process, from the all-zero
state as the criterion does and, above the table cap, also from one start
state per order drawn with random.Random(SEED): the all-zero state is an
unrepresentative start there (psi2 at n = 64 spends most of its first 2^15
bits on CCR arcs from it).  Last, three jobs past the benchmark's orders
are each run REPEATS times in a fresh process, which reports its wall time
and peak RSS: decompose(24), at the order cap; verify_critical_set for one
spec per family at n = 20 (the CI's specs), the first building the cycle
index; and enumerate_family for psi2 at n = 11, the family cap (2520
specs, each generated and window-checked).

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
import random
import statistics
import subprocess
import sys
import time
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SECONDS = 40
SEED = 1
ORDERS = (8, 16, 21, 32, 64)
BITS = 1 << 15
# name -> (n, the timed statement, run after `import prrseq`)
FRESH = {
    "decompose": (24, "prrseq.decompose(24)"),
    "verify_critical_set": (20, (
        "for text in ('sala:n=20', 'psi1:n=20:kset=1,4,7,20', 'psi2:n=20:k=12345',"
        " 'upsilon1:n=20:kset=1,3,20', 'upsilon2:n=20:k=777'):\n"
        "    assert prrseq.verify_critical_set(prrseq.RuleSpec.parse(text)).ok"
    )),
    "enumerate_family_psi2": (11, "prrseq.enumerate_family('psi2', 11)"),
    "verify_family_psi2": (12, (
        "for spec in prrseq.all_specs('psi2', 12):\n"
        "    assert prrseq.verify_critical_set(spec).ok"
    )),
}


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


def fresh(statement: str) -> tuple:
    """Wall seconds of statement and the peak RSS in MiB of a fresh
    interpreter that imports prrseq from this checkout and runs it."""
    program = "\n".join([
        "import resource, sys, time",
        f"sys.path.insert(0, {os.path.join(ROOT, 'src')!r})",
        "import prrseq",
        "t0 = time.perf_counter()",
        statement,
        "print(time.perf_counter() - t0,"
        " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)",
    ])
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {statement!r} exited with {proc.returncode}")
    wall, rss = map(float, proc.stdout.split())
    return wall, rss


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
    from prrseq.registers import ORDER_LIMITS
    from prrseq.rules import RuleKind, RuleSpec

    rng = random.Random(SEED)
    starts = {n: rng.getrandbits(n) for n in ORDERS if n > ORDER_LIMITS["table"][1]}
    for n in ORDERS:
        for label, spec in (
            ("sala", RuleSpec(RuleKind.SALA, n)),
            ("psi2", RuleSpec(RuleKind.PSI2, n, k=math.lcm(*range(1, n - 1)))),
        ):
            costs = [ns_per_bit(spec, BITS, 1) for _ in range(REPEATS)]
            cases.append(case(f"ns_per_bit.{label}", n, "ns/bit", costs))
            if n in starts:
                costs = [ns_per_bit(spec, BITS, 1, starts[n]) for _ in range(REPEATS)]
                cases.append(case(f"ns_per_bit_random_start.{label}", n, "ns/bit", costs))

    for name, (n, statement) in FRESH.items():
        walls, rss = zip(*(fresh(statement) for _ in range(REPEATS)))
        cases.append(case(f"{name}.wall_s", n, "s", list(walls)))
        cases.append(case(f"{name}.peak_rss_mb", n, "MiB", list(rss)))

    record = {
        "label": args.label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": provenance["commit"],
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpu_count": os.cpu_count()},
        "settings": {"seed": SEED, "seconds": SECONDS, "repeats": REPEATS, "bits": BITS,
                     "random_starts": {n: format(v, f"0{n}b") for n, v in starts.items()}},
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
