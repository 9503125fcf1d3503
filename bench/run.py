"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload stream-n64 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every job runs in a fresh process
(bench/job.py), one after another: a closed loop with one client.  A
discarded warm-up process runs first so that compiling the bytecode is not
counted as set-up.  Untraced runs repeat the job as often as fits in
``--seconds`` (at least three times) and report medians of the end-to-end
metrics.  Traced runs (``--trace 1``) run the job once untraced and then
traced as often as fits, and report the per-layer metrics, checking the
counts that theory fixes.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a provenance record.  Exits 2 when
run outside a checkout and 3 when a job process fails.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

JOB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "job.py")
MIN_REPS = 3
MIN_SETUPS = 31
DEADLINE_S = 170

# name -> unit, reported by every untraced run.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "bits_per_s": "bit/s",
    "specs_per_s": "spec/s",
    "peak_rss_mb": "MiB",
}

_COUNTED = (
    "core.lambda_rotate_value",
    "core.theta_rotate_value",
    "core.rotate_left_value",
    "registers.decompose",
    "registers.prr_step_value",
    "jointree.extract_tree",
    "jointree.verify_critical_set",
    "oracle.find_repeated_window",
    "cli.main",
)
_PREDICATES = ("canonical.is_necklace_value", "canonical.is_conecklace_value")

# name -> unit, reported by every traced run.
PER_LAYER = {
    **{f"{p}.{k}": u for p in _PREDICATES for k, u in
       (("calls", "count"), ("self_share", "ratio"), ("accept_ratio", "ratio"))},
    **{f"{p}.{k}": u for p in _COUNTED for k, u in
       (("calls", "count"), ("self_share", "ratio"))},
    "core.calls": "count",
    "rules.critical.calls": "count",
    "rules.critical.hits": "count",
    "rules.critical.hit_ratio": "ratio",
    "rules.critical.self_share": "ratio",
    "rules.generate.bits": "count",
    "rules.generate.self_share": "ratio",
    "rules.generate_sequence.self_share": "ratio",
    "oracle.enumerate_family.self_share": "ratio",
    "cli.main.nonzero_exits": "count",
    "trace.overhead_ratio": "ratio",
}


class JobFailed(RuntimeError):
    """A job process exited abnormally or printed no result."""


def percentile(samples, q):
    """Nearest-rank q-th percentile, or None unless at least ten samples
    lie beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def layer_metrics(totals, wall_s):
    """Per-layer metrics from the tracer's per-name totals of one job that
    took wall_s; 0 where a function was never called.

    Times are given as self time over job time: the share of the job a
    layer's own code takes, which bounds what speeding it up can save.
    """

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(name):
        calls = get(name, "calls")
        return get(name, "truthy") / calls if calls else 0.0

    out = {}
    for name in _PREDICATES:
        out[f"{name}.accept_ratio"] = ratio(name)
    for name in _PREDICATES + _COUNTED:
        out[f"{name}.calls"] = get(name, "calls")
    for name in _PREDICATES + _COUNTED + (
        "rules.critical", "rules.generate", "rules.generate_sequence", "oracle.enumerate_family"
    ):
        out[f"{name}.self_share"] = get(name, "self_s") / wall_s
    out["core.calls"] = sum(t["calls"] for n, t in totals.items() if n.startswith("core."))
    out["rules.critical.calls"] = get("rules.critical", "calls")
    out["rules.critical.hits"] = get("rules.critical", "truthy")
    out["rules.critical.hit_ratio"] = ratio("rules.critical")
    out["rules.generate.bits"] = get("rules.generate", "items")
    # cli.main returns the exit code, so its truthy results are the failures.
    out["cli.main.nonzero_exits"] = get("cli.main", "truthy")
    return out


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None if
    the checkout is not a git working tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts job processes for one workload and seed, within a deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def job(self, mode, trace_out=None):
        cmd = [sys.executable, JOB, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise JobFailed(f"deadline of {DEADLINE_S} s passed")
        # Bytecode is cached next to the sources, inside the checkout, so
        # that the warm-up process keeps compilation out of setup_s.
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONHASHSEED"] = "0"
        try:
            proc = subprocess.run(cmd, cwd=workloads.ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise JobFailed(f"{mode} job passed the deadline of {DEADLINE_S} s") from None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise JobFailed(f"{mode} job exited with {proc.returncode}")
        return json.loads(lines[-1])


def repeat(seconds, minimum, run_one):
    """Call run_one(i) until the next call would end after ``seconds``
    (judged by the median call so far), but at least ``minimum`` times."""
    start = time.monotonic()
    reps, took = [], []
    while len(reps) < minimum or (
        time.monotonic() - start + statistics.median(took) <= seconds
    ):
        t0 = time.monotonic()
        reps.append(run_one(len(reps)))
        took.append(time.monotonic() - t0)
    return reps


def untraced(runner, seconds):
    reps = repeat(seconds, MIN_REPS, lambda i: runner.job("job"))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.job("setup")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "bits_per_s": statistics.median(r["bits"] / r["wall_s"] for r in reps),
        "specs_per_s": statistics.median(r["specs"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    latencies = [x for r in reps for x in r["latencies_s"]]
    p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
    detail = {
        "setup_samples": setups,
        "wall_samples": [r["wall_s"] for r in reps],
        "op_latency_ms": {
            "samples": len(latencies),
            "p50": p50 and p50 * 1e3,
            "p90": p90 and p90 * 1e3,
        },
    }
    return reps, metrics, [], detail


def traced(runner, seconds):
    base = runner.job("job")
    prefix = os.path.join(workloads.OUT, f"trace-{runner.workload}-{runner.seed}")
    reps = repeat(seconds, 1, lambda i: runner.job("traced", trace_out=f"{prefix}-{i}.json"))
    layers = [layer_metrics(r["totals"], r["wall_s"]) for r in reps]
    metrics = {}
    problems = []
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        values = [m[name] for m in layers]
        if unit == "count":
            metrics[name] = values[0]
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced jobs: {values}")
        else:
            metrics[name] = statistics.median(values)
    traced_wall = statistics.median(r["wall_s"] for r in reps)
    metrics["trace.overhead_ratio"] = traced_wall / base["wall_s"]
    for name, want in reps[0]["expected"].items():
        if metrics[name] != want:
            problems.append(f"{name} is {metrics[name]}, theory gives {want}")
    names = sorted({n for r in reps for n in r["totals"]})
    detail = {
        "self_s": {
            n: statistics.median(r["totals"].get(n, {}).get("self_s", 0.0) for r in reps)
            for n in names
        },
        "untraced_wall_s": base["wall_s"],
        "traced_wall_samples": [r["wall_s"] for r in reps],
        "expected_counts": reps[0]["expected"],
    }
    return [base] + reps, metrics, problems, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "prrseq", "__init__.py")):
        print(f"error: no prrseq sources under {workloads.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    try:
        runner.job("setup")  # warm-up: compiles bytecode; discarded
        reps, metrics, problems, detail = (traced if args.trace else untraced)(
            runner, args.seconds
        )
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len({r["digest"] for r in reps}) > 1:
        problems.append("jobs with the same seed produced different outputs")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    units = PER_LAYER if args.trace else END_TO_END
    provenance = {
        "commit": git_commit(workloads.ROOT),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(reps),
        "ops_per_job": reps[0]["attempted"],
        "failed_ratio": failed / attempted,
        "inputs": reps[0]["inputs"],
        "digest": reps[0]["digest"],
        **detail,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
