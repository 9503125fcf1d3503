"""One benchmark process: set up a workload, run its job once, print JSON.

run.py starts a fresh process per job, so lazily built caches (such as
the join-tree cycle index) and the peak resident set belong to that job.

    python3 bench/job.py --workload validate-n18 --seed 1 --mode job

Modes: ``setup`` stops after set-up, ``job`` runs the ops untraced,
``traced`` runs them with every module wrapped (see tracing.py).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "job", "traced"], required=True)
    parser.add_argument("--trace-out", help="where a traced job writes its spans")
    args = parser.parse_args(argv)

    os.makedirs(workloads.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workloads.OUT)
    try:
        m = workloads.load_prrseq()
        job = workloads.WORKLOADS[args.workload](m, args.seed, tmp)
        setup_s = time.perf_counter() - T_START
        out = {"setup_s": setup_s}
        if args.mode != "setup":
            out.update(run(job, m, args.mode == "traced", args.trace_out))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


def run(job, m, traced: bool, trace_out) -> dict:
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        with tracing.installed(tracer, m):
            results, latencies, wall = workloads.run_ops(job, tracer)
    else:
        results, latencies, wall = workloads.run_ops(job)
    # Read before the oracles run: their memory is the benchmark's, not the job's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sorted(job.check(results))
    for i in failed[:5]:
        print(f"failed op {i} ({job.ops[i][0]}): {results[i]!r:.300}", file=sys.stderr)
    out = {
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(job.ops),
        "failed": len(failed),
        "bits": job.bits,
        "specs": job.specs,
        "digest": job.digest(results),
        "inputs": job.inputs,
    }
    if tracer is not None:
        out["totals"] = tracer.totals()
        out["expected"] = job.expected
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump({"spans": tracer.spans, "aggregate": tracer.table()}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
