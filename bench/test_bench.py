"""Tests of the benchmark itself.  Run with

    python3 -m pytest -q bench

The workloads run here at small orders; the code paths are the ones the
benchmark times.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SMALL = {
    "stream-n64": dict(n=64, bits=2048, chunk=256),
    "full-period-n20": dict(n=10),
    "family-sweep-n9": dict(n=6),
    "validate-n18": dict(n=8),
}


@pytest.fixture(scope="module")
def m():
    return workloads.load_prrseq()


def make_job(m, name, tmp_path, seed=7):
    return workloads.WORKLOADS[name](m, seed, str(tmp_path), **SMALL[name])


def run_traced(m, job):
    # The cycle index is cached per process; a fresh job process builds it
    # inside the job, so clear it to get the same counts here.
    m.jointree._cycle_index.cache_clear()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, m):
        results, _, _ = workloads.run_ops(job, tracer)
    return results, tracer


# --- the percentile rule: at least ten samples beyond, or no value ---------


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(1, 101), 90) == 90
    assert run.percentile(range(1, 100), 90) is None
    assert run.percentile(range(1, 21), 50) == 10
    assert run.percentile(range(1, 20), 50) is None
    assert run.percentile([], 50) is None


def test_percentile_of_a_full_stream_run():
    # 160 chunk latencies, two stream jobs: p90 has 16 samples beyond it.
    samples = list(range(160))
    assert run.percentile(samples, 90) == 143
    assert run.percentile(samples, 95) is None


# --- tracing ---------------------------------------------------------------


def _bindings(m):
    sites = [m.package] + [getattr(m, name) for name in workloads.MODULES]
    return {(site.__name__, attr): value for site in sites for attr, value in vars(site).items()}


def test_wrappers_are_installed_at_every_binding_site_and_restored(m, tmp_path):
    before = _bindings(m)
    originals = (m.canonical.is_necklace_value, m.rules.generate, m.jointree.verify_critical_set)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, m):
        # Defining module, importing modules and the package all see the wrapper.
        assert m.canonical.is_necklace_value is not originals[0]
        assert m.rules.is_necklace_value is m.canonical.is_necklace_value
        assert m.package.generate is m.rules.generate is m.cli.generate
        assert m.cli.verify_critical_set is m.jointree.verify_critical_set
        assert m.cli.cmd_generate is before[("prrseq.cli", "cmd_generate")]
    assert _bindings(m) == before
    assert (m.canonical.is_necklace_value, m.rules.generate,
            m.jointree.verify_critical_set) == originals


def test_wrappers_are_restored_when_the_block_raises(m):
    before = _bindings(m)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), m):
            raise RuntimeError("boom")
    assert _bindings(m) == before


def test_self_time_excludes_wrapped_callees():
    tracer = tracing.Tracer()
    inner = tracer.wrap("t.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("t.outer", lambda: [inner() for _ in range(5)])
    outer()
    totals = tracer.totals()
    assert totals["t.inner"]["calls"] == 5
    assert totals["t.outer"]["self_s"] == pytest.approx(
        totals["t.outer"]["total_s"] - totals["t.inner"]["total_s"]
    )
    assert tracer.stats[("t.inner", "t.outer")][0] == 5


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_output_equals_untraced_and_counts_match_theory(m, tmp_path, name):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    job = make_job(m, name, tmp_path / "plain")
    plain, _, _ = workloads.run_ops(job)
    assert job.check(plain) == set()
    plain_digest = job.digest(plain)

    job = make_job(m, name, tmp_path / "traced")
    traced, tracer = run_traced(m, job)
    assert job.check(traced) == set()
    assert job.digest(traced) == plain_digest

    metrics = run.layer_metrics(tracer.totals(), 1.0)
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead_ratio"}
    for key, want in job.expected.items():
        assert metrics[key] == want, key
    ops = [s for s in tracer.spans if s["name"].startswith("op.")]
    assert len(ops) == len(job.ops)
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_spans_record_their_parent(m, tmp_path):
    job = make_job(m, "validate-n18", tmp_path)
    _, tracer = run_traced(m, job)
    by_id = {s["id"]: s for s in tracer.spans}
    trees = [s for s in tracer.spans if s["name"] == "jointree.extract_tree"]
    assert len(trees) == len(job.ops)
    for s in trees:
        parent = by_id[s["parent"]]
        assert parent["name"] == "jointree.verify_critical_set"
        assert by_id[parent["parent"]]["name"] == "op.validate"


# --- oracles and failure counting ------------------------------------------


def test_mutated_predicate_counts_as_a_failed_op(m, tmp_path):
    def mutated(spec):
        base = m.rules.critical_predicate(spec)
        return lambda v: base(v) ^ (v == 0b000011)

    job = workloads.validate_job(
        m, 0, str(tmp_path), n=6, specs=["psi2:n=6:k=1"], critical=mutated
    )
    results, _, _ = workloads.run_ops(job)
    assert isinstance(results[0], workloads.OpError)
    assert job.check(results) == {0}

    job = workloads.validate_job(m, 0, str(tmp_path), n=6, specs=["psi2:n=6:k=1"])
    results, _, _ = workloads.run_ops(job)
    assert job.check(results) == set()


def test_broken_outputs_fail_their_ops(m, tmp_path):
    job = make_job(m, "full-period-n20", tmp_path)
    results, _, _ = workloads.run_ops(job)
    path = tmp_path / "sequence.txt"
    text = path.read_text()
    path.write_text(text[:100] + ("1" if text[100] == "0" else "0") + text[101:])
    assert job.check(results) == {0}
    assert job.check([workloads.OpError(ValueError("x")), (1, "", "")]) == {0, 1}

    job = make_job(m, "stream-n64", tmp_path)
    results, _, _ = workloads.run_ops(job)
    results[3] = bytes(len(results[3]))  # all zeros: repeats a window
    per_spec = len(job.ops) // job.specs
    assert job.check(results) == set(range(per_spec))


def test_closed_form_counts():
    assert workloads.critical_count(20) == 82786
    assert workloads.critical_count(10) == 178
    assert workloads.critical_count(9) == 102
    assert workloads.critical_count(18) == 23134
    assert sum(workloads.family_size(k, 10) for k in workloads.KINDS) == 1937
    assert sum(workloads.family_size(k, 9) for k in workloads.KINDS) == 969


def test_cycle_total_matches_the_decomposition(m):
    for n in range(3, 13):
        assert workloads.cycle_total(n) == len(m.registers.decompose(n).cycles)


def test_windows_distinct():
    assert workloads.windows_distinct("0011", 2, cyclic=True)
    assert not workloads.windows_distinct("0101", 2, cyclic=True)
    assert workloads.windows_distinct("00110", 2, cyclic=False)
    assert not workloads.windows_distinct("001100", 2, cyclic=False)
    bits = "0" * 30 + "1" * 40
    assert not workloads.windows_distinct(bits, 30, cyclic=False)
    assert workloads.windows_distinct("0" * 30 + "1", 30, cyclic=False)


def test_inputs_follow_the_seed(m, tmp_path):
    a = make_job(m, "stream-n64", tmp_path, seed=3).inputs
    b = make_job(m, "stream-n64", tmp_path, seed=3).inputs
    c = make_job(m, "stream-n64", tmp_path, seed=4).inputs
    assert a == b != c
    for text in workloads.random_specs(__import__("random").Random(5), 18):
        m.rules.RuleSpec.parse(text)  # every drawn spec is valid


# --- the contract file and the entry point ---------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
