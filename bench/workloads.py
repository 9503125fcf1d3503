"""The four benchmark workloads: inputs made from a seed, the timed
operations, and oracles that check the outputs without the timed code.

Each workload builds a ``Job``: a list of operations the benchmark issues
one after another (a closed loop with one client) and a checker that
decides, after the timed region, which operations failed.  The sizes are
parameters so the tests can run the same code paths at small orders.

Nothing here imports ``prrseq`` at module level: the import is part of
the measured set-up time and happens in ``load_prrseq``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

MODULES = ("core", "canonical", "registers", "rules", "jointree", "oracle", "cli")
KINDS = ("sala", "psi1", "psi2", "upsilon1", "upsilon2")


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout of the program."""


def load_prrseq() -> SimpleNamespace:
    """Import the package from this checkout's src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "prrseq", "__init__.py")):
        raise CheckoutError(f"no prrseq sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("prrseq")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise CheckoutError(f"prrseq imported from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"prrseq.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


# ---------------------------------------------------------------------------
# Oracles.  These use only the emitted strings and closed forms, never the
# package's own checkers.


def _totient(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


def cycle_total(n: int) -> int:
    """Number of cycles of the order-n pure run-length register.

    Its cycles mirror the order-(n-1) cycling-register cycles (necklaces,
    counted by Burnside's lemma over rotations) plus the complementing
    ones (the odd-divisor terms, each class counted twice as often).
    """
    m = n - 1
    terms = [(d, _totient(d) * 2 ** (m // d)) for d in range(1, m + 1) if m % d == 0]
    pcr = sum(t for _, t in terms) // m
    ccr = sum(t for d, t in terms if d % 2) // (2 * m)
    return pcr + ccr


def critical_count(n: int) -> int:
    """Critical states of any valid rule: one conjugate pair per tree edge."""
    return 2 * (cycle_total(n) - 1)


def windows_distinct(bits: str, n: int, cyclic: bool) -> bool:
    """True iff no n-bit window of bits occurs twice.

    Cyclic windows wrap around the end, as for a full de Bruijn period;
    linear ones stay inside the string, as for a prefix of one.
    """
    if len(bits) < n or bits.strip("01"):
        return False
    text = bits + bits[: n - 1] if cyclic else bits
    mask = (1 << n) - 1
    seen = bytearray(1 << n) if n <= 24 else set()
    v = int(text[: n - 1], 2) if n > 1 else 0
    for ch in text[n - 1 :]:
        v = ((v << 1) & mask) | (ch == "1")
        if n <= 24:
            if seen[v]:
                return False
            seen[v] = 1
        else:
            if v in seen:
                return False
            seen.add(v)
    return True


def family_size(kind: str, n: int) -> int:
    if kind == "sala":
        return 1
    if kind in ("psi1", "upsilon1"):
        return 2 ** (n - 3)
    return math.lcm(*range(1, n - 1))


# ---------------------------------------------------------------------------
# Inputs from the seed.


def random_kset(rng: random.Random, n: int) -> Tuple[int, ...]:
    """1, a random subset of 2..n-2, then n: any valid psi1/upsilon1 kset."""
    return (1, *(k for k in range(2, n - 1) if rng.random() < 0.5), n)


def random_specs(rng: random.Random, n: int) -> List[str]:
    """One spec string per family at order n."""
    period = math.lcm(*range(1, n - 1))
    return [
        f"sala:n={n}",
        f"psi1:n={n}:kset={','.join(map(str, random_kset(rng, n)))}",
        f"psi2:n={n}:k={rng.randint(1, period)}",
        f"upsilon1:n={n}:kset={','.join(map(str, random_kset(rng, n)))}",
        f"upsilon2:n={n}:k={rng.randint(0, period - 1)}",
    ]


# ---------------------------------------------------------------------------
# Jobs.


@dataclass
class Job:
    """One run of a workload: ops issued in order, then checked.

    ``check`` maps the list of op results to the set of failed op
    indices; ``digest`` condenses the results so runs can be compared.
    ``expected`` holds the traced counts that follow from theory.
    """

    bits: int
    specs: int
    ops: List[Tuple[str, Callable[[], Any]]]
    check: Callable[[List[Any]], set]
    digest: Callable[[List[Any]], str]
    expected: Dict[str, int] = field(default_factory=dict)
    inputs: Dict[str, Any] = field(default_factory=dict)


class OpError:
    """Result slot of an op that raised; the op counts as failed."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"OpError({self.text!r})"


def run_ops(job: Job, tracer=None):
    """Issue the ops in order; return (results, per-op seconds, wall seconds).

    An op that raises is recorded as an OpError, never re-raised.  In a
    traced run each op is also kept as a span.
    """
    clock = time.perf_counter
    results: List[Any] = []
    latencies: List[float] = []
    start = clock()
    for label, op in job.ops:
        if tracer:
            op = tracer.wrap(label, op, span=True)
        t0 = clock()
        try:
            result = op()
        except Exception as exc:  # a failed op is counted, not raised
            result = OpError(exc)
        latencies.append(clock() - t0)
        results.append(result)
    return results, latencies, clock() - start


def _passes(predicate: Callable[[], bool]) -> bool:
    """Run an output check; malformed output that makes it raise fails it."""
    try:
        return bool(predicate())
    except Exception:
        return False


def _sha(parts: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def run_cli(m: SimpleNamespace, argv: List[str]) -> Tuple[int, str, str]:
    """cli.main in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def stream_job(
    m: SimpleNamespace,
    seed: int,
    tmp: str,
    n: int = 64,
    bits: int = 1 << 14,
    chunk: int = 4096,
) -> Job:
    """rules.generate for four specs of each family, read chunk by chunk.
    Four draws per family average out how the seeded kset, k and start
    state change the per-bit cost."""
    rng = random.Random(seed)
    texts = [t for _ in range(4) for t in random_specs(rng, n)]
    specs = [m.rules.RuleSpec.parse(t) for t in texts]
    starts = [rng.getrandbits(n) for _ in specs]
    chunks_per_spec = bits // chunk
    streams: Dict[int, Any] = {}

    def read_chunk(i: int) -> Callable[[], bytes]:
        def op() -> bytes:
            if i not in streams:
                start = m.core.State(starts[i], n)
                streams[i] = m.rules.generate(specs[i], start, bits)
            return bytes(islice(streams[i], chunk))

        return op

    ops = [
        ("op.chunk", read_chunk(i)) for i in range(len(specs)) for _ in range(chunks_per_spec)
    ]

    def prefix_ok(i: int, parts: List[Any]) -> bool:
        text = b"".join(parts).translate(bytes.maketrans(b"\x00\x01", b"01")).decode()
        return (
            len(text) == chunks_per_spec * chunk
            and text[:n] == format(starts[i], f"0{n}b")
            and windows_distinct(text, n, cyclic=False)
        )

    def check(results: List[Any]) -> set:
        # A repeated window fails every chunk of that spec's prefix.
        failed = set()
        for i in range(len(specs)):
            idx = range(i * chunks_per_spec, (i + 1) * chunks_per_spec)
            if not _passes(lambda: prefix_ok(i, [results[j] for j in idx])):
                failed.update(idx)
        return failed

    total = len(specs) * chunks_per_spec * chunk
    return Job(
        bits=total,
        specs=len(specs),
        ops=ops,
        check=check,
        digest=_sha,
        expected={"rules.generate.bits": total},
        inputs={"specs": texts, "starts": [format(s, f"0{n}x") for s in starts]},
    )


def full_period_job(m: SimpleNamespace, seed: int, tmp: str, n: int = 20) -> Job:
    """The README pipeline in process: generate a full sala period to a
    file from a seeded start state, then verify the file."""
    rng = random.Random(seed)
    start = format(rng.getrandbits(n), f"0{n}b")
    path = os.path.join(tmp, "sequence.txt")
    spec = f"sala:n={n}"
    gen_argv = ["generate", "--spec", spec, "--start", start, "--out", path]
    ver_argv = ["verify", "--n", str(n), "--file", path]

    ops = [
        ("op.generate", lambda: run_cli(m, gen_argv)),
        ("op.verify", lambda: run_cli(m, ver_argv)),
    ]

    def generated_ok(code: int) -> bool:
        bits = _read(path).rstrip("\n")
        return (
            code == 0
            and len(bits) == 1 << n
            and bits.startswith(start)
            and windows_distinct(bits, n, cyclic=True)
        )

    def check(results: List[Any]) -> set:
        gen, ver = results
        failed = set()
        if not _passes(lambda: generated_ok(gen[0])):
            failed.add(0)
        if not _passes(lambda: ver[0] == 0 and ver[1].startswith("ok:")):
            failed.add(1)
        return failed

    crit = critical_count(n)
    return Job(
        bits=1 << n,
        specs=1,
        ops=ops,
        check=check,
        digest=lambda results: _sha([*results, _read(path)]),
        expected={
            "rules.critical.calls": 1 << n,
            "rules.critical.hits": crit,
            "oracle.find_repeated_window.calls": 1,
            "core.calls": 0,
            "cli.main.calls": 2,
            "cli.main.nonzero_exits": 0,
        },
        inputs={"start": start},
    )


def family_sweep_job(m: SimpleNamespace, seed: int, tmp: str, n: int = 9) -> Job:
    """cli family for every kind at order n.  The input is fixed; the
    seed is recorded but not used."""
    paths = {kind: os.path.join(tmp, f"family-{kind}.csv") for kind in KINDS}

    def family_op(kind: str) -> Callable[[], Any]:
        argv = ["family", "--kind", kind, "--n", str(n), "--out", paths[kind]]
        return lambda: run_cli(m, argv)

    ops = [("op.family", family_op(kind)) for kind in KINDS]
    sizes = {kind: family_size(kind, n) for kind in KINDS}

    def csv_ok(kind: str, text: str) -> bool:
        lines = text.rstrip("\n").split("\n")
        if lines[0] != "spec,sequence,de_bruijn" or len(lines) != sizes[kind] + 2:
            return False
        seqs = set()
        for line in lines[1:-1]:
            spec, seq, flag = line.rsplit(",", 2)
            if not spec.startswith(f"{kind}:n={n}") or flag != "1":
                return False
            if len(seq) != 1 << n or not windows_distinct(seq, n, cyclic=True):
                return False
            seqs.add(seq)
        return len(seqs) == sizes[kind]

    def check(results: List[Any]) -> set:
        failed = set()
        for i, (kind, res) in enumerate(zip(KINDS, results)):
            if not _passes(lambda: res[0] == 0 and csv_ok(kind, _read(paths[kind]))):
                failed.add(i)
        return failed

    total = sum(sizes.values())
    return Job(
        bits=total << n,
        specs=total,
        ops=ops,
        check=check,
        digest=lambda results: _sha([*results, *(_read(paths[kind]) for kind in KINDS)]),
        expected={
            "rules.critical.calls": total << n,
            "rules.critical.hits": total * critical_count(n),
            "oracle.find_repeated_window.calls": total,
            "cli.main.calls": len(KINDS),
            "cli.main.nonzero_exits": 0,
        },
        inputs={"seed_used": False},
    )


def validate_job(
    m: SimpleNamespace,
    seed: int,
    tmp: str,
    n: int = 18,
    specs: Optional[List[str]] = None,
    critical: Optional[Callable[[Any], Callable[[int], bool]]] = None,
) -> Job:
    """jointree.verify_critical_set for one spec per family at order n.

    ``critical`` maps a parsed spec to a replacement predicate; the tests
    use it to feed a mutated critical set through the same checks.
    """
    texts = specs if specs is not None else random_specs(random.Random(seed), n)
    parsed = [m.rules.RuleSpec.parse(t) for t in texts]

    def verify_op(spec) -> Callable[[], Any]:
        def op():
            override = critical(spec) if critical else None
            return m.jointree.verify_critical_set(spec, override)

        return op

    ops = [("op.validate", verify_op(s)) for s in parsed]
    expected_crit = critical_count(n)

    def check(results: List[Any]) -> set:
        failed = set()
        for i, (text, rep) in enumerate(zip(texts, results)):
            root = 0 if text.startswith(("sala", "psi")) else (1 << n) - 1
            if not _passes(
                lambda: rep.ok
                and rep.deviation_count == expected_crit
                and rep.root_representative.value == root
            ):
                failed.add(i)
        return failed

    def digest(results: List[Any]) -> str:
        return _sha(
            [
                r
                if isinstance(r, OpError)
                else (r.summary(), [(e.child, e.parent) for e in r.tree.edges])
                for r in results
            ]
        )

    return Job(
        bits=len(parsed) << n,
        specs=len(parsed),
        ops=ops,
        check=check,
        digest=digest,
        expected={
            "rules.critical.calls": len(parsed) << n,
            "rules.critical.hits": len(parsed) * expected_crit,
            "registers.decompose.calls": 1,
            "jointree.verify_critical_set.calls": len(parsed),
        },
        inputs={"specs": texts},
    )


WORKLOADS: Dict[str, Callable[..., Job]] = {
    "stream-n64": stream_job,
    "full-period-n20": full_period_job,
    "family-sweep-n9": family_sweep_job,
    "validate-n18": validate_job,
}
