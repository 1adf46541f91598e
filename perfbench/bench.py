"""Workloads, the measurement loop and result assembly.

One process drives the library as one closed-loop client: the next
operation starts only after the previous one returns, and nothing runs on
threads (the library's work is pure-Python bignum arithmetic, which the
interpreter lock serialises).  Every input derives from the run's seed.
Every signing operation gets its own signing seed ``(seed, op index)``,
because two ``agms_offline`` calls on one seed reuse the nonces and leak
the aggregate key; the traced replay re-signs the *same* message with the
same seed, which yields the same signature and leaks nothing.

Library functions are looked up on their modules at call time
(``schemes.agms_offline``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import multisig
from multisig import endorsement, schemes
from multisig.gamma import Signature
from multisig.group import curve_group, toy_group_for_order
from multisig.tree import build_tree, min_branching

from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Largest prime below 2^20: a tampered signature verifies, and a challenge
# restarts, with probability about 1/q = 1e-6.
TOY_Q = 1048573
DEPTH = 3
TAMPER_EVERY = 8            # sign workloads: untimed bit-flip check cadence
ENDORSE_TAMPER_EVERY = 4    # endorse: every 4th transaction is tampered
MIN_OPS = 2                 # a p90 needs two samples at the very least
# Set-up runs at least this often and until this long has passed; the
# median is reported, so one slow repetition does not move setup_s.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 20
# Spans kept in memory by a traced run; toy N=511 makes ~5k per operation.
SPAN_CAP = 150_000

# Machine-speed reference.  A shared 2-vCPU VM (measured with Python 3.11)
# switches between a fast and a slow state, ~1.45x apart, for seconds to
# minutes at a time, so raw medians of two runs of the same code differ by
# up to 30%.
# A fixed pure-Python kernel (256-bit modular squarings and small-int dict
# stores, the two kinds of work the workloads do) is timed before and
# after every operation, and the operation's times are scaled by
# REF_NS / kernel time: figures read as milliseconds on a machine where
# the kernel takes 0.5 ms.
REF_NS = 500_000
_KERNEL_P = 2**255 - 19


def kernel_ns() -> int:
    """Median of three timings of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
        for _ in range(600):
            x = x * x % _KERNEL_P
        d = {}
        for i in range(600):
            d[i] = i * 7919 % 65521
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1]


class BenchError(Exception):
    """A set-up or warm-up step produced a wrong result."""


def message(seed, i, label: str = "msg") -> bytes:
    """Seeded random bytes, 64 to 512 long, for operation ``i``."""
    rng = random.Random(f"{seed}|{label}|{i}")
    return rng.randbytes(rng.randint(64, 512))


@dataclass
class Sample:
    """One operation: stage times (ns), its signature, and what went wrong.

    ``scale`` is REF_NS over the reference kernel's time around it.
    """

    times: dict
    signature: object
    errors: list
    attempts: int = 1
    records: tuple = ()
    scale: float = 1.0


# ── workloads ────────────────────────────────────────────────────────────────

@dataclass
class SignState:
    par: object
    keys: list
    agg: object
    tree: object
    seed: int


@dataclass(frozen=True)
class SignWorkload:
    """``agms_offline`` -> ``agms_online(m)`` -> ``verify`` on a fresh message.

    Set-up builds the group, derives the N keys, checks every possession
    proof, aggregates the keys and runs one warm-up operation.
    """

    name: str
    n: int
    toy_q: int | None = None   # None selects secp256k1

    def setup(self, seed, rep: int) -> SignState:
        par = curve_group() if self.toy_q is None else toy_group_for_order(self.toy_q)
        keys = schemes.derive_keys(par, self.n, f"{seed}|keys")
        if not all(schemes.key_verify(par, k.public) for k in keys):
            raise BenchError("a derived key failed its possession check")
        tree = build_tree(self.n, min_branching(self.n, DEPTH), DEPTH)
        st = SignState(par, keys, schemes.key_aggregate(par, keys), tree, seed)
        warm = self.op(st, -1 - rep)
        if warm.errors:
            raise BenchError(f"warm-up operation: {warm.errors}")
        return st

    def op(self, st: SignState, i: int) -> Sample:
        par = st.par
        m = message(st.seed, i)
        t0 = time.perf_counter_ns()
        off = schemes.agms_offline(par, st.tree, st.keys, seed=f"{st.seed}|op|{i}")
        t1 = time.perf_counter_ns()
        ops_before = par.ops_total.snapshot()
        t2 = time.perf_counter_ns()
        run = schemes.agms_online(par, off, m)
        t3 = time.perf_counter_ns()
        ops_after = par.ops_total.snapshot()
        t4 = time.perf_counter_ns()
        ok = schemes.verify(par, st.agg, m, run.signature)
        t5 = time.perf_counter_ns()
        errors = []
        if not ok:
            errors.append("honest signature rejected")
        if ops_after != ops_before:
            errors.append("agms_online did group operations")
        if run.agg_key.X != st.agg.X:
            errors.append("tree key aggregate differs from key_aggregate")
        times = {"offline": t1 - t0, "online": t3 - t2, "verify": t5 - t4}
        times["op"] = sum(times.values())
        return Sample(times, run.signature.to_bytes(par), errors, off.attempts)

    def check(self, st: SignState, i: int, sample: Sample) -> list:
        """Untimed: a one-bit flip of s is rejected (every 8th operation),
        and the one-piece ``gms_sign`` agrees byte for byte (operation 0)."""
        par, m, errors = st.par, message(st.seed, i), []
        sig = Signature.from_bytes(par, sample.signature)
        if i % TAMPER_EVERY == 0:
            bit = random.Random(f"{st.seed}|flip|{i}").randrange(par.q.bit_length())
            if schemes.verify(par, st.agg, m, Signature(sig.c, sig.s ^ (1 << bit))):
                errors.append(f"signature with bit {bit} of s flipped accepted")
        if i == 0:
            gms = schemes.gms_sign(par, st.tree, st.keys, m, seed=f"{st.seed}|op|{i}")
            if gms.signature.to_bytes(par) != sample.signature:
                errors.append("gms_sign and agms differ on the same seed")
        return errors

    def expected_group_ops(self, attempts: int) -> dict:
        """Per operation, as the paper pins them (one attempt: N+1, 2,
        2(N-1), 2N-1); a challenge restart repeats the commit phase."""
        n = self.n
        return {"group.exp_g1": attempts * n + 1, "group.exp_var": 2,
                "group.decode": attempts * 2 * (n - 1),
                "group.mul": attempts * 2 * (n - 1) + 1}


@dataclass
class EndorseState:
    par: object
    seed: int


@dataclass(frozen=True)
class EndorseWorkload:
    """One transaction through ``run_revised_flow``, then another through
    ``run_default_flow``, each on a fresh proposal and seed.

    The flows derive and register their own keys, so set-up is the group
    and one warm-up operation.
    """

    name: str
    n: int

    def setup(self, seed, rep: int) -> EndorseState:
        st = EndorseState(curve_group(), seed)
        warm = self.op(st, -1 - rep)
        if warm.errors:
            raise BenchError(f"warm-up operation: {warm.errors}")
        return st

    def op(self, st: EndorseState, i: int) -> Sample:
        par, n, seed = st.par, self.n, st.seed
        tamper = i % ENDORSE_TAMPER_EVERY == ENDORSE_TAMPER_EVERY - 1
        t0 = time.perf_counter_ns()
        rev = endorsement.run_revised_flow(
            par, n, message(seed, i, "revised"), seed=f"{seed}|revised|{i}",
            tamper_block=tamper)
        t1 = time.perf_counter_ns()
        dft = endorsement.run_default_flow(
            par, n, message(seed, i, "default"), seed=f"{seed}|default|{i}",
            tamper_block=tamper)
        t2 = time.perf_counter_ns()
        errors = [
            f"{rec.flow} flow {'accepted a tampered' if tamper else 'rejected an honest'} block"
            for rec in (rev, dft) if rec.accepted == tamper
        ]
        step = {s.step: s for s in rev.steps}
        if step[2].exp_count or step[3].exp_count:
            errors.append("revised flow exponentiated while endorsing")
        times = {
            "op": t2 - t0, "revised": t1 - t0, "default": t2 - t1,
            # the AGMS phases inside the revised flow
            "offline": step[1].wall_ns,
            "online": step[2].wall_ns + step[3].wall_ns,
            "verify": step[7].wall_ns,
        }
        return Sample(times, (rev.signature_hex, dft.signature_hex), errors,
                      records=(rev, dft))

    def check(self, st, i, sample) -> list:
        return []


WORKLOADS = {
    w.name: w for w in (
        SignWorkload("sign-curve-64", 64),
        SignWorkload("sign-toy-511", 511, toy_q=TOY_Q),
        EndorseWorkload("endorse-curve-16", 16),
    )
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    **{f"{stage}_ms.{q}": "ms" for stage in ("offline", "online", "verify")
       for q in ("p50", "p90")},
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


# ── measurement ──────────────────────────────────────────────────────────────

@dataclass
class Loop:
    """The operations one measurement loop attempted."""

    samples: dict = field(default_factory=dict)   # op index -> Sample
    attempted: int = 0
    failed: int = 0

    def op_ns(self, indices) -> int:
        return sum(self.samples[i].times["op"] for i in indices)


def _report(workload, i: int, problem: str) -> None:
    print(f"{workload.name} op {i}: {problem}", file=sys.stderr)


def attempt(workload, st, i: int, loop: Loop, *, checks: bool,
            expected: Sample | None = None) -> Sample | None:
    """Run operation ``i`` into ``loop``; None if it raised.

    ``checks`` adds the workload's untimed checks; ``expected`` is the
    untraced sample a traced replay must reproduce.
    """
    loop.attempted += 1
    try:
        sample = workload.op(st, i)
        if checks:
            sample.errors += workload.check(st, i, sample)
    except Exception:  # noqa: BLE001 - one failed operation is counted, not fatal
        _report(workload, i, traceback.format_exc())
        loop.failed += 1
        return None
    if expected is not None and sample.signature != expected.signature:
        sample.errors.append("traced signature differs from the untraced one")
    for problem in sample.errors:
        _report(workload, i, problem)
    loop.failed += bool(sample.errors)
    loop.samples[i] = sample
    return sample


def measure(workload, st, seconds: float, limit: int,
            tracer: Tracer | None = None) -> tuple[Loop, Loop | None]:
    """Run operations 0, 1, ... until ``seconds`` pass or ``limit`` is hit.

    With a tracer, each operation is replayed right after its untraced
    run with the wrappers installed, until ``SPAN_CAP`` spans are kept;
    pairing the two runs of an operation keeps machine-speed drift out of
    the tracing overhead.
    """
    untraced = Loop()
    traced = Loop() if tracer is not None else None
    deadline = time.perf_counter() + seconds
    before = kernel_ns()
    i = 0
    while i < limit and (i < MIN_OPS or time.perf_counter() < deadline):
        sample = attempt(workload, st, i, untraced, checks=True)
        after = kernel_ns()
        if sample is not None:
            sample.scale = 2 * REF_NS / (before + after)
        before = after
        if sample is not None and tracer is not None and len(tracer) < SPAN_CAP:
            tracer.op_id = i
            with tracer.installed():
                attempt(workload, st, i, traced, checks=False, expected=sample)
            before = kernel_ns()
        i += 1
    return untraced, traced


def setup(workload, seed) -> tuple[float, float, object]:
    """Repeat the workload's set-up; return the median seconds, scaled and
    raw, and a state."""
    scaled, raw, st = [], [], None
    start = time.perf_counter()
    while len(raw) < SETUP_MAX_REPS and (
            len(raw) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S):
        k0 = kernel_ns()
        t0 = time.perf_counter()
        st = workload.setup(seed, len(raw))
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * 2 * REF_NS / (k0 + kernel_ns()))
    return statistics.median(scaled), statistics.median(raw), st


def p50_p90(values: list) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(
        values, n=10, method="inclusive")[8]


def stage_metrics(loop: Loop, stages, scaled: bool = True) -> dict:
    out = {}
    for stage in stages:
        ms = [s.times[stage] * 1e-6 * (s.scale if scaled else 1.0)
              for s in loop.samples.values()]
        out[f"{stage}_ms.p50"], out[f"{stage}_ms.p90"] = p50_p90(ms)
    return out


def end_to_end(loop: Loop, setup_s: float) -> dict:
    values = stage_metrics(loop, ("offline", "online", "verify"))
    values["ops_per_s"] = len(loop.samples) / sum(
        s.times["op"] * 1e-9 * s.scale for s in loop.samples.values())
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}


ENDORSE_STEPS = {"revised": (1, 2, 3, 5, 6, 7), "default": (3, 4, 7)}


def endorsement_metrics(loop: Loop) -> dict:
    """Per-flow step figures from the returned ``TransactionRecord``s.

    Only the steps the library times are listed: it records no wall time
    for revised step 4 or default steps 2, 5 and 6.
    """
    recs = [r for s in loop.samples.values() for r in s.records]
    out = {}
    for flow, steps in ENDORSE_STEPS.items():
        mine = [r for r in recs if r.flow == flow]
        k = max(1, len(mine))
        for n in steps:
            ns = sum(s.wall_ns for r in mine for s in r.steps if s.step == n)
            out[f"endorsement.{flow}.step{n}.ms"] = (ns * 1e-6 / k, "ms")
        out[f"endorsement.{flow}.step7_verify_calls"] = (
            sum(r.step7_verify_calls() for r in mine) / k, "count")
        out[f"endorsement.{flow}.signature_bytes"] = (
            sum(r.signature_bytes for r in mine) / k, "bytes")
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit)
    provenance: dict
    detail: dict
    state: object
    untraced: Loop
    traced: Loop | None = None


def run(workload, seed: int, seconds: float, trace: bool, *,
        max_ops: int = 1 << 30, span_file: Path | None = None) -> Result:
    """Set up, measure, check; with ``trace`` every operation is also
    replayed under the layer wrappers and the per-layer metrics returned."""
    setup_s, setup_raw_s, st = setup(workload, seed)
    tracer = Tracer(st.par) if trace else None
    untraced, traced = measure(workload, st, seconds, max_ops, tracer)
    if not untraced.samples:
        raise BenchError("no operation completed")
    detail = {}
    if not trace:
        metrics = end_to_end(untraced, setup_s)
        stages = ["offline", "online", "verify", "op"]
        if isinstance(workload, EndorseWorkload):
            detail.update(stage_metrics(untraced, ("revised", "default")))
            stages += ["revised", "default"]
        detail["raw"] = {
            **stage_metrics(untraced, stages, scaled=False),
            "setup_s": setup_raw_s,
            "ops_per_s": len(untraced.samples) * 1e9 / untraced.op_ns(untraced.samples),
        }
        detail["kernel_ms.p50"] = REF_NS * 1e-6 / statistics.median(
            s.scale for s in untraced.samples.values())
        detail["samples"] = len(untraced.samples)
    else:
        done = list(traced.samples)
        if not done:
            raise BenchError("no operation completed under tracing")
        traced_ns = traced.op_ns(done)
        metrics = tracer.layer_metrics(len(done), traced_ns)
        if isinstance(workload, SignWorkload):
            counts = tracer.group_counts_by_op()
            for i in done:
                want = workload.expected_group_ops(traced.samples[i].attempts)
                got = {k: counts[i][k] for k in want}
                if got != want:
                    sample = traced.samples[i]
                    traced.failed += not sample.errors
                    sample.errors.append(f"group ops {got}, expected {want}")
                    _report(workload, i, sample.errors[-1])
        metrics.update(endorsement_metrics(traced))
        metrics["trace.overhead"] = (1 - untraced.op_ns(done) / traced_ns, "ratio")
        detail["traced_ops"] = len(done)
        detail["spans"] = len(tracer)
        if span_file is not None:
            span_file.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(span_file)
            detail["span_file"] = span_file.name
    attempted = untraced.attempted + (traced.attempted if traced else 0)
    failed = untraced.failed + (traced.failed if traced else 0)
    detail["error_rate"] = failed / max(1, attempted)
    provenance = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": st.par.group_id,
        "n": workload.n,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "multisig": multisig.__version__,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
    }
    return Result(failed == 0 and attempted > 0, attempted, failed, metrics,
                  provenance, detail, st, untraced, traced)
