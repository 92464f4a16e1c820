"""Two-clock layered benchmark over the SISA serving stack.

Run from the repository root::

    python benchmarks/layers/run.py --workload tri-warm --seed 1
    python benchmarks/layers/run.py --workload serve-churn --seed 1 --trace 1
    python benchmarks/layers/run.py --all --seed 1 --trace 1   # writes results/BENCH_layers.json
    python benchmarks/layers/run.py --all --seed 1 --repeat 5 --out base.json

One workload run builds the workload's inputs from ``--seed``, times
seven cold starts (``setup_s``), then drives the closed loop for
``--seconds`` and reports the end-to-end metrics.  The outputs are
checked against independent oracles after the timed window.  With
``--trace 1`` the loop runs for half the time untraced, then the same
requests are replayed from a fresh start under :class:`LayerTracer`;
the run reports the per-layer metrics and fails unless both replays
return identical outputs and modeled cycles.

The run prints every metric by name and unit, one ``RECORD`` line
holding the full JSON record (machine block, metrics, per-request
modeled cycles and output digests), and as its last line the summary
``{"correct", "attempted", "failed", "metrics"}``, whose metrics are
the ``end_to_end`` (or, traced, the ``per_layer``) entries of the root
``BENCHMARK.json``.  It exits non-zero when an output is wrong.
``--all`` runs every workload in a fresh interpreter each.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SPANS = HERE / "spans"
for _path in (HERE, ROOT / "src", ROOT / "benchmarks"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

COLD_STARTS = 7
WARMUP = 2
#: Serve requests whose outputs are checked; static workloads check
#: their first measured request and require every other to match it.
SAMPLE_EVERY = 10
#: Peak RSS is read after this many measured requests (or at the end of
#: a shorter run): serve-churn keeps every request's spans, so a peak
#: read at the end would grow with the number of requests a run fits.
RSS_AFTER = 30


@dataclass
class Loop:
    """Per-request measurements of one closed-loop pass."""

    latencies: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    updates: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    spans: dict | None = None  # Chrome trace of the first traced request
    rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def closed_loop(wl, *, seconds=None, requests=None, tracer=None) -> Loop:
    """Warm up, then issue requests back to back until ``seconds``
    elapse (or ``requests`` have run).  With a tracer, the serving
    object is built and driven with the layers wrapped."""
    from repro.session.cache import fingerprint
    from tracing import chrome_trace

    loop = Loop()
    with tracer if tracer is not None else nullcontext():
        state = wl.open()
        try:
            for i in range(WARMUP):
                wl.request(state, i)
            gc.collect()
            before = wl.counters(state)
            if tracer is not None:
                tracer.reset()
            i = WARMUP
            deadline = perf_counter() + (seconds or 0.0)
            while (
                perf_counter() < deadline
                if requests is None
                else len(loop.latencies) < requests
            ):
                ops = wl.instructions(state)
                if tracer is not None and i == WARMUP:
                    tracer.start_spans()
                t0 = perf_counter()
                try:
                    reply = wl.request(state, i)
                except Exception:  # a raising request is a failed request
                    reply = None
                    loop.errors.append(f"request {i} raised:\n{traceback.format_exc()}")
                loop.latencies.append(perf_counter() - t0)
                if tracer is not None and i == WARMUP:
                    loop.spans = chrome_trace(tracer.take_spans(), i)
                if len(loop.latencies) == RSS_AFTER:
                    loop.rss_mb = _peak_rss_mb()
                loop.ops.append(wl.instructions(state) - ops)
                if reply is None:
                    loop.ok.append(False)
                    loop.cycles.append(0.0)
                    loop.digests.append("raised")
                else:
                    loop.ok.append(not reply.failed)
                    loop.cycles.append(reply.cycles)
                    loop.digests.append(fingerprint(reply.outputs)[:16])
                    if reply.update_s is not None:
                        loop.updates.append(reply.update_s)
                    if (i == WARMUP) if wl.static else (i % SAMPLE_EVERY == 0):
                        loop.samples.append((i, reply.outputs))
                i += 1
            if tracer is not None:
                loop.self_s, loop.calls = tracer.self_s, tracer.calls
            loop.rss_mb = loop.rss_mb or _peak_rss_mb()
            after = wl.counters(state)
        finally:
            wl.close(state)
    loop.counters = {k: after[k] - before[k] for k in after}
    return loop


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(loop: Loop, setup_s: float) -> dict:
    done = [(t, o) for t, o, ok in zip(loop.latencies, loop.ops, loop.ok) if ok]
    latencies = [t for t, __ in done] or [float("nan")]
    rates = [o / t for t, o in done] or [float("nan")]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (_percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (_percentile(latencies, 90) * 1e3, "ms"),
        # Median per-request rate: as robust to host hiccups as p50.
        "sim_kips": (_percentile(rates, 50) / 1e3, "kinstr/s"),
        "modeled_mcycles_per_req": (
            sum(loop.cycles) / len(loop.cycles) / 1e6,
            "Mcycles",
        ),
        "peak_rss_mb": (loop.rss_mb, "MB"),
    }
    if loop.updates:
        metrics["update_p50_ms"] = (_percentile(loop.updates, 50) * 1e3, "ms")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(base: Loop, traced: Loop) -> dict:
    n = len(traced.latencies)
    wall = sum(traced.latencies)
    c = traced.counters
    metrics = {}
    for layer, seconds in traced.self_s.items():
        metrics[f"{layer}.calls"] = (traced.calls[layer] / n, "calls/req")
        metrics[f"{layer}.self_s"] = (seconds, "s")
        metrics[f"{layer}.share"] = (seconds / wall, "fraction")
    metrics.update(
        {
            "isa.scu.ops": (c["scu_ops"] / n, "ops/req"),
            "isa.scu.smb_hit_ratio": (_ratio(c["smb_hits"], c["smb_accesses"]), "fraction"),
            "session.cache.hit_ratio": (
                _ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
                "fraction",
            ),
            "session.cache.corruptions": (c["cache_corruptions"] / n, "count/req"),
            "serving.retries": (c["retries"] / n, "count/req"),
            "serving.retry_ratio": (_ratio(c["retries"], c["attempts"]), "fraction"),
            "serving.retry_mcycles": (c["retry_cycles"] / n / 1e6, "Mcycles/req"),
            "streaming.orientation.repairs": (c["repairs"] / n, "count/req"),
            "streaming.orientation.full_repeels": (c["full_repeels"] / n, "count/req"),
            "streaming.orientation.resyncs": (c["resyncs"] / n, "count/req"),
            "parallel.workers.offload_ratio": (
                _ratio(c["offloaded"], c["offloaded"] + c["inline"]),
                "fraction",
            ),
            "observability.spans": (c["spans"] / n, "spans/req"),
            "trace_overhead": (wall / sum(base.latencies) - 1.0, "fraction"),
        }
    )
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def oracle_errors(wl, loop: Loop) -> list[str]:
    errors = []
    if wl.static and len(set(loop.digests)) > 1:
        errors.append("a static workload answered differently across requests")
    for i, outputs in loop.samples:
        errors.extend(wl.check(i, outputs))
    return errors


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout's own ``.git`` ("unknown" without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload run; returns its full record."""
    from tracing import LayerTracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, smoke)
    colds = []
    for _ in range(1 if smoke else COLD_STARTS):
        gc.collect()
        t0 = perf_counter()
        state = wl.open()
        try:
            wl.request(state, 0)
            colds.append(perf_counter() - t0)
        finally:
            wl.close(state)
    base = closed_loop(wl, seconds=seconds / 2 if trace else seconds)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "machine": machine(),
        "attempted": len(base.latencies),
        "failed": base.failed,
        "metrics": end_to_end(base, median(colds)),
        "setup_samples_s": colds,
        "latencies_s": base.latencies,
        "cycles": base.cycles,
        "digests": base.digests,
    }
    errors = base.errors + oracle_errors(wl, base)
    if trace:
        traced = closed_loop(wl, requests=len(base.latencies), tracer=LayerTracer())
        errors += traced.errors
        if traced.digests != base.digests:
            errors.append("traced outputs differ from the untraced run")
        if traced.cycles != base.cycles:
            errors.append("traced modeled cycles differ from the untraced run")
        record["traced_failed"] = traced.failed
        record["layers"] = layer_metrics(base, traced)
        if traced.spans is not None:
            SPANS.mkdir(exist_ok=True)
            dump = SPANS / f"{name}-seed{seed}.json"
            dump.write_text(json.dumps(traced.spans, separators=(",", ":")))
            record["spans"] = str(dump.relative_to(ROOT))
    record["errors"] = errors
    record["correct"] = not errors
    return record


def summary(record: dict, spec: dict) -> dict:
    """The contract's last line: the metrics ``BENCHMARK.json`` lists."""
    if record["trace"]:
        names, source = spec["per_layer"], record["layers"]
        failed = record["traced_failed"]
    else:
        names, source = spec["end_to_end"], record["metrics"]
        failed = record["failed"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {m["name"]: source[m["name"]] for m in names},
    }


def _print_metrics(record: dict) -> None:
    name = record["workload"]
    for group in ("metrics", "layers"):
        for metric, m in record.get(group, {}).items():
            print(f"{name:<13} {metric:<40} {m['value']:>14.6g} {m['unit']}")
    for error in record["errors"]:
        print(f"{name:<13} ERROR {error}")


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter (the parallel path
    spawns workers, which re-import the main module)."""
    from workloads import WORKLOADS

    records, ok = [], True
    for _ in range(args.repeat):
        for name in WORKLOADS:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            record = next(
                (json.loads(line[len("RECORD "):]) for line in lines if line.startswith("RECORD ")),
                None,
            )
            print("\n".join(line for line in lines[:-1] if not line.startswith("RECORD ")))
            if proc.returncode != 0 or record is None:
                ok = False
                sys.stderr.write(proc.stderr)
            if record is not None:
                records.append(record)
    out = args.out or (RESULTS / "BENCH_layers.json" if args.trace else None)
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        lines = ",\n".join(json.dumps(record) for record in records)
        Path(out).write_text('{"bench": "layers", "runs": [\n' + lines + "\n]}\n")
        print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} lacks src/repro or BENCHMARK.json; run from a repository checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=list(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload, one interpreter each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, one cold start")
    parser.add_argument("--repeat", type=int, default=1, help="--all: runs per workload")
    parser.add_argument("--out", type=Path, help="--all: where to write the records")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _print_metrics(record)
    print("RECORD " + json.dumps(record))
    print(json.dumps(summary(record, spec)))
    return 0 if record["correct"] else 1


def stop_children() -> None:
    """Stop and reap every process the run started.  Shard workers are
    joined when their pool closes; this also reaps any left over and
    the shared-memory resource tracker, which the parallel path starts
    and which would otherwise outlive the run as an orphan."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()  # run pending segment finalizers while the tracker is up
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
