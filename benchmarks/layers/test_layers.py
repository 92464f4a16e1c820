"""Smoke test of the layered benchmark.

Every workload runs at tiny size through the benchmark's own entry
point (``run.py``), traced, so the test covers the contract end to end:
each ``BENCHMARK.json`` metric is emitted with its unit, the oracles
pass, and the traced replay returns the untraced outputs and modeled
cycles.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_workload_traced_at_tiny_size(tmp_path):
    out = tmp_path / "layers.json"
    proc = _run("--all", "--smoke", "--seconds", "0.3", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [w["name"] for w in SPEC["workloads"]]
    for record in runs:
        assert record["correct"], record["errors"]
        assert record["failed"] == record["traced_failed"] == 0
        assert set(record["machine"]) == {"nproc", "python", "numpy", "platform", "git_commit"}
        for group, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for metric in SPEC[group]:
                assert record[key][metric["name"]]["unit"] == metric["unit"]


def test_last_line_is_the_summary_object():
    proc = _run("--workload", "tri-warm", "--smoke", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["attempted"] >= 1 and summary["failed"] == 0
    assert list(summary["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def _namespaces():
    """Every attribute of every loaded repro module and of the classes
    they define, by identity."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            snapshot[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snapshot[(name, key, attr)] = member
    return snapshot


def test_tracer_restores_everything_it_wraps():
    from tracing import LayerTracer

    from repro.graphs.generators import kronecker_graph
    from repro.session import SisaSession

    graph = kronecker_graph(6, 8, seed=1)
    plain = SisaSession(graph).run("triangles")
    before = _namespaces()
    tracer = LayerTracer()
    with tracer:
        traced = SisaSession(graph).run("triangles")
    after = _namespaces()
    assert all(after[key] is value for key, value in before.items())
    assert (traced.output, traced.runtime_cycles) == (plain.output, plain.runtime_cycles)
    assert tracer.calls["session.plan"] >= 1
    assert tracer.calls["runtime.batch"] >= 1
    assert sum(tracer.self_s.values()) > 0
