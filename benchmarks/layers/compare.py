"""Compare two sets of layered-benchmark records.

Usage (from the repository root)::

    python benchmarks/layers/run.py --all --repeat 5 --out base.json   # on the parent
    python benchmarks/layers/run.py --all --repeat 5 --out head.json   # on the change
    python benchmarks/layers/compare.py base.json head.json

For every workload and every metric the records hold it prints each
side's median and quartiles; only ``end_to_end`` metrics are judged.
An ``end_to_end`` metric whose median got worse by more
than its ``BENCHMARK.json`` bound is a REGRESSION; one whose spread
(quartile distance over median, on either side) is wider than the bound,
or that has a single run on a side, is "unresolved", unless every head
run beats every base run.
``modeled_mcycles_per_req`` must instead match exactly: runs paired by
seed must report identical modeled cycles for every request both ran,
and identical failed fractions.  The bounds live only in
``BENCHMARK.json``.  Exits 1 on a regression, a mismatch or an
incorrect run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]
EXACT = "modeled_mcycles_per_req"


def _runs(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for record in json.loads(path.read_text())["runs"]:
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q2, q1, q3


def _exact(base: list[dict], head: list[dict]) -> str | None:
    """Why the paired runs' modeled cycles or failures differ."""
    for b in base:
        pair = next((h for h in head if h["seed"] == b["seed"]), None)
        if pair is None:
            continue
        head.remove(pair)
        n = min(len(b["cycles"]), len(pair["cycles"]))
        if b["cycles"][:n] != pair["cycles"][:n]:
            return f"seed {b['seed']}: modeled cycles differ"
        if b["failed"] / b["attempted"] != pair["failed"] / pair["attempted"]:
            return f"seed {b['seed']}: failed fraction differs"
    return None


def compare(base_path: Path, head_path: Path, spec: dict) -> int:
    base, head = _runs(base_path), _runs(head_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    print(f"{'workload':<13} {'metric':<38} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'change':>8}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        b_runs, h_runs = base.get(wl, []), head.get(wl, [])
        if not b_runs or not h_runs:
            print(f"{wl:<13} missing on one side")
            bad += 1
            continue
        if not all(r["correct"] for r in b_runs + h_runs):
            print(f"{wl:<13} INCORRECT run on one side")
            bad += 1
        exact = _exact(b_runs, list(h_runs))
        for group in ("metrics", "layers"):
            for name in dict.fromkeys(n for r in b_runs + h_runs for n in r.get(group, {})):
                bv = [r[group][name]["value"] for r in b_runs if name in r.get(group, {})]
                hv = [r[group][name]["value"] for r in h_runs if name in r.get(group, {})]
                if not bv or not hv:
                    continue
                (bm, b1, b3), (hm, h1, h3) = _stats(bv), _stats(hv)
                change = (hm - bm) / bm if bm else 0.0
                m = bounds.get(name) if group == "metrics" else None
                if name == EXACT:
                    verdict = "MISMATCH: " + exact if exact else "exact"
                elif m is None:
                    verdict = "-"  # no bound: reported, not judged
                else:
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    spread = max(
                        (b3 - b1) / bm if bm else 0.0, (h3 - h1) / hm if hm else 0.0
                    )
                    all_better = all(sign * h < sign * b for h in hv for b in bv)
                    unknown = min(len(bv), len(hv)) < 2 or spread > m["bound"]
                    if unknown and not all_better:
                        verdict = "unresolved"
                    elif sign * change > m["bound"]:
                        verdict = "REGRESSION"
                    else:
                        verdict = "ok"
                bad += verdict.startswith(("REGRESSION", "MISMATCH"))
                print(f"{wl:<13} {name:<38} {bm:>12.5g} [{b1:.4g}, {b3:.4g}]".ljust(86)
                      + f"{hm:>12.5g} [{h1:.4g}, {h3:.4g}]".ljust(34)
                      + f"{change:>+8.1%}  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="records of the parent (run.py --out)")
    parser.add_argument("head", type=Path, help="records of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args.base, args.head, spec)


if __name__ == "__main__":
    sys.exit(main())
