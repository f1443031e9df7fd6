"""Maintenance commands for the benchmark's committed data.

``python3 perfbench/baseline.py reference``
    Recompute ``reference_orders.json``: the convergence order of every
    identity check on every compact scenario (``null`` when the residuals sit
    at the rounding floor).  ``identity_sweep`` fails a run whose orders move
    by more than ``workloads.ORDER_DRIFT`` from these.

``python3 perfbench/baseline.py measure``
    Run ``run.py`` untraced on every workload for seeds 1..10 (the workloads
    interleaved per seed, ``run_seconds`` of BENCHMARK.json per run), then
    once traced per workload, and write
    ``baseline.json``: per workload, every end-to-end value with its median,
    quartiles and spread (interquartile range over median), the traced
    per-layer table and the tracing overhead (traced minus untraced median
    ``wall_ref_s``), beside the machine block.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, SRC, WORKLOADS

RUN = HERE / "run.py"
SEEDS = range(1, 11)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def write_reference() -> None:
    sys.path.insert(0, str(SRC))
    from prodsurf import identities, zoo
    table = {}
    for sc in zoo.list_scenarios():
        if not sc.compact:
            continue
        surface, grid, _ = zoo.instantiate(sc.name)
        table[sc.name] = {
            r.name: None if r.convergence_order is None
            else round(r.convergence_order, 6)
            for r in identities.run_suite(surface, grid.resolution, refine=1)}
        print(sc.name, table[sc.name], flush=True)
    (HERE / "reference_orders.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")


def run_once(workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    print(lines[-2] if len(lines) > 1 else "", flush=True)
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def measure() -> None:
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    machine = None
    for seed in SEEDS:
        for w in WORKLOADS:
            result, machine = run_once(w, seed, 0)
            runs[w].append(result)
    table = {}
    for w in WORKLOADS:
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs[w]])
                   for name in runs[w][0]["metrics"]}
        for name, spec in runs[w][0]["metrics"].items():
            metrics[name]["unit"] = spec["unit"]
        traced, _ = run_once(w, 1, 1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        table[w] = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in runs[w]) and traced["correct"],
            "ops": sum(r["attempted"] for r in runs[w]),
            "ops_failed": sum(r["failed"] for r in runs[w]) + traced["failed"],
            "end_to_end": metrics,
            "per_layer_traced_seed1": layers,
            "tracing_overhead_s": layers["trace.wall_ref_s"]
            - metrics["wall_ref_s"]["median"],
        }
    (HERE / "baseline.json").write_text(json.dumps(
        {"seconds": SECONDS, "machine": machine, "workloads": table},
        indent=2) + "\n")
    for w in WORKLOADS:
        print(w, {k: round(v["spread"], 4)
                  for k, v in table[w]["end_to_end"].items()})


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("command", choices=("reference", "measure"))
    args = p.parse_args()
    if args.command == "reference":
        write_reference()
    else:
        measure()
    return 0


if __name__ == "__main__":
    sys.exit(main())
