"""prodsurf benchmark: one workload, measured for a time budget, verdicts checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload identity_sweep --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (a *worker*): it imports
``prodsurf.cli``, builds the seeded inputs, prints ``ready`` and makes one
closed-loop pass over every item.  So every workload measures the same
thing, a cold pass, and work moved between set-up and the first call shows
in ``wall_ref_s``.  A run starts workers until the next one would end past
``--seconds``, and always starts at least one.

With ``--trace 0`` the run reports the end-to-end metrics (tracing off),
with times at the reference speed of ``calibration.py``:

* ``wall_ref_s``  median over workers of one pass, from the first call to
                  the last verdict, report serialization included;
* ``setup_s``     median over fresh interpreters (the workers, plus set-up
                  only ones up to ``SETUP_PROBES``) of spawn to inputs ready;
* ``peak_rss_mb`` median over workers of the worker's peak resident memory.

With ``--trace 1`` it reports the per-layer metrics of ``tracing.py``
instead, as medians over traced workers; spans go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where
``attempted``/``failed`` count checks: every verdict and every gate of
``workloads.py``, plus the report-byte comparisons made here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("identity_sweep", "balance_laws", "sign_radial_scan")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_thread_pools() -> None:
    """One process, with every BLAS/OpenMP pool capped at the core count."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def machine_block() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def source_digest() -> str:
    """Hash of the program and benchmark sources, keying the report store."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- worker: one fresh interpreter ------------------------------------------------

def worker(workload: str, seed: int, make_pass: bool, spans: Path | None) -> int:
    """Set up; print ``ready``; take the set-up calibration slices; then, if
    asked, make one pass.  Print the result as one JSON line."""
    import prodsurf.cli  # noqa: F401  (the CLI cold start is part of set-up)
    import workloads
    from calibration import SETUP_SLICES, Calibrator
    tracer = None
    if spans is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        items = workloads.setup(workload, seed)
        print("ready", flush=True)
        setup_cal = Calibrator()
        for _ in range(SETUP_SLICES):
            setup_cal.slice()
        out = {"setup_scale": setup_cal.scale(1.0)}
        if not make_pass:
            print(json.dumps(out), flush=True)
            return 0
        if tracer is not None:
            tracer.pass_label = "pass"
        cal = Calibrator()
        t0 = perf_counter()
        result = workloads.run_pass(workload, items, tracer, cal.tick)
        wall = perf_counter() - t0 - sum(cal.times)
        cal.final()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.update({
        "wall_s": wall,
        "wall_ref_s": cal.scale(wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report": hashlib.sha256(result.report).hexdigest(),
        # the inputs, as the sorted item keys: with the sources they key
        # the report store
        "inputs": hashlib.sha256("\n".join(
            sorted(it.key for it in items)).encode()).hexdigest(),
        "checks": len(result.checks),
        "failed": [label for ok, label in result.checks if not ok],
    })
    if tracer is not None:
        out["layers"] = tracer.layer_metrics("pass", out["wall_ref_s"])
        tracer.write_spans(spans)
    print(json.dumps(out), flush=True)
    return 0


def spawn(workload: str, seed: int, make_pass: bool,
          spans: Path | None = None) -> tuple[float, float, dict]:
    """Run one worker; return its set-up seconds (spawn to ``ready``, timed
    here), the same at the reference speed, and its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--worker", "pass" if make_pass else "setup"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            rest, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {err}")
    result = json.loads(rest.splitlines()[-1])
    return ready - start, (ready - start) * result["setup_scale"], result


# -- the run -------------------------------------------------------------------------

def compare_with_store(workload: str, inputs: str, report: str
                       ) -> list[tuple[bool, str]]:
    """Check the report digest against the one stored by an earlier run.

    The store is keyed by the sources and the workload's inputs, so a run
    with the same program and the same inputs must reproduce the stored
    bytes.  The first such run records them.
    """
    key = hashlib.sha256("\n".join([workload, source_digest(), inputs]).encode()
                         ).hexdigest()
    store = OUT / "reports.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key not in known:
        known[key] = report
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
        return []
    return [(known[key] == report,
             f"report bytes match an earlier run of this checkout "
             f"({report[:12]} vs {known[key][:12]})")]


def run_workers(workload: str, seed: int, seconds: float, trace: bool):
    """Start pass workers until the budget is spent (at least one).

    Returns the set-up seconds (measured, reference) and pass results of
    the workers, the number of checks made and the labels of those that
    failed.
    """
    setups, passes, durations, failed = [], [], [], []
    attempted = 0
    start = perf_counter()
    while True:
        label = f"worker{len(passes)}"
        spans = OUT / f"spans-{workload}-{seed}-{label}.jsonl" if trace else None
        t0 = perf_counter()
        setup_s, setup_ref_s, result = spawn(workload, seed, True, spans)
        durations.append(perf_counter() - t0)
        setups.append((setup_s, setup_ref_s))
        passes.append(result)
        attempted += result["checks"]
        failed += [f"{label}: {f}" for f in result["failed"]]
        if len(passes) > 1:
            attempted += 1
            if result["report"] != passes[0]["report"]:
                failed.append(f"{label}: report bytes differ from worker0")
        if perf_counter() - start + statistics.median(durations) > seconds:
            break
    for ok, label in compare_with_store(workload, passes[0]["inputs"],
                                        passes[0]["report"]):
        attempted += 1
        if not ok:
            failed.append(label)
    return setups, passes, attempted, failed


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", choices=("setup", "pass"), help=argparse.SUPPRESS)
    p.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "prodsurf" / "__init__.py").is_file():
        print(f"error: no prodsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        return worker(args.workload, args.seed, args.worker == "pass", args.spans)
    if args.seconds is None:
        p.error("--seconds is required")

    cap_thread_pools()
    OUT.mkdir(exist_ok=True)
    print("machine " + json.dumps(machine_block(), sort_keys=True))

    setups, passes, attempted, failed = run_workers(
        args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        from tracing import LAYER_METRICS
        units = LAYER_METRICS
        values = {name: statistics.median(r["layers"][name] for r in passes)
                  for name in units}
        values = {name: float(v) if units[name] == "s" else int(v)
                  for name, v in values.items()}
    else:
        while len(setups) < SETUP_PROBES:
            setups.append(spawn(args.workload, args.seed, False)[:2])
        units = END_TO_END
        values = {"wall_ref_s": statistics.median(r["wall_ref_s"] for r in passes),
                  "setup_s": statistics.median(ref for _, ref in setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                   for r in passes)}

    for label in failed:
        print(f"FAILED {label}")
    walls = ", ".join(f"{r['wall_s']:.3f}/{r['wall_ref_s']:.3f}" for r in passes)
    sets = ", ".join(f"{raw:.3f}/{ref:.3f}" for raw, ref in setups)
    print(f"{args.workload} seed={args.seed}: {len(passes)} workers, "
          f"walls {walls} s, set-ups {sets} s (measured/reference); "
          f"{attempted} checks, {len(failed)} failed")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
