"""maasslab benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload mean-value --seed 1 --seconds 15 --trace 0

After set-up and one discarded warm-up pass, passes run back to back in
this process until --seconds have elapsed (and at least a few passes
have run).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no tracing.  wall_s and cpu_s are times per pass: the
mean over the timed passes, i.e. the inverse of the closed-loop
throughput.  The host this was tuned on switches between speed regimes
that last minutes; a per-run median snaps to whichever regime dominated
the run, while the mean moves with the share of time spent in each, so
the mean is the steadier figure run to run.  The per-pass median and
quartiles are in the report line.  With --trace 1 the metrics are the
per-layer ones: untraced and traced passes alternate, the traced ones
record a span per library call (spans.py), per-function figures are
medians over traced passes, and trace_overhead_s is the difference of
the mean traced and untraced pass times.  The line before it is a JSON report
with provenance, pass statistics, failures and the full per-function
breakdown; the report (and, when traced, the spans) are also written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
MIN_PASSES = 3            # untraced passes in a --trace 0 run
MIN_TRACED = 2            # of each kind in a --trace 1 run
SETUP_REPEATS = 5
SETUP_IMPORT = "import maasslab, numpy, scipy.special"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--wrong-oracle", action="store_true",
                   help="perturb one oracle reference (self-check of the gates)")
    return p.parse_args(argv)


def quartiles(values: list[float]) -> dict:
    v = sorted(values)
    q = statistics.quantiles(v, n=4)
    return {"mean": statistics.fmean(v), "median": statistics.median(v),
            "q1": q[0], "q3": q[2], "min": v[0], "max": v[-1], "n": len(v)}


def measure_setup() -> list[float]:
    """Wall time for a fresh interpreter to import the package and the
    modules every workload calls; the first (cold) import is dropped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=env, check=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return times[1:]


def run_passes(workload, ops, seconds, recorder, caches):
    """Warm-up pass, then timed passes; traced ones alternate when a
    recorder is given.  Returns {"untraced": [...], "traced": [...]} of
    (pass id, wall s, cpu s)."""
    workload.run_pass(ops)
    passes = {"untraced": [], "traced": []}
    start = time.perf_counter()
    pid = 0
    while True:
        traced = recorder is not None and pid % 2 == 1
        for fn in caches:               # every CLI invocation pays these
            fn.cache_clear()
        if traced:
            recorder.install(pid)
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            workload.run_pass(ops)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if traced:
                recorder.uninstall()
        passes["traced" if traced else "untraced"].append((pid, wall, cpu))
        pid += 1
        if recorder is None:
            enough = len(passes["untraced"]) >= MIN_PASSES
        else:
            enough = min(len(passes["untraced"]), len(passes["traced"])) >= MIN_TRACED
        if enough and time.perf_counter() - start >= seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maasslab" / "__init__.py").is_file():
        print(f"error: no maasslab sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one client and no threads beyond the program's own: BLAS runs
    # single-threaded (its idle threads spin on the second core otherwise)
    for var in host.BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    os.environ.pop("MAASSLAB_ENDPOINT", None)     # records come from the cache

    from maasslab import bounds, cli, dde, density, ingest, satake, sieve

    import counters
    from spans import Recorder
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    modules = {"sieve": sieve, "dde": dde, "density": density,
               "ingest": ingest, "satake": satake, "bounds": bounds}
    caches = [obj for mod in (*modules.values(), cli) for obj in vars(mod).values()
              if hasattr(obj, "cache_clear")]
    setup_times = measure_setup() if args.trace == 0 else []

    prov = host.provenance(ROOT, args.seed)
    (HERE / ".work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir, args.wrong_oracle)
        workload.setup()
        recorder = None
        if args.trace:
            recorder = Recorder(modules, {"cli.main": (cli, "main")},
                                counters.COUNTERS)
        ops = Ops()
        passes = run_passes(workload, ops, args.seconds, recorder, caches)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    walls = [w for _, w, _ in passes["untraced"]]
    cpus = [c for _, _, c in passes["untraced"]]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wrong_oracle": args.wrong_oracle,
        "input_digest": workload.input_digest(),
        "passes": {k: len(v) for k, v in passes.items()},
        "wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
        "pass_walls_s": walls,
        "fail_ratio": ops.failed / ops.attempted,
        "failures": ops.failures[:10],
        "provenance": prov,
        "computed_sizes": host.computed_sizes(prov["caches"]),
        "loop": "closed: one client, one process, passes back to back",
    }
    values: dict[str, float] = {}
    if args.trace == 0:
        values = {"wall_s": statistics.fmean(walls), "cpu_s": statistics.fmean(cpus),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        report["setup_s"] = quartiles(setup_times)
        wanted = bench["end_to_end"]
    else:
        traced = passes["traced"]
        per_pass = recorder.per_pass([pid for pid, _, _ in traced],
                                     {pid: w for pid, w, _ in traced})
        keys = list(next(iter(per_pass.values())))
        values = {k: statistics.median(m[k] for m in per_pass.values()) for k in keys}
        traced_wall = statistics.fmean(w for _, w, _ in traced)
        values["trace.traced_pass_s"] = traced_wall
        values["trace.untraced_pass_s"] = statistics.fmean(walls)
        values["trace_overhead_s"] = traced_wall - statistics.fmean(walls)
        report["layers"] = values
        wanted = bench["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    report["absent"] = [m["name"] for m in wanted if m["name"] not in values]

    try:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if recorder is not None:
            recorder.save(stem.with_suffix(".spans.npz"))
            report["spans_file"] = str(stem.with_suffix(".spans.npz").relative_to(ROOT))
        stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    except OSError as exc:
        report["write_error"] = str(exc)

    print(json.dumps(report))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
