"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 1]

1. Every metric of BENCHMARK.json is printed, with its unit, for every
   workload (end-to-end metrics with --trace 0, per-layer with --trace 1).
2. Two seeds give different inputs but the same metric names.
3. A deliberately wrong oracle reference (--wrong-oracle) makes failed
   operations appear on every workload, so the gates are live.
4. Run outside a source tree, the benchmark exits non-zero without a
   result line.

Exits non-zero and names the problem if any check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int,
        extra: tuple[str, ...] = (), cwd: Path = ROOT, script: Path = RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def parse(lines):
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark self-checks")
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for wl in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            names = []
            for seed in (1, 2):
                rc, lines = run(wl, seed, args.seconds, trace)
                if rc != 0:
                    problems.append(f"{wl} trace {trace} seed {seed}: exit {rc}")
                    continue
                report, result = parse(lines)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{wl} trace {trace}: metrics/units differ from "
                                    f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{wl} trace {trace} seed {seed}: "
                                    f"failures {report['failures']}")
                names.append((report["input_digest"], sorted(got)))
            if len(names) == 2:
                if names[0][0] == names[1][0]:
                    problems.append(f"{wl}: seeds 1 and 2 gave the same inputs")
                if names[0][1] != names[1][1]:
                    problems.append(f"{wl}: seeds 1 and 2 gave different metric names")
            print(f"{wl} trace {trace}: checked", flush=True)

        rc, lines = run(wl, 1, args.seconds, 0, ("--wrong-oracle",))
        _, result = parse(lines)
        if rc != 0 or result["failed"] == 0 or result["correct"]:
            problems.append(f"{wl}: a wrong oracle reference did not fail any operation")
        else:
            print(f"{wl} wrong oracle: {result['failed']}/{result['attempted']} "
                  "operations failed, as intended", flush=True)

    (HERE / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
        rc, lines = run("constants", 1, args.seconds, 0, cwd=bare,
                        script=bare / HERE.name / RUN.name)
        if rc == 0 or any(ln.startswith('{"correct"') for ln in lines):
            problems.append("without sources the benchmark did not fail cleanly")
        else:
            print(f"without sources: exit {rc}, no result line", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for msg in problems:
        print("PROBLEM:", msg)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
