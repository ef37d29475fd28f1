#!/usr/bin/env python3
"""One point of the benchmark trajectory: `BENCH_<label>.json`.

Runs `python3 perfbench/run.py --workload <name> --seed 18 --seconds 10`
(perfbench's default seed and BENCHMARK.json's `run_seconds`; perfbench is
read, never changed) for each of its four workloads in turn, on this
checkout's `src/`, and writes one compact file. Every point of the
trajectory is taken at that one seed and length, so that points compare.
Per workload it records:

- `metrics`: the end-to-end metrics run.py prints (times in seconds at the
  speed probe's full speed);
- `quartiles`: the quartiles of the untraced lists' `wall_s`, `cpu_s` and
  `peak_rss_mb`, times scaled by the same slowdown as the metrics;
- `correct`, `attempted` and `failed`, as run.py prints them, and the
  run's `slowdown`;
- `code_sha256`, run.py's digest of the `src/geocluster` tree it measured.

For the whole file it records the git commit checked out and whether the
tracked tree differs from it, the numpy and scipy versions, and
`OPENBLAS_NUM_THREADS` and `OPENBLAS_THREAD_TIMEOUT` as the benchmark's
child processes see them, that is after `import geocluster` (which sets
the timeout's default).

A file is one point, not a before/after comparison: a perf change commits
its own file beside its parent's. A claim still needs alternated pairs of
runs; see ROADMAP.md. One call takes about a minute.

Usage:
    python scripts/bench.py <label> [--out bench]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import numpy  # noqa: E402
import scipy  # noqa: E402
from run import WORK, child_env, quartiles  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

LIST_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")
SEED = DEFAULT_SEED
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def workload_entry(line: dict, result: dict) -> dict:
    """The record of one workload from run.py's last stdout line `line` and
    the full result file `result` it wrote."""
    plain = [run for run in result["lists"] if not run["traced"]]
    slowdown = result["slowdown"]
    return {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: metric["value"] for name, metric in line["metrics"].items()},
        "quartiles": {key: [q / slowdown if key.endswith("_s") else q
                            for q in quartiles([run[key] for run in plain])]
                      for key in LIST_METRICS},
        "lists": len(plain),
        "slowdown": slowdown,
        "code_sha256": result["code_sha256"],
    }


def run_workload(name: str) -> dict:
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", name,
                           "--seed", str(SEED), "--seconds", str(SECONDS)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench {name} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    result = json.loads((WORK / "results" / f"{name}-seed{SEED}-trace0.json").read_text())
    return workload_entry(line, result)


def environment() -> dict:
    """The versions and BLAS settings a benchmark child process runs with."""
    code = ("import json, os, geocluster; "
            f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_SETTINGS!r}}}))")
    child = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                           capture_output=True, text=True, check=True)

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    return {
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **json.loads(child.stdout),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    parser.add_argument("--out", default=str(ROOT / "bench"), help="output directory")
    args = parser.parse_args(argv)
    bench = {"label": args.label, "seed": SEED, "seconds": SECONDS, **environment(),
             "workloads": {name: run_workload(name) for name in WORKLOADS}}
    out = Path(args.out) / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
