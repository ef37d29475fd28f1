"""geocluster benchmark: times CLI workloads end to end from outside the
package, and per layer from a separate traced run.

    python3 perfbench/run.py --workload sweep [--seed 18] [--seconds 10] [--trace 0|1]

Run from anywhere inside a checkout; the checkout root is the parent of
this directory and the code under test is its `src/`. Setup generates the
workload's datasets from `--seed` (see workloads.py), each in a fresh
process, then the first one again (to at least SETUP_SAMPLES setups),
checking that its bytes repeat.
The load is a closed loop: one client runs the workload's command list on
each dataset in turn, each command in a fresh `python -m geocluster.cli`
process, and goes on until every dataset has been run and `--seconds` have
passed. Every invocation must exit 0 and write a report whose bytes (and
plot CSV bytes) equal those of the first run with the same code and seed.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of traced lists (see child.py),
each run right after an untraced list on the same dataset, which measures
the tracing overhead. Full results, provenance and the raw spans go to
perfbench/_work/. Exit code 0 means a result was printed; 2 means the
benchmark could not run (no source tree, setup failed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from child import ROOT_SPAN, SPAN_NAMES
from workloads import DEFAULT_SEED, WORKLOADS, WRITES_CSV, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"
DEADLINE_S = 170.0  # the whole benchmark run must end within 180 s
SETUP_SAMPLES = 5  # setup_s is the median of at least this many setups
# About the probe's time on a 2-core x86-64 container running at full
# speed; reported times are scaled to that speed (see SpeedProbe).
REFERENCE_KERNEL_S = 0.1

GENERATE = "synth.generate_dataset"
# Per-layer names reported for every workload (zero where not called).
# generate_dataset runs only in setup and is reported from there.
LAYERS = tuple(name for name in SPAN_NAMES if name != GENERATE)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class ListRun:
    """One execution of a workload's command list on one dataset."""

    dataset: int
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    report_bytes: int = 0
    failed: int = 0  # invocations that failed a check
    failures: list[str] = field(default_factory=list)
    quality: list[tuple[float, float]] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)  # one span list per command


class SpeedProbe:
    """Fixed CPU work timed in this process right before every setup and
    command process. On a shared machine the speed of the whole machine
    drifts by 20% and more over minutes; the probe sees the same drift.
    The slowdown of a run is the median probe time over REFERENCE_KERNEL_S."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        sym = rng.random((200, 200))
        self._sym = sym + sym.T
        self._stream = rng.random(2_000_000)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(800_000):  # interpreter-bound
            total += i * i
        for _ in range(10):  # LAPACK/BLAS-bound
            np.linalg.eigh(self._sym)
        for _ in range(25):  # memory-bound
            np.multiply(self._stream, 1.0001, out=self._stream)
        return time.perf_counter() - start

    def sample(self) -> None:
        """Keep the faster of two probes, which drops cache-cold outliers."""
        self.samples.append(min(self._kernel(), self._kernel()))

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_KERNEL_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn SIGTERM into SystemExit, so that the running child is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), started + DEADLINE_S)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(workload: Workload, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    if not (ROOT / "src" / "geocluster" / "__init__.py").is_file():
        raise BenchError(f"no geocluster source tree under {ROOT / 'src'}")
    env = child_env()
    tag = f"{workload.name}-seed{seed}-trace{int(traced)}"
    for sub in ("data", "out", "refs", "logs", "results", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    log = WORK / "logs" / f"{tag}.log"
    log.write_text("")
    code_digest = tree_digest(ROOT / "src" / "geocluster")

    probe = SpeedProbe()
    setup = run_setup(workload, seed, env, traced, log, deadline, probe)
    refs = References(WORK / "refs" / f"{code_digest[:16]}-{workload.name}-seed{seed}.json")
    out_dir = WORK / "out" / tag

    # Traced mode runs each list twice on the same dataset, untraced first.
    step = 2 if traced else 1
    runs: list[ListRun] = []
    begin = time.perf_counter()
    while True:
        now = time.perf_counter()
        covered = len(runs) >= step * workload.datasets and len(runs) % step == 0
        if covered and now - begin >= seconds:
            break
        if runs and now + max(r.wall_s for r in runs) > deadline:
            break
        index = (len(runs) // step) % workload.datasets
        runs.append(run_list(workload, index, setup["datasets"][index]["path"], out_dir,
                             env, refs, log, deadline, probe, traced=len(runs) % step == 1))
    refs.save()

    plain = [r for r in runs if not r.traced]
    failures = [f for r in runs for f in r.failures]
    if not covered:
        failures.append(f"deadline: {len(runs)} lists ran, {step * workload.datasets} needed")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    attempted = len(runs) * len(workload.commands)
    failed = sum(r.failed for r in runs)
    trace_failures = []
    if traced:
        raw, trace_failures = layer_summary(workload, runs, setup)
        failures += trace_failures
    else:
        raw = end_to_end(plain, setup)
    slowdown = probe.slowdown()
    metrics = {k: {"value": v / slowdown if unit_of(k) == "s" else v, "unit": unit_of(k)}
               for k, v in raw.items()}
    summary = {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "code_sha256": code_digest, "provenance": provenance(env),
        "datasets": setup["datasets"], "setup_walls_s": setup["walls"],
        "lists": [{"dataset": r.dataset, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                   "peak_rss_mb": r.rss_mb, "failures": r.failures} for r in runs],
        "wall_s_quartiles": quartiles([r.wall_s for r in plain]),
        "probe_s": probe.samples, "slowdown": slowdown, "raw_metrics": raw,
        "failures": failures, "metrics": metrics,
    }
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(summary, indent=2))
    if traced:
        spans = {"setup": setup["spans"],
                 "lists": [r.spans for r in runs if r.traced]}
        (WORK / "traces" / f"{workload.name}-seed{seed}.json").write_text(json.dumps(spans))
    for f in trace_failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{tag}: {len(runs)} lists, walls {[round(r.wall_s, 3) for r in runs]}",
          file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def child_env() -> dict:
    """What a user gets: default BLAS threads, one grid worker, and the
    checkout's own source tree first on the path."""
    env = dict(os.environ)
    env.pop("GEOCLUSTER_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str], env: dict, log: Path, deadline: float) -> Proc:
    """Run one child to completion; wall from outside, CPU and peak RSS from
    its own rusage. The child is killed at the deadline."""
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"$ {' '.join(argv)}\n")
        fh.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code)


def run_setup(workload: Workload, seed: int, env: dict, traced: bool, log: Path,
              deadline: float, probe: SpeedProbe) -> dict:
    """For each dataset, import geocluster, generate the dataset and load it
    once, in a fresh process. Dataset 0 is then generated again, at least
    once and until there are SETUP_SAMPLES timings, and its bytes must
    repeat. Any failure fails the workload."""
    seeds = workload.dataset_seeds(seed)
    datasets, walls, spans = [], [], []
    span_file = WORK / "traces" / "setup.spans.json"
    repeats = max(1, SETUP_SAMPLES - len(seeds))
    for dataset_seed in seeds + seeds[:1] * repeats:
        rel = f"perfbench/_work/data/{workload.dataset_name(dataset_seed)}"
        shutil.rmtree(ROOT / rel, ignore_errors=True)
        argv = [sys.executable, str(CHILD), "setup", "--dataset", rel]
        if traced:
            argv += ["--spans", str(span_file)]
        argv += ["--", *workload.generate, "--seed", str(dataset_seed)]
        mark = log.stat().st_size
        probe.sample()
        proc = run_process(argv, env, log, deadline)
        if proc.code != 0:
            raise BenchError(
                f"setup: `generate {' '.join(workload.generate)} --seed {dataset_seed}` "
                f"exited {proc.code}; output in {log}"
            )
        walls.append(proc.wall_s)
        if traced:
            spans.append(json.loads(span_file.read_text()))
            span_file.unlink()
        digests = {name: sha256(ROOT / rel / name) for name in ("individuals.csv", "contacts.csv")}
        if len(datasets) == len(seeds):
            if digests != datasets[0]["sha256"]:
                raise BenchError(f"setup: generate --seed {dataset_seed} wrote different bytes "
                                 "on a repeat")
            continue
        with open(log, encoding="utf-8") as fh:
            fh.seek(mark)
            printed = fh.read()
        diag = {key: parse_number(value)
                for key, value in re.findall(r"^  (\w+) +(\S+)$", printed, re.MULTILINE)}
        datasets.append({
            "path": rel, "seed": dataset_seed, "sha256": digests,
            **{k: diag.get(k) for k in ("n", "n_contacts", "intra_fraction", "isolate_fraction")},
        })
    return {"datasets": datasets, "walls": walls, "spans": spans}


class References:
    """sha256 of each command's report and plot CSV from the first run with
    the same code and seed, kept across benchmark runs."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.digests = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> str | None:
        expected = self.digests.setdefault(key, digest)
        if expected != digest:
            return f"{key} sha256 {digest[:12]} differs from first run's {expected[:12]}"
        return None

    def save(self) -> None:
        self.path.write_text(json.dumps(self.digests, indent=2, sort_keys=True))


def run_list(workload: Workload, dataset_index: int, dataset: str, out_dir: Path, env: dict,
             refs: References, log: Path, deadline: float, probe: SpeedProbe,
             traced: bool) -> ListRun:
    result = ListRun(dataset=dataset_index, traced=traced)
    out_dir = out_dir / f"dataset{dataset_index}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, command in enumerate(workload.commands):
        name = f"dataset{dataset_index}/{index}-{command[0]}"
        report = out_dir / f"{index}-{command[0]}.json"
        plot = report.with_suffix(".csv")
        span_file = report.with_suffix(".spans.json")
        for stale in (report, plot, span_file):
            stale.unlink(missing_ok=True)
        cli_argv = [tok.format(dataset=dataset, out=str(report.relative_to(ROOT)))
                    for tok in command]
        if traced:
            argv = [sys.executable, str(CHILD), "cli", "--spans", str(span_file), "--", *cli_argv]
        else:
            argv = [sys.executable, "-m", "geocluster.cli", *cli_argv]
        probe.sample()
        proc = run_process(argv, env, log, deadline)
        result.wall_s += proc.wall_s
        result.cpu_s += proc.cpu_s
        result.rss_mb = max(result.rss_mb, proc.rss_mb)
        label = f"{'traced ' if traced else ''}{name}"
        problems, records = check_outputs(name, command[0], proc, report, plot, refs)
        result.failures += [f"{label}: {p}" for p in problems]
        result.failed += bool(problems)
        result.quality += records
        for path in (report, plot):
            if path.exists():
                result.report_bytes += path.stat().st_size
        if traced and span_file.exists():
            spans = json.loads(span_file.read_text())
            result.spans.append({"command": name, "process_wall_s": proc.wall_s,
                                 "spans": spans})
            span_file.unlink()
        elif traced:
            result.failures.append(f"trace: {label}: no spans written")
    return result


def check_outputs(name: str, command: str, proc: Proc, report: Path, plot: Path,
                  refs: References) -> tuple[list[str], list[tuple[float, float]]]:
    """Problems with one invocation's outputs, and its scored records."""
    if proc.code != 0:
        return [f"exit code {proc.code}"], []
    if not report.exists():
        return ["no report written"], []
    problems = []
    outputs = [("json", report)]
    if command in WRITES_CSV:
        if not plot.exists():
            return ["no plot CSV written"], []
        outputs.append(("csv", plot))
    for kind, path in outputs:
        problem = refs.check(f"{name}.{kind}", sha256(path))
        if problem:
            problems.append(problem)
    try:
        records = quality_records(json.loads(report.read_text()))
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"], []
    if not records:
        problems.append("report holds no scored record")
    for pur, zr in records:
        if not (0.0 < pur <= 1.0 and math.isfinite(zr)):
            problems.append(f"scored record out of range: purity {pur}, z-Rand {zr}")
            break
    return problems, records


def quality_records(report) -> list[tuple[float, float]]:
    """(purity, z-Rand) of every scored record: dicts with purity_mean and
    zrand_mean (run summaries; their per-run entries are not descended
    into), or with purity and z_rand (multislice slices)."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            if "purity_mean" in node:
                found.append((node["purity_mean"], node["zrand_mean"]))
                return
            if "purity" in node and "z_rand" in node:
                found.append((node["purity"], node["z_rand"]))
                return
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(report)
    return found


def per_dataset(runs: list[ListRun], value) -> float:
    """Mean over datasets of the median of `value` over each dataset's lists."""
    groups: dict[int, list[float]] = {}
    for r in runs:
        groups.setdefault(r.dataset, []).append(value(r))
    return mean(statistics.median(v) for v in groups.values())


def end_to_end(runs: list[ListRun], setup: dict) -> dict:
    """From the lists that passed their checks, or, when none did, from
    every list whose reports could be scored."""
    scored = [r for r in runs if r.quality]
    ok = [r for r in scored if not r.failures] or scored
    if not ok:
        raise BenchError("no report could be scored")
    return {
        "wall_s": per_dataset(ok, lambda r: r.wall_s),
        "cpu_s": per_dataset(ok, lambda r: r.cpu_s),
        "peak_rss_mb": per_dataset(ok, lambda r: r.rss_mb),
        "setup_s": statistics.median(setup["walls"]),
        "purity": per_dataset(ok, lambda r: mean(p for p, _ in r.quality)),
        "zrand": per_dataset(ok, lambda r: mean(z for _, z in r.quality)),
    }


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_summary(workload: Workload, runs: list[ListRun], setup: dict) -> tuple[dict, list]:
    """Per-layer metrics, per command list and averaged over the traced
    lists, so self times plus cli.self_s add up to the traced in-process
    wall. Call counts do not depend on the dataset and must repeat exactly."""
    traced = [r for r in runs if r.traced and not r.failures]
    plain = [r for r in runs if not r.traced and not r.failures]
    if not traced or not plain:
        raise BenchError("traced run needs one clean traced and one clean untraced list")
    failures = []
    per_list = []
    for r in traced:
        calls = dict.fromkeys(LAYERS, 0)
        own = dict.fromkeys(LAYERS + (ROOT_SPAN,), 0.0)
        extra = {"em_iters": 0, "cap_hits": 0, "distinct": 0, "main_s": 0.0, "process_s": 0.0}
        for command in r.spans:
            spans = command["spans"]
            for (name, start, end, _, attrs), self_s in zip(spans, self_times(spans)):
                if name == ROOT_SPAN:
                    extra["main_s"] += end - start
                else:
                    calls[name] += 1
                own[name] += self_s
                if attrs:
                    extra["em_iters"] += attrs.get("em_iters", 0)
                    extra["cap_hits"] += attrs.get("cap_hit", 0)
                    extra["distinct"] += attrs.get("distinct", 0)
            extra["process_s"] += command["process_wall_s"]
        per_list.append((calls, own, extra))

    calls = per_list[0][0]
    if any(c != calls for c, _, _ in per_list):
        failures.append("trace: call counts differ between traced lists")
    for name in sorted(workload.expected):
        if calls[name] == 0:
            failures.append(f"trace: wrapper {name} recorded zero calls")
    n = len(per_list)
    own = {k: sum(o[k] for _, o, _ in per_list) / n for k in per_list[0][1]}
    extra = {k: sum(e[k] for _, _, e in per_list) / n for k in per_list[0][2]}
    if abs(sum(own.values()) - extra["main_s"]) > 1e-6 * max(1.0, extra["main_s"]):
        failures.append("trace: self times do not add up to the traced wall")

    gen = setup_generate(setup["spans"])
    if gen is None:
        failures.append(f"trace: wrapper {GENERATE} recorded zero calls in setup")
        gen = (0, 0.0, 0)
    untraced_wall = per_dataset(plain, lambda r: r.wall_s)
    traced_wall = per_dataset(traced, lambda r: r.wall_s)
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own[name]
    metrics.update({
        f"{GENERATE}.calls": gen[0],
        f"{GENERATE}.self_s": gen[1],
        f"{GENERATE}.calibration_iters": gen[2],
        "baselines.fit_gmm.em_iters": extra["em_iters"],
        "baselines.fit_gmm.cap_hits": extra["cap_hits"],
        "graph.build_weight_matrix.distinct_frac":
            extra["distinct"] / calls["graph.build_weight_matrix"]
            if calls["graph.build_weight_matrix"] else 0.0,
        "io.report_bytes": statistics.median(r.report_bytes for r in traced),
        "cli.self_s": own[ROOT_SPAN],
        "cli.traced_wall_s": extra["main_s"],
        "process.startup_s": extra["process_s"] - extra["main_s"],
        "trace_overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    })
    return metrics, failures


def setup_generate(setups: list[list]) -> tuple[int, float, int] | None:
    """Calls per setup, and mean self time and calibration iterations
    (diagnostics calls nested in it) of generate_dataset over the traced
    setups."""
    found = []
    for spans in setups:
        own = self_times(spans)
        for index, (name, *_rest) in enumerate(spans):
            if name == GENERATE:
                iters = sum(1 for s in spans if s[0] == "metrics.diagnostics" and s[3] == index)
                found.append((own[index], iters))
    if not found:
        return None
    return (len(found) // len(setups), mean(s for s, _ in found), mean(i for _, i in found))


UNITS = {"peak_rss_mb": "MB", "purity": "fraction", "zrand": "z"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def provenance(env: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: env.get(k) for k in
                ("GEOCLUSTER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return None if text == "None" else text


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


if __name__ == "__main__":
    sys.exit(main())
