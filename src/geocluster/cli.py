"""Experiment runner.

Subcommands: generate | spectral | sweep-alpha | multislice | gt-sweep |
baselines. Every command is reproducible: the same flags and seed yield a
byte-identical report. Run r of a multi-run command uses seed = base + r,
and the derived seeds are echoed in the output. GEOCLUSTER_THREADS caps
how many grid points run in parallel; results are assembled in grid order,
so parallelism never changes output bytes.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import gmm_cluster, kmeans_columns
from .errors import DataError, NumericalError
from .graph import build_weight_matrix, compute_sigma, locations, normalize
from .io import DatasetFiles, load_dataset, save_dataset, save_plot_csv, save_results
from .metrics import diagnostics, plurality_label, purity, z_rand
from .modularity import SliceStack, multislice_louvain
from .spectral import embed, kmeans
from .synth import HOLLENBECK, GtParams, generate_dataset, gt_equivalence_point, gt_matrix

PRESETS = {"hollenbeck": HOLLENBECK}
GT_SEED_STRIDE = 7919


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocluster",
        description="Geosocial community detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a calibrated synthetic dataset")
    p.add_argument("--preset", default="hollenbeck", choices=sorted(PRESETS))
    p.add_argument("--n-members", type=int, default=None)
    p.add_argument("--n-groups", type=int, default=None)
    p.add_argument("--spread", type=float, default=None, help="territory spatial spread (m)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for the CSV pair")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("spectral", help="spectral clustering runs at one alpha")
    _common_args(p)
    p.add_argument("--alpha", type=float, default=0.4)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("sweep-alpha", help="spectral clustering over an alpha grid")
    _common_args(p)
    p.add_argument("--alphas", default="0,0.2,0.4,0.6,0.8,1.0")
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("multislice", help="multislice modularity over a gamma grid")
    p.add_argument("--dataset", required=True)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--gamma-grid", default="0.1:5.0:0.1",
                   help="comma list or start:stop:step")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_multislice)

    p = sub.add_parser("gt-sweep", help="spectral runs with ground-truth-derived social matrices")
    _common_args(p)
    p.add_argument("--alphas", default="0.4,0.8")
    p.add_argument("--p-grid", default="0,0.25,0.5,0.75,1.0")
    p.add_argument("--q-list", default="0,0.15,0.3")
    p.set_defaults(func=cmd_gt_sweep)

    p = sub.add_parser("baselines", help="Gaussian mixture and direct k-means comparisons")
    _common_args(p)
    p.add_argument("--alphas", default="0,0.4,0.8,0.9,1.0")
    p.set_defaults(func=cmd_baselines)
    return parser


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="directory with individuals.csv + contacts.csv")
    p.add_argument("--k", type=int, default=31)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report JSON path")


def _threads() -> int:
    raw = os.environ.get("GEOCLUSTER_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise DataError(f"GEOCLUSTER_THREADS must be an integer, got {raw!r}") from None


def _map_grid(fn, items):
    """Order-preserving map over grid points, optionally threaded."""
    items = list(items)
    n_workers = min(_threads(), max(1, len(items)))
    if n_workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DataError(f"could not parse float list {text!r}") from None
    if not values:
        raise DataError(f"empty value list {text!r}")
    return values


def _parse_grid(text: str) -> list[float]:
    """Either a comma list or start:stop:step (stop inclusive within 1e-9)."""
    if ":" not in text:
        return _parse_floats(text)
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise DataError(f"could not parse grid {text!r}") from None
    if step <= 0 or stop < start:
        raise DataError(f"bad grid bounds in {text!r}")
    count = int(round((stop - start) / step)) + 1
    grid = [start + i * step for i in range(count)]
    return [g for g in grid if g <= stop + 1e-9]


def _load_labeled(dataset_dir):
    individuals, social = load_dataset(DatasetFiles.in_dir(dataset_dir))
    missing = [p.id for p in individuals if p.gang is None]
    if missing:
        raise DataError(
            f"{len(missing)} individuals lack a group label (first: {missing[0]!r}); "
            "scoring commands need fully labeled data"
        )
    labels = np.array([p.gang for p in individuals])
    return individuals, social, labels


def _out_path(raw: str) -> Path:
    path = Path(raw)
    if not path.parent.exists():
        raise DataError(f"output directory {path.parent} does not exist")
    return path


def community_summaries(individuals, labels, assignment) -> list[dict]:
    """Size, plurality label, label composition, and location centroid per
    community -- the data behind per-community pie rendering."""
    xy = locations(individuals)
    labels = np.asarray(labels)
    assignment = np.asarray(assignment)
    out = []
    for c in range(int(assignment.max()) + 1):
        idx = np.flatnonzero(assignment == c)
        comp = Counter(labels[idx].tolist())
        size = idx.size
        out.append({
            "id": int(c),
            "size": int(size),
            "label": plurality_label(labels[idx]),
            "composition": {lab: cnt / size for lab, cnt in sorted(comp.items())},
            "centroid": [float(xy[idx, 0].mean()), float(xy[idx, 1].mean())],
        })
    return out


def _score_partitions(individuals, labels, parts_with_seeds, select="min") -> dict:
    """Per-run purity and z-Rand plus mean/std summaries (population std,
    so a single run reports std = 0)."""
    runs = []
    for seed, part in parts_with_seeds:
        runs.append({
            "seed": int(seed),
            "purity": purity(labels, part),
            "z_rand": z_rand(labels, part),
            "objective": part.objective,
            "n_communities": part.k,
            "degenerate": part.degenerate,
            "assignment": part.assignment,
        })
    pur = np.array([r["purity"] for r in runs])
    zr = np.array([r["z_rand"] for r in runs])
    objs = np.array([r["objective"] for r in runs], dtype=float)
    best = int(objs.argmin()) if select == "min" else int(objs.argmax())
    return {
        "purity_mean": float(pur.mean()),
        "purity_std": float(pur.std()),
        "zrand_mean": float(zr.mean()),
        "zrand_std": float(zr.std()),
        "best_run": runs[best]["seed"],
        "runs": runs,
        "communities": community_summaries(
            individuals, labels, runs[best]["assignment"]
        ),
    }


def _spectral_record(individuals, labels, graph, k, runs, base_seed) -> dict:
    emb = embed(graph, k)
    parts = [(base_seed + r, kmeans(emb.coords, k, base_seed + r)) for r in range(runs)]
    return _score_partitions(individuals, labels, parts)


def cmd_generate(args) -> int:
    overrides = {}
    if args.n_members is not None:
        overrides["n_members"] = args.n_members
    if args.n_groups is not None:
        overrides["n_groups"] = args.n_groups
    if args.spread is not None:
        overrides["spatial_spread"] = args.spread
    config = dataclasses.replace(PRESETS[args.preset], seed=args.seed, **overrides)

    out_dir = Path(args.out)
    if not out_dir.parent.exists():
        raise DataError(f"output directory {out_dir.parent} does not exist")
    out_dir.mkdir(exist_ok=True)

    try:
        individuals, social = generate_dataset(config)
    except NumericalError as exc:
        raise type(exc)(f"{exc}; config: {config}") from exc
    save_dataset(individuals, social, DatasetFiles.in_dir(out_dir))
    labels = [p.gang for p in individuals]
    report = diagnostics(social, labels)
    print(f"wrote {out_dir}/individuals.csv and {out_dir}/contacts.csv")
    for key, value in report.as_dict().items():
        print(f"  {key:18} {value}")
    return 0


def cmd_spectral(args) -> int:
    out = _out_path(args.out)
    individuals, social, labels = _load_labeled(args.dataset)
    sigma = compute_sigma(individuals, social)
    record = {"alpha": args.alpha}
    graph = build_weight_matrix(individuals, social, args.alpha, sigma)
    record.update(_spectral_record(individuals, labels, graph, args.k, args.runs, args.seed))
    report = {
        "command": "spectral",
        "config": {
            "dataset": str(args.dataset), "alpha": args.alpha, "sigma": sigma,
            "k": args.k, "runs": args.runs,
            "seeds": [args.seed + r for r in range(args.runs)],
        },
        "diagnostics": diagnostics(social, labels).as_dict(),
        "results": [record],
    }
    save_results(report, out)
    print(f"alpha={args.alpha}: purity {record['purity_mean']:.3f} "
          f"± {record['purity_std']:.3f}, z-Rand {record['zrand_mean']:.1f} "
          f"± {record['zrand_std']:.1f}")
    print(f"report: {out}")
    return 0


def cmd_sweep_alpha(args) -> int:
    out = _out_path(args.out)
    alphas = _parse_floats(args.alphas)
    individuals, social, labels = _load_labeled(args.dataset)
    sigma = compute_sigma(individuals, social)

    def one(alpha):
        record = {"alpha": alpha}
        graph = build_weight_matrix(individuals, social, alpha, sigma)
        record.update(_spectral_record(individuals, labels, graph, args.k, args.runs, args.seed))
        return record

    records = _map_grid(one, sorted(alphas))
    report = {
        "command": "sweep-alpha",
        "config": {
            "dataset": str(args.dataset), "alphas": sorted(alphas), "sigma": sigma,
            "k": args.k, "runs": args.runs,
            "seeds": [args.seed + r for r in range(args.runs)],
        },
        "diagnostics": diagnostics(social, labels).as_dict(),
        "results": records,
    }
    save_results(report, out)
    save_plot_csv([row for rec in records for row in _score_rows("alpha", rec["alpha"], rec)],
                  out.with_suffix(".csv"))
    for rec in records:
        print(f"alpha={rec['alpha']:4}: purity {rec['purity_mean']:.3f} "
              f"± {rec['purity_std']:.3f}, z-Rand {rec['zrand_mean']:.1f}")
    print(f"report: {out}")
    return 0


def _score_rows(param: str, value, record: dict, suffix: str = "") -> list[dict]:
    """Plot rows of one scored record: the purity row, then the z_rand row."""
    return [{"param": param, "value": value, "metric": metric + suffix,
             "mean": record[f"{key}_mean"], "std": record[f"{key}_std"]}
            for metric, key in (("purity", "purity"), ("z_rand", "zrand"))]


def cmd_multislice(args) -> int:
    out = _out_path(args.out)
    gammas = _parse_grid(args.gamma_grid)
    individuals, social, labels = _load_labeled(args.dataset)
    sigma = compute_sigma(individuals, social)
    graph = build_weight_matrix(individuals, social, args.alpha, sigma)
    transition = normalize(graph)
    sym = 0.5 * (transition + transition.T)
    stack = SliceStack([(sym, g) for g in gammas], omega=args.omega)
    result = multislice_louvain(stack, args.seed)

    slices = []
    for s, gamma in enumerate(gammas):
        part = result.slice_partition(s)
        slices.append({
            "gamma": gamma,
            "n_communities": part.k,
            "purity": purity(labels, part),
            "z_rand": z_rand(labels, part),
            "communities": community_summaries(individuals, labels, part.assignment),
        })
    counts = [rec["n_communities"] for rec in slices]
    zrands = [rec["z_rand"] for rec in slices]
    report = {
        "command": "multislice",
        "config": {
            "dataset": str(args.dataset), "alpha": args.alpha, "sigma": sigma,
            "gamma_grid": gammas, "omega": args.omega, "seeds": [args.seed],
        },
        "diagnostics": diagnostics(social, labels).as_dict(),
        "quality": result.objective,
        "n_communities_total": result.n_communities,
        "results": slices,
        "plateaus": find_plateaus(counts),
        "zrand_local_maxima": local_maxima(zrands),
        "assignment": result.assignment,
    }
    save_results(report, out)
    save_plot_csv(
        [{"param": "gamma", "value": rec["gamma"], "metric": metric,
          "mean": rec[metric], "std": 0.0}
         for rec in slices for metric in ("n_communities", "purity", "z_rand")],
        out.with_suffix(".csv"),
    )
    print(f"multislice Q={result.objective:.4f}, "
          f"{result.n_communities} communities across {len(gammas)} slices")
    print(f"plateaus: {report['plateaus']}")
    print(f"report: {out}")
    return 0


def find_plateaus(counts: list[int]) -> list[dict]:
    """Maximal runs (length >= 2) of consecutive slices with equal community
    count."""
    plateaus = []
    start = 0
    for i in range(1, len(counts) + 1):
        if i == len(counts) or counts[i] != counts[start]:
            if i - start >= 2:
                plateaus.append({
                    "start": start, "end": i - 1, "length": i - start,
                    "n_communities": counts[start],
                })
            start = i
    return plateaus


def local_maxima(values: list[float]) -> list[int]:
    out = []
    for i, v in enumerate(values):
        left = values[i - 1] if i > 0 else -np.inf
        right = values[i + 1] if i + 1 < len(values) else -np.inf
        if v >= left and v >= right:
            out.append(i)
    return out


def cmd_gt_sweep(args) -> int:
    out = _out_path(args.out)
    alphas = sorted(_parse_floats(args.alphas))
    p_grid = sorted(_parse_grid(args.p_grid))
    q_list = sorted(_parse_floats(args.q_list))
    individuals, social, labels = _load_labeled(args.dataset)
    # The geographic kernel stays fixed: sigma comes from the observed
    # contacts even though the social matrix is swapped for GT(p, q).
    sigma = compute_sigma(individuals, social)

    grid = [(q, alpha, p) for q in q_list for alpha in alphas for p in p_grid]

    def one(point):
        index, (q, alpha, p) = point
        gt_seed = args.seed + GT_SEED_STRIDE * (index + 1)
        gt = gt_matrix(labels, GtParams(p=p, q=q, seed=gt_seed))
        record = {"q": q, "alpha": alpha, "p": p, "gt_seed": gt_seed}
        graph = build_weight_matrix(individuals, gt, alpha, sigma)
        record.update(_spectral_record(individuals, labels, graph, args.k, args.runs, args.seed))
        return record

    records = _map_grid(one, enumerate(grid))
    report = {
        "command": "gt-sweep",
        "config": {
            "dataset": str(args.dataset), "alphas": alphas, "p_grid": p_grid,
            "q_list": q_list, "sigma": sigma, "k": args.k, "runs": args.runs,
            "seeds": [args.seed + r for r in range(args.runs)],
        },
        "diagnostics": diagnostics(social, labels).as_dict(),
        "equivalence_p": gt_equivalence_point(labels, social),
        "results": records,
    }
    save_results(report, out)
    rows = [row for rec in records
            for row in _score_rows(f"p[q={rec['q']},alpha={rec['alpha']}]", rec["p"], rec)]
    save_plot_csv(rows, out.with_suffix(".csv"))
    print(f"equivalence point p* = {report['equivalence_p']:.4f}")
    for rec in records:
        print(f"q={rec['q']:4} alpha={rec['alpha']:4} p={rec['p']:4}: "
              f"purity {rec['purity_mean']:.3f} ± {rec['purity_std']:.3f}")
    print(f"report: {out}")
    return 0


def cmd_baselines(args) -> int:
    out = _out_path(args.out)
    alphas = sorted(_parse_floats(args.alphas))
    individuals, social, labels = _load_labeled(args.dataset)
    sigma = compute_sigma(individuals, social)

    gmm_parts = [(args.seed + r, gmm_cluster(individuals, args.k, args.seed + r))
                 for r in range(args.runs)]
    gmm_record = _score_partitions(individuals, labels, gmm_parts, select="max")

    def one(alpha):
        graph = build_weight_matrix(individuals, social, alpha, sigma)
        parts = [(args.seed + r, kmeans_columns(graph, args.k, args.seed + r))
                 for r in range(args.runs)]
        record = {"alpha": alpha}
        record.update(_score_partitions(individuals, labels, parts))
        spectral = {"alpha": alpha}
        spectral.update(_spectral_record(individuals, labels, graph, args.k, args.runs, args.seed))
        return record, spectral

    paired = _map_grid(one, alphas)
    report = {
        "command": "baselines",
        "config": {
            "dataset": str(args.dataset), "alphas": alphas, "sigma": sigma,
            "k": args.k, "runs": args.runs,
            "seeds": [args.seed + r for r in range(args.runs)],
        },
        "diagnostics": diagnostics(social, labels).as_dict(),
        "gmm": gmm_record,
        "kmeans_columns": [rec for rec, _ in paired],
        "spectral": [spec for _, spec in paired],
    }
    save_results(report, out)
    rows = [row for name in ("kmeans_columns", "spectral") for rec in report[name]
            for row in _score_rows("alpha", rec["alpha"], rec, f"/{name}")]
    save_plot_csv(rows + _score_rows("alpha", -1.0, gmm_record, "/gmm"), out.with_suffix(".csv"))
    print(f"gmm: purity {gmm_record['purity_mean']:.3f}, "
          f"z-Rand {gmm_record['zrand_mean']:.1f}")
    for rec, spec in paired:
        print(f"alpha={rec['alpha']:4}: k-means-columns purity "
              f"{rec['purity_mean']:.3f} (z {rec['zrand_mean']:.1f}) vs spectral "
              f"{spec['purity_mean']:.3f} (z {spec['zrand_mean']:.1f})")
    print(f"report: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
