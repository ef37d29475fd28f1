"""Experiment runner.

Subcommands: generate | spectral | sweep-alpha | multislice | gt-sweep |
baselines. Every command is reproducible: the same flags and seed yield a
byte-identical report. Run r of a multi-run command uses seed = base + r,
and the derived seeds are echoed in the output. Grid points run one after
another, in grid order; the linear algebra inside each point already keeps
every core busy through BLAS.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .baselines import gmm_cluster, kmeans_columns
from .errors import DataError, NumericalError
from .graph import build_weight_matrix, compute_sigma, locations, normalize
from .io import DatasetFiles, load_dataset, save_dataset, save_plot_csv, save_results
from .metrics import contingency_table, diagnostics, purity, z_rand
from .modularity import SliceStack, check_slice_params, multislice_louvain
from .spectral import embed, kmeans
from .synth import GtParams, SynthConfig, generate_dataset, gt_equivalence_point, gt_matrix

GT_SEED_STRIDE = 7919
MAX_GRID_POINTS = 10_000


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
    p.add_argument("--preset", default="hollenbeck", choices=["hollenbeck"])
    p.add_argument("--n-members", type=int, default=SynthConfig.n_members)
    p.add_argument("--n-groups", type=int, default=SynthConfig.n_groups)
    p.add_argument("--spread", type=float, default=SynthConfig.spatial_spread,
                   help="territory spatial spread (m)")
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
    if not all(map(math.isfinite, (start, stop, step))):
        raise DataError(f"grid {text!r} needs a finite start, stop and step")
    if step <= 0 or stop < start:
        raise DataError(f"bad grid bounds in {text!r}")
    span = (stop - start) / step
    if span >= MAX_GRID_POINTS:
        raise DataError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    count = int(round(span)) + 1
    grid = [start + i * step for i in range(count)]
    return [g for g in grid if g <= stop + 1e-9]


def _load(args):
    """Inputs of a scoring command: the report path (checked before the
    dataset is read), the fully labeled dataset, its labels and sigma."""
    out = _out_path(args.out)
    individuals, social = load_dataset(DatasetFiles.in_dir(args.dataset))
    missing = [p.id for p in individuals if p.gang is None]
    if missing:
        raise DataError(
            f"{len(missing)} individuals lack a group label (first: {missing[0]!r}); "
            "scoring commands need fully labeled data"
        )
    labels = np.array([p.gang for p in individuals])
    return out, individuals, social, labels, compute_sigma(individuals, social)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    if not path.parent.exists():
        raise DataError(f"output directory {path.parent} does not exist")
    return path


def _run_config(args) -> dict:
    """The config tail of a multi-run command: k, runs and each run's seed."""
    if not 1 <= args.runs <= MAX_GRID_POINTS:
        raise DataError(f"--runs must be at least 1 and at most {MAX_GRID_POINTS}, got {args.runs}")
    return {"k": args.k, "runs": args.runs,
            "seeds": [args.seed + r for r in range(args.runs)]}


def _write(out: Path, args, config: dict, social, labels, body: dict, rows=None) -> None:
    """Write a scoring command's report to `out`: the command, its config
    (the dataset first, then `config`), the contact diagnostics, then `body`.
    Beside it goes the plot CSV of `rows` when they are given; the report
    path is printed last."""
    save_results({
        "command": args.command,
        "config": {"dataset": str(args.dataset), **config},
        "diagnostics": diagnostics(social, labels).as_dict(),
        **body,
    }, out)
    if rows is not None:
        save_plot_csv(rows, out.with_suffix(".csv"))
    print(f"report: {out}")


def community_summaries(individuals, labels, assignment) -> list[dict]:
    """Size, plurality label, label composition, and location centroid per
    community -- the data behind per-community pie rendering."""
    xy = locations(individuals)
    assignment = np.asarray(assignment)
    names, ids, table = contingency_table(labels, assignment)
    names = names.tolist()
    out = []
    for c, counts in zip(ids.tolist(), table.T):
        idx = np.flatnonzero(assignment == c)
        out.append({
            "id": c,
            "size": idx.size,
            "label": names[int(counts.argmax())],
            "composition": {names[i]: int(counts[i]) / idx.size for i in np.flatnonzero(counts)},
            "centroid": [float(xy[idx, 0].mean()), float(xy[idx, 1].mean())],
        })
    return out


def _score_runs(individuals, labels, seeds, lead: dict, parts, pick) -> dict:
    """Record of one grid point: `lead`, then purity and z-Rand of each
    seed's partition in `parts` with their mean/std (population std, so a
    single run reports std = 0), and the communities of the run whose
    objective `pick` (np.argmin or np.argmax) selects. A run record carries
    the partition's `convergence` counts after its `degenerate` flag."""
    runs = []
    for seed, part in zip(seeds, parts):
        runs.append({
            "seed": int(seed),
            "purity": purity(labels, part),
            "z_rand": z_rand(labels, part),
            "objective": part.objective,
            "n_communities": part.k,
            "degenerate": part.degenerate,
            **part.convergence,
            "assignment": part.assignment,
        })
    pur = np.array([r["purity"] for r in runs])
    zr = np.array([r["z_rand"] for r in runs])
    best = runs[int(pick(np.array([r["objective"] for r in runs], dtype=float)))]
    return {
        **lead,
        "purity_mean": float(pur.mean()),
        "purity_std": float(pur.std()),
        "zrand_mean": float(zr.mean()),
        "zrand_std": float(zr.std()),
        "best_run": best["seed"],
        "runs": runs,
        "communities": community_summaries(individuals, labels, best["assignment"]),
    }


def _score_spectral(individuals, labels, seeds, lead: dict, graph, k: int) -> dict:
    """`_score_runs` for spectral clustering: one embedding of `graph`, then
    k-means on it once per seed; the lowest k-means objective is best."""
    coords = embed(graph, k).coords
    return _score_runs(individuals, labels, seeds, lead,
                       [kmeans(coords, k, seed) for seed in seeds], np.argmin)


def _score_rows(param: str, value, record: dict, suffix: str = "") -> list[dict]:
    """Plot rows of one scored record: the purity row, then the z_rand row."""
    return [{"param": param, "value": value, "metric": metric + suffix,
             "mean": record[f"{key}_mean"], "std": record[f"{key}_std"]}
            for metric, key in (("purity", "purity"), ("z_rand", "zrand"))]


def cmd_generate(args) -> int:
    config = SynthConfig(n_members=args.n_members, n_groups=args.n_groups,
                         spatial_spread=args.spread, seed=args.seed)

    out_dir = _out_path(args.out)
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
    run_config = _run_config(args)
    out, individuals, social, labels, sigma = _load(args)
    graph = build_weight_matrix(individuals, social, args.alpha, sigma)
    record = _score_spectral(individuals, labels, run_config["seeds"], {"alpha": args.alpha},
                             graph, args.k)
    print(f"alpha={args.alpha}: purity {record['purity_mean']:.3f} "
          f"± {record['purity_std']:.3f}, z-Rand {record['zrand_mean']:.1f} "
          f"± {record['zrand_std']:.1f}")
    _write(out, args, {"alpha": args.alpha, "sigma": sigma, **run_config}, social, labels,
           {"results": [record]})
    return 0


def cmd_sweep_alpha(args) -> int:
    alphas = sorted(_parse_floats(args.alphas))
    run_config = _run_config(args)
    out, individuals, social, labels, sigma = _load(args)
    # Each W is passed straight through, so it is freed before the next is built.
    records = [_score_spectral(individuals, labels, run_config["seeds"], {"alpha": alpha},
                               build_weight_matrix(individuals, social, alpha, sigma), args.k)
               for alpha in alphas]
    for rec in records:
        print(f"alpha={rec['alpha']:4}: purity {rec['purity_mean']:.3f} "
              f"± {rec['purity_std']:.3f}, z-Rand {rec['zrand_mean']:.1f}")
    _write(out, args, {"alphas": alphas, "sigma": sigma, **run_config}, social, labels,
           {"results": records},
           [row for rec in records for row in _score_rows("alpha", rec["alpha"], rec)])
    return 0


def cmd_multislice(args) -> int:
    gammas = _parse_grid(args.gamma_grid)
    check_slice_params(gammas, args.omega)  # before the dataset load and W build
    out, individuals, social, labels, sigma = _load(args)
    transition = normalize(build_weight_matrix(individuals, social, args.alpha, sigma))
    stack = SliceStack([(transition, g) for g in gammas], omega=args.omega)
    del transition  # the stack's symmetrized copy is the one Louvain reads
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
    plateaus = find_plateaus([rec["n_communities"] for rec in slices])
    print(f"multislice Q={result.objective:.4f}, "
          f"{result.n_communities} communities across {len(gammas)} slices")
    print(f"plateaus: {plateaus}")
    config = {"alpha": args.alpha, "sigma": sigma, "gamma_grid": gammas,
              "omega": args.omega, "seeds": [args.seed]}
    body = {
        "quality": result.objective,
        "n_communities_total": result.n_communities,
        "results": slices,
        "plateaus": plateaus,
        "zrand_local_maxima": local_maxima([rec["z_rand"] for rec in slices]),
        "assignment": result.assignment,
    }
    _write(out, args, config, social, labels, body,
           [{"param": "gamma", "value": rec["gamma"], "metric": metric,
             "mean": rec[metric], "std": 0.0}
            for rec in slices for metric in ("n_communities", "purity", "z_rand")])
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
    alphas = sorted(_parse_floats(args.alphas))
    p_grid = sorted(_parse_grid(args.p_grid))
    q_list = sorted(_parse_floats(args.q_list))
    run_config = _run_config(args)
    out, individuals, social, labels, sigma = _load(args)
    records = []
    for index, (q, alpha, p) in enumerate(product(q_list, alphas, p_grid)):
        gt_seed = args.seed + GT_SEED_STRIDE * (index + 1)
        gt = gt_matrix(labels, GtParams(p=p, q=q, seed=gt_seed))
        # The geographic kernel stays fixed: sigma comes from the observed
        # contacts even though the social matrix is swapped for GT(p, q).
        records.append(_score_spectral(individuals, labels, run_config["seeds"],
                                       {"q": q, "alpha": alpha, "p": p, "gt_seed": gt_seed},
                                       build_weight_matrix(individuals, gt, alpha, sigma), args.k))
    equivalence_p = gt_equivalence_point(labels, social)
    print(f"equivalence point p* = {equivalence_p:.4f}")
    for rec in records:
        print(f"q={rec['q']:4} alpha={rec['alpha']:4} p={rec['p']:4}: "
              f"purity {rec['purity_mean']:.3f} ± {rec['purity_std']:.3f}")
    config = {"alphas": alphas, "p_grid": p_grid, "q_list": q_list, "sigma": sigma, **run_config}
    _write(out, args, config, social, labels,
           {"equivalence_p": equivalence_p, "results": records},
           [row for rec in records
            for row in _score_rows(f"p[q={rec['q']},alpha={rec['alpha']}]", rec["p"], rec)])
    return 0


def cmd_baselines(args) -> int:
    alphas = sorted(_parse_floats(args.alphas))
    run_config = _run_config(args)
    seeds = run_config["seeds"]
    out, individuals, social, labels, sigma = _load(args)
    gmm_record = _score_runs(individuals, labels, seeds, {},
                             [gmm_cluster(individuals, args.k, seed) for seed in seeds], np.argmax)
    columns, spectral = [], []
    for alpha in alphas:
        graph = build_weight_matrix(individuals, social, alpha, sigma)
        columns.append(_score_runs(individuals, labels, seeds, {"alpha": alpha},
                                   kmeans_columns(graph, args.k, seeds), np.argmin))
        spectral.append(_score_spectral(individuals, labels, seeds, {"alpha": alpha},
                                        graph, args.k))
        del graph  # free this n x n W before the next alpha builds its own
    print(f"gmm: purity {gmm_record['purity_mean']:.3f}, "
          f"z-Rand {gmm_record['zrand_mean']:.1f}")
    for rec, spec in zip(columns, spectral):
        print(f"alpha={rec['alpha']:4}: k-means-columns purity "
              f"{rec['purity_mean']:.3f} (z {rec['zrand_mean']:.1f}) vs spectral "
              f"{spec['purity_mean']:.3f} (z {spec['zrand_mean']:.1f})")
    body = {"gmm": gmm_record, "kmeans_columns": columns, "spectral": spectral}
    rows = [row for name in ("kmeans_columns", "spectral") for rec in body[name]
            for row in _score_rows("alpha", rec["alpha"], rec, f"/{name}")]
    _write(out, args, {"alphas": alphas, "sigma": sigma, **run_config}, social, labels, body,
           rows + _score_rows("alpha", -1.0, gmm_record, "/gmm"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
