"""Experiment runner.

Subcommands: generate | spectral | sweep-alpha | multislice | gt-sweep |
baselines; `spectral --alpha a` is an alias of `sweep-alpha --alphas a`.
Every scoring command (all but `generate`) writes a report JSON and, beside
it, a plot CSV of the same name. Every command is reproducible: the same
flags and seed yield byte-identical files. Run r of a multi-run command
uses seed = base + r, and the derived seeds are echoed in the output. Grid
points run in one process, in grid order, except that a chunk of points is
embedded before its k-means runs (see `_score_spectral`); the linear
algebra already keeps every core busy through BLAS. Every command writes
its files before it prints anything, so a closed stdout (`| head`) cannot
lose a report.

Exit codes: 0 success, 2 usage error, 3 data error (bad input or an
unusable path), 4 numerical failure. Any other exception is a bug and ends
in a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import gmm_cluster, kmeans_columns
from .errors import DataError, NumericalError
from .graph import build_weight_matrix, check_alpha, compute_sigma, locations, normalize
from .io import DatasetFiles, load_dataset, save_dataset, save_plot_csv, save_results
from .metrics import contingency_table, diagnostics, purity, z_rand
from .modularity import SliceStack, check_slice_params, multislice_louvain
from .spectral import Partition, embed, kmeans
from .synth import GtParams, SynthConfig, generate_dataset, gt_equivalence_point, gt_matrix

GT_SEED_STRIDE = 7919
MAX_GRID_POINTS = 10_000


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_no_nul(args)
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader has gone; the command's files are already written.
        # Python's documented recipe: point stdout at devnull, so the flush
        # at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (OSError, DataError) as exc:
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for the CSV pair")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("spectral", help="spectral clustering runs at one alpha "
                                        "(an alias of sweep-alpha)")
    _common_args(p)
    p.add_argument("--alpha", dest="alphas", default="0.4", help="read as sweep-alpha's --alphas")
    p.set_defaults(func=cmd_sweep_alpha)

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


def _clip(text: str) -> str:
    """`text` quoted for an error message, cut to a fixed length."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def _parse_grid(text: str) -> list[float]:
    """A value list: either a comma list or start:stop:step (stop inclusive
    within 1e-9), with at most MAX_GRID_POINTS values."""
    if ":" not in text:
        tokens = [tok for tok in text.split(",") if tok.strip() != ""]
        values = []
        for position, tok in enumerate(tokens, 1):
            try:
                values.append(float(tok))
            except ValueError:
                raise DataError(f"could not parse value {position} of {len(tokens)} "
                                f"in a value list: {_clip(tok)}") from None
        if not values:
            raise DataError(f"empty value list {_clip(text)}")
        if len(values) > MAX_GRID_POINTS:
            raise DataError(f"value list has {len(values)} values, more than {MAX_GRID_POINTS}")
        return values
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise DataError(f"could not parse grid {_clip(text)}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise DataError(f"grid {_clip(text)} needs a finite start, stop and step")
    if step <= 0 or stop < start:
        raise DataError(f"bad grid bounds in {_clip(text)}")
    span = (stop - start) / step
    if span >= MAX_GRID_POINTS:
        raise DataError(f"grid {_clip(text)} has more than {MAX_GRID_POINTS} points")
    count = int(round(span)) + 1
    grid = [start + i * step for i in range(count)]
    return [g for g in grid if g <= stop + 1e-9]


def _alpha_list(text: str) -> list[float]:
    """The sorted values of an --alphas list, each checked by the alpha rule."""
    alphas = sorted(_parse_grid(text))
    for alpha in alphas:
        check_alpha(alpha)
    return alphas


def _check_no_nul(args) -> None:
    """No flag value may hold a NUL byte: no path can, and the OS calls
    would raise ValueError, not OSError."""
    for key, value in vars(args).items():
        if isinstance(value, str) and "\0" in value:
            raise DataError(f"--{key.replace('_', '-')} {_clip(value)} holds a NUL byte")


def _load(args):
    """Inputs of a scoring command: the report path (checked, and so is the
    path of its plot CSV, before the dataset is read), the fully labeled
    dataset, its labels and sigma."""
    out = _out_path(args.out, directory=False)
    if out.suffix == ".csv":
        raise DataError(f"--out {out} ends in .csv, the name of its plot CSV")
    _out_path(out.with_suffix(".csv"), directory=False, name="plot CSV")
    individuals, social = load_dataset(DatasetFiles.in_dir(args.dataset))
    missing = [p.id for p in individuals if p.gang is None]
    if missing:
        raise DataError(
            f"{len(missing)} individuals lack a group label (first: {missing[0]!r}); "
            "scoring commands need fully labeled data"
        )
    labels = np.array([p.gang for p in individuals])
    return out, individuals, social, labels, compute_sigma(individuals, social)


def _out_path(raw: str | Path, directory: bool, name: str = "--out") -> Path:
    """An output path (`name` in messages), checked before any work: its
    parent must exist, and the path itself, if it exists, must be a
    directory exactly when `directory` is set."""
    path = Path(raw)
    if not path.parent.exists():
        raise DataError(f"output directory {path.parent} does not exist")
    if path.exists() and path.is_dir() != directory:
        raise DataError(f"{name} {path} exists and is {'not ' if directory else ''}a directory")
    return path


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DataError(f"--seed must be at least 0, got {seed}")


def _run_config(args) -> dict:
    """The config tail of a multi-run command: k, runs and each run's seed."""
    _check_seed(args.seed)
    if args.k < 1:
        raise DataError(f"--k must be at least 1, got {args.k}")
    if not 1 <= args.runs <= MAX_GRID_POINTS:
        raise DataError(f"--runs must be at least 1 and at most {MAX_GRID_POINTS}, got {args.runs}")
    return {"k": args.k, "runs": args.runs,
            "seeds": [args.seed + r for r in range(args.runs)]}


def _write(out: Path, args, config: dict, social, labels, body: dict, rows, summary) -> None:
    """Write a scoring command's report to `out`: the command, its config
    (the dataset first, then `config`), the contact diagnostics, then `body`.
    Beside it goes the plot CSV of `rows`. Only then are the `summary` lines
    printed, and the report path last."""
    save_results({
        "command": args.command,
        "config": {"dataset": str(args.dataset), **config},
        "diagnostics": diagnostics(social, labels).as_dict(),
        **body,
    }, out)
    save_plot_csv(rows, out.with_suffix(".csv"))
    for line in summary:
        print(line)
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


def _z_rand(labels, part, **point) -> float:
    """z_rand of `part`; an undefined z-Rand names the grid point, given as
    the keywords `point` (the record's keys and values)."""
    try:
        return z_rand(labels, part)
    except DataError as exc:
        where = ", ".join(f"{key}={value}" for key, value in point.items())
        raise DataError(f"at {where}, {exc}") from None


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
            "z_rand": _z_rand(labels, part, **lead, seed=seed),
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


def _grid_chunk(n: int, k: int) -> int:
    """Grid points whose n x k embeddings fit in half of one n x n array."""
    return max(1, n // (2 * k))


def _score_spectral(individuals, labels, seeds, k: int, grid) -> list[dict]:
    """`_score_runs` for spectral clustering, one record per `(lead, build)`
    point of `grid`, in grid order: `build()` returns the point's graph, and
    k-means runs once per seed on its embedding; the lowest objective is best.

    The grid runs in chunks of `_grid_chunk` points, each in two phases:
    first every point's W is built and embedded in its own array, keeping
    only the n x k coordinates, so each W is freed before the next is built
    (no caller reads a W after its embed); then every
    k-means runs. Embedding and clustering point by point uses the same CPU
    but, through the heap's layout, raised the process's own peak RSS on the
    seed-18 dataset from 52.4 to 52.7 MB (`sweep-alpha`) and from 53.1 to
    57.6 MB (`gt-sweep`), so the phasing stays for memory. Every RNG stream
    is the point's own, so the order changes no result."""
    size = _grid_chunk(len(individuals), k)
    records = []
    for start in range(0, len(grid), size):
        chunk = grid[start:start + size]
        held = [embed(build(), k, overwrite=True).coords for _, build in chunk]
        for (lead, _), coords in zip(chunk, held):
            records.append(_score_runs(individuals, labels, seeds, lead,
                                       [kmeans(coords, k, seed) for seed in seeds], np.argmin))
        del held, coords  # free this chunk's embeddings before the next is built
    return records


def _score_rows(param: str, value, record: dict, suffix: str = "") -> list[dict]:
    """Plot rows of one scored record: the purity row, then the z_rand row."""
    return [{"param": param, "value": value, "metric": metric + suffix,
             "mean": record[f"{key}_mean"], "std": record[f"{key}_std"]}
            for metric, key in (("purity", "purity"), ("z_rand", "zrand"))]


def cmd_generate(args) -> int:
    _check_seed(args.seed)
    config = SynthConfig(n_members=args.n_members, n_groups=args.n_groups, seed=args.seed)
    out_dir = _out_path(args.out, directory=True)
    try:
        individuals, social = generate_dataset(config)
    except NumericalError as exc:
        raise NumericalError(f"{exc}; config: {config}") from exc
    out_dir.mkdir(exist_ok=True)  # only once there is a dataset to write
    save_dataset(individuals, social, DatasetFiles.in_dir(out_dir))
    labels = [p.gang for p in individuals]
    report = diagnostics(social, labels)
    print(f"wrote {out_dir}/individuals.csv and {out_dir}/contacts.csv")
    for key, value in report.as_dict().items():
        print(f"  {key:18} {value}")
    return 0


def cmd_sweep_alpha(args) -> int:
    alphas = _alpha_list(args.alphas)
    run_config = _run_config(args)
    out, individuals, social, labels, sigma = _load(args)
    records = _score_spectral(
        individuals, labels, run_config["seeds"], args.k,
        [({"alpha": alpha}, partial(build_weight_matrix, individuals, social, alpha, sigma))
         for alpha in alphas])
    _write(out, args, {"alphas": alphas, "sigma": sigma, **run_config}, social, labels,
           {"results": records},
           [row for rec in records for row in _score_rows("alpha", rec["alpha"], rec)],
           [f"alpha={rec['alpha']:4}: purity {rec['purity_mean']:.3f} "
            f"± {rec['purity_std']:.3f}, z-Rand {rec['zrand_mean']:.1f}" for rec in records])
    return 0


def cmd_multislice(args) -> int:
    gammas = _parse_grid(args.gamma_grid)
    check_slice_params(gammas, args.omega)  # before the dataset load and W build
    check_alpha(args.alpha)
    _check_seed(args.seed)
    out, individuals, social, labels, sigma = _load(args)
    transition = normalize(build_weight_matrix(individuals, social, args.alpha, sigma))
    stack = SliceStack(transition, gammas, omega=args.omega)
    del transition  # the stack's symmetrized copy is the one Louvain reads
    result = multislice_louvain(stack, args.seed)

    slices = []
    for s, gamma in enumerate(gammas):
        part = Partition.from_labels(result.assignment[:, s])
        slices.append({
            "gamma": gamma,
            "n_communities": part.k,
            "purity": purity(labels, part),
            "z_rand": _z_rand(labels, part, gamma=gamma),
            "communities": community_summaries(individuals, labels, part.assignment),
        })
    plateaus = find_plateaus([rec["n_communities"] for rec in slices])
    config = {"alpha": args.alpha, "sigma": sigma, "gamma_grid": gammas,
              "omega": args.omega, "seeds": [args.seed]}
    body = {
        "quality": result.objective,
        "n_communities_total": result.k,
        "results": slices,
        "plateaus": plateaus,
        "zrand_local_maxima": local_maxima([rec["z_rand"] for rec in slices]),
        "assignment": result.assignment,
    }
    _write(out, args, config, social, labels, body,
           [{"param": "gamma", "value": rec["gamma"], "metric": metric,
             "mean": rec[metric], "std": 0.0}
            for rec in slices for metric in ("n_communities", "purity", "z_rand")],
           [f"multislice Q={result.objective:.4f}, "
            f"{result.k} communities across {len(gammas)} slices",
            f"plateaus: {plateaus}"])
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
    alphas = _alpha_list(args.alphas)
    p_grid = sorted(_parse_grid(args.p_grid))
    q_list = sorted(_parse_grid(args.q_list))
    points = len(q_list) * len(alphas) * len(p_grid)
    if points > MAX_GRID_POINTS:
        raise DataError(f"gt-sweep grid has {len(q_list)} x {len(alphas)} x {len(p_grid)} = "
                        f"{points} points, more than {MAX_GRID_POINTS}")
    run_config = _run_config(args)
    # Constructing the params checks every p and q before the dataset load.
    # A draw is seeded by its position in the q x p grid, so every alpha
    # scores the same GT matrix.
    draws = [[GtParams(p=p, q=q, seed=args.seed + GT_SEED_STRIDE * (qi * len(p_grid) + pi + 1))
              for pi, p in enumerate(p_grid)] for qi, q in enumerate(q_list)]
    grid = [(alpha, params) for row in draws for alpha in alphas for params in row]
    out, individuals, social, labels, sigma = _load(args)
    # The grid runs q row by q row, each alpha over the row's whole p grid,
    # so each draw is made at its first alpha and kept only until its last.
    kept = {}

    def gt_graph(alpha, params):
        gt = kept.pop(params) if params in kept else gt_matrix(labels, params)
        if alpha != alphas[-1]:
            kept[params] = gt
        # The geographic kernel stays fixed: sigma comes from the observed
        # contacts even though the social matrix is swapped for GT(p, q).
        return build_weight_matrix(individuals, gt, alpha, sigma)

    records = _score_spectral(
        individuals, labels, run_config["seeds"], args.k,
        [({"q": params.q, "alpha": alpha, "p": params.p, "gt_seed": params.seed},
          partial(gt_graph, alpha, params)) for alpha, params in grid])
    equivalence_p = gt_equivalence_point(labels, social)
    config = {"alphas": alphas, "p_grid": p_grid, "q_list": q_list, "sigma": sigma, **run_config}
    _write(out, args, config, social, labels,
           {"equivalence_p": equivalence_p, "results": records},
           [row for rec in records
            for row in _score_rows(f"p[q={rec['q']},alpha={rec['alpha']}]", rec["p"], rec)],
           [f"equivalence point p* = {equivalence_p:.4f}"]
           + [f"q={rec['q']:4} alpha={rec['alpha']:4} p={rec['p']:4}: "
              f"purity {rec['purity_mean']:.3f} ± {rec['purity_std']:.3f}" for rec in records])
    return 0


def cmd_baselines(args) -> int:
    alphas = _alpha_list(args.alphas)
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
        # Embedded only after kmeans_columns has dropped its n x n features.
        spectral += _score_spectral(individuals, labels, seeds, args.k,
                                    [({"alpha": alpha}, lambda: graph)])
        del graph  # free this n x n W before the next alpha builds its own
    body = {"gmm": gmm_record, "kmeans_columns": columns, "spectral": spectral}
    rows = [row for name in ("kmeans_columns", "spectral") for rec in body[name]
            for row in _score_rows("alpha", rec["alpha"], rec, f"/{name}")]
    _write(out, args, {"alphas": alphas, "sigma": sigma, **run_config}, social, labels, body,
           rows + _score_rows("alpha", -1.0, gmm_record, "/gmm"),
           [f"gmm: purity {gmm_record['purity_mean']:.3f}, "
            f"z-Rand {gmm_record['zrand_mean']:.1f}"]
           + [f"alpha={rec['alpha']:4}: k-means-columns purity "
              f"{rec['purity_mean']:.3f} (z {rec['zrand_mean']:.1f}) vs spectral "
              f"{spec['purity_mean']:.3f} (z {spec['zrand_mean']:.1f})"
              for rec, spec in zip(columns, spectral)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
