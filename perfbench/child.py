"""Child process of the benchmark: runs one geocluster step in a fresh
interpreter, optionally with every public layer function wrapped in a span.

    python perfbench/child.py setup --dataset DIR [--spans FILE] -- <generate flags>
    python perfbench/child.py cli --spans FILE -- <cli argv>

`setup` imports geocluster, runs `generate` into DIR and loads the result
once. `cli` runs `geocluster.cli.main` with tracing on. The exit code is the
CLI's. Spans are kept in memory as [name, start, end, parent, attrs] and
written to FILE as JSON when the step ends.

The wrappers replace each binding callers look up: `cli.py` and
`baselines.py` import `kmeans`, `embed`, `normalize` and others by name, so
every module attribute that is the original function is replaced, not only
the one in the defining module. `SocialMatrix.to_dense` is wrapped on the
class. The span stack assumes one thread, which holds while
GEOCLUSTER_THREADS is unset.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

# (module, function) pairs under geocluster whose calls become spans.
TARGETS = (
    ("graph", "build_weight_matrix"), ("graph", "normalize"), ("graph", "compute_sigma"),
    ("spectral", "embed"), ("spectral", "kmeans"), ("spectral", "lloyd"),
    ("modularity", "multislice_louvain"), ("modularity", "multislice_score"),
    ("metrics", "purity"), ("metrics", "z_rand"), ("metrics", "diagnostics"),
    ("synth", "gt_matrix"), ("synth", "generate_dataset"),
    ("baselines", "fit_gmm"), ("baselines", "gmm_cluster"), ("baselines", "kmeans_columns"),
    ("io", "load_dataset"), ("io", "save_results"), ("io", "save_plot_csv"),
    ("cli", "community_summaries"),
)
TO_DENSE = "graph.SocialMatrix.to_dense"  # wrapped on the class
ROOT_SPAN = "cli.main"
SPAN_NAMES = tuple(f"{module}.{function}" for module, function in TARGETS) + (TO_DENSE,)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._weight_inputs: set = set()

    def wrap(self, name: str, fn, attrs=None):
        """Return `fn` recording one span per call; `attrs(args, kwargs,
        result)` may attach counts to the span after it has ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, None])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if attrs is not None:
                self.spans[index][4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import geocluster.cli  # noqa: F401  (imports every layer module)
        from geocluster import baselines, graph

        modules = [m for key, m in sys.modules.items()
                   if key == "geocluster" or key.startswith("geocluster.")]
        fit_gmm_sig = inspect.signature(baselines.fit_gmm)
        attrs = {
            "graph.build_weight_matrix": self._weight_attrs,
            "baselines.fit_gmm": functools.partial(_fit_gmm_attrs, fit_gmm_sig),
        }
        for module, function in TARGETS:
            original = getattr(importlib.import_module(f"geocluster.{module}"), function)
            name = f"{module}.{function}"
            wrapped = self.wrap(name, original, attrs.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
        graph.SocialMatrix.to_dense = self.wrap(TO_DENSE, graph.SocialMatrix.to_dense)

    def _weight_attrs(self, args, kwargs, result) -> dict:
        # The (alpha, sigma, contact set) a W build depends on, given that
        # one process only ever loads one dataset.
        social = args[1] if len(args) > 1 else kwargs["social"]
        key = (result.alpha, result.sigma, social.pairs)
        new = key not in self._weight_inputs
        self._weight_inputs.add(key)
        return {"distinct": int(new)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _fit_gmm_attrs(signature, args, kwargs, result) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    iters = len(result.log_likelihoods)
    return {"em_iters": iters, "cap_hit": int(iters >= bound.arguments["max_iter"])}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("setup", "cli"))
    parser.add_argument("--dataset", help="setup: directory the dataset is written to")
    parser.add_argument("--spans", help="write the recorded spans to this JSON file")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1:]

    import geocluster.cli
    import geocluster.io

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    if args.mode == "setup":
        cli_argv = ["generate", *rest, "--out", args.dataset]
    else:
        cli_argv = rest
    main_fn = geocluster.cli.main
    if tracer is not None:
        main_fn = tracer.wrap(ROOT_SPAN, main_fn)
    try:
        code = main_fn(cli_argv)
        if code == 0 and args.mode == "setup":
            files = geocluster.io.DatasetFiles.in_dir(args.dataset)
            geocluster.io.load_dataset(files)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
