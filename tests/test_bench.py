"""`scripts/bench.py` turns each perfbench result into one workload record
of a `BENCH_<label>.json`. The recorded file here holds, from the `sweep`
run behind `bench/BENCH_e3f162b.json`, the stdout line that
`perfbench/run.py` printed (`printed`) and the result file it wrote
(`result`); no benchmark runs."""

import json
import statistics

from conftest import SCRIPTS, load_module

ROOT = SCRIPTS.parent
RECORDED = ROOT / "tests" / "data" / "perfbench-sweep-seed18.json"


def test_recorded_result_gives_the_committed_record():
    bench = load_module(SCRIPTS / "bench.py", "bench")
    recorded = json.loads(RECORDED.read_text())
    printed, result = recorded["printed"], recorded["result"]
    entry = bench.workload_entry(printed, result)
    committed = json.loads((ROOT / "bench" / "BENCH_e3f162b.json").read_text())
    assert entry == committed["workloads"]["sweep"]
    # sweep runs two commands per list, so the printed count of attempted
    # invocations is not the number of lists.
    assert (entry["attempted"], entry["lists"]) == (8, 4)
    assert entry["correct"] is True and entry["failed"] == 0
    assert entry["code_sha256"] == result["code_sha256"]
    assert entry["metrics"]["peak_rss_mb"] == printed["metrics"]["peak_rss_mb"]["value"]
    # Times are scaled as the metrics are; RSS is not.
    slowdown = result["slowdown"]
    assert entry["quartiles"]["wall_s"] == [q / slowdown for q in result["wall_s_quartiles"]]
    rss = [run["peak_rss_mb"] for run in result["lists"]]
    assert entry["quartiles"]["peak_rss_mb"] == statistics.quantiles(rss, n=4)
