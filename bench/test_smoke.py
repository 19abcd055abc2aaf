"""Smoke test of the benchmark harness: ``pytest bench/test_smoke.py``.

Not part of tier-1 (``testpaths`` keeps ``bench/`` out of the default
run).  Drives ``bench/run.py --quick`` — inputs / 10, 2 rounds, all four
workloads — and checks the record against ``BENCHMARK.json``; then shows
that a wrong reference fails the run, and that two records of one seed
agree on everything ``bench/compare.py`` holds to be deterministic.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from bench import compare, run  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def test_quick_run_reports_every_metric(tmp_path):
    out = tmp_path / "record.json"
    assert run.main(["--quick", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record["workloads"]) == set(WORKLOADS)
    for name, result in record["workloads"].items():
        assert result["failed"] == 0, (name, result["rounds"])
        assert result["attempted"] == 5  # warm-up, 2 timed, 2 traced
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            reported = {k: m["unit"] for k, m in result[kind].items()}
            assert reported == declared, (name, kind)


def test_corrupted_reference_fails_the_run(tmp_path):
    def corrupt(name, seed, quick, workdir):
        defn = run.prepare_workload(name, seed, quick, workdir)
        reference = np.load(defn["reference_path"])
        np.save(defn["reference_path"], reference + 1e-3)
        return defn

    out = tmp_path / "record.json"
    code = run.main(
        ["--quick", "--workload", "pr_sim", "--trace", "0", "--out", str(out)],
        prepare=corrupt,
    )
    assert code != 0
    result = json.loads(out.read_text())["workloads"]["pr_sim"]
    assert result["failed"] == result["attempted"] == 3
    assert "reference" in result["rounds"][0]["error"]


def test_same_seed_records_agree_on_deterministic_rows(tmp_path):
    # pr_tcp_steps is the workload whose heartbeat timer follows wall time
    records = []
    for tag in "ab":
        out = tmp_path / f"{tag}.json"
        assert run.main(["--quick", "--workload", "pr_tcp_steps",
                         "--out", str(out)]) == 0
        records.append(json.loads(out.read_text()))
    timings = {m["name"] for m in SPEC["end_to_end"]}
    rows = [r for r in compare.compare(*records, SPEC) if r[1] not in timings]
    assert {r[1] for r in rows} == {"failed_frac", "sim_s", "sim_usd"}
    assert all(r[-1] == "ok" for r in rows), rows
