"""Tiny-size tests of the benchmark itself (the full benchmark never runs here)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cache import GraphCache

from perfbench import metrics, run as run_cli
from perfbench.runner import run
from perfbench.tracing import END, ID, NAME, PARENT, REQUEST, START, summarize
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "aids-zz-mem": dict(
        dataset_scale=0.1, setups=1, warmup_queries=20, fingerprint_queries=60,
        chunk_requests=20, min_requests=40,
    ),
    "aids-b20-sqlite": dict(
        dataset_scale=0.1, setups=1, warmup_queries=20, fingerprint_queries=60,
        chunk_requests=20, min_requests=40, answer_pool=6, no_answer_pool=2,
    ),
    "pdbs-uu-pool2": dict(
        dataset_scale=0.1, setups=1, warmup_queries=8, fingerprint_queries=24,
        chunk_requests=4, min_requests=10,
    ),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def tiny_run(name, tmp_path, seed=3, trace=False, spans_path=None):
    return run(tiny(name), seed=seed, seconds=0.05, trace=trace,
               work_dir=str(tmp_path / "work"), spans_path=spans_path)


def test_metric_definitions_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]} == {
        name: spec for name, spec in metrics.END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == metrics.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    assert all(spec.setups >= 3 for spec in WORKLOADS.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result = tiny_run(name, tmp_path, trace=trace)
    assert result.correct and result.attempted >= TINY[name]["fingerprint_queries"]
    printed = result.final_line()["metrics"]
    expected = (
        {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
        if trace
        else {name: unit for name, (unit, _, _) in metrics.END_TO_END.items()}
    )
    assert {metric: entry["unit"] for metric, entry in printed.items()} == expected
    report = "\n".join(run_cli.report_lines(result))
    for metric, unit in expected.items():
        assert any(metric in line and line.rstrip().endswith(unit) for line in report.splitlines())
    if not trace:
        assert all(entry["value"] > 0 for entry in printed.values())
    if WORKLOADS[name].pooled:
        assert result.details["decode_avoided"] == result.details["pool_queries"] > 0
    elif trace:
        # Layer self times along the query path account for the query time.
        assert sum(result.accounting.values()) == pytest.approx(result.details["traced_query_ms"])


def test_injected_wrong_answer_fails_the_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "aids-zz-mem", tiny("aids-zz-mem"))
    monkeypatch.setattr(run_cli, "WORK_DIR", tmp_path)
    original = GraphCache.query
    calls = []

    def corrupted(self, query):
        result = original(self, query)
        calls.append(query)
        if len(calls) == 30:
            return dataclasses.replace(result, answer_ids=result.answer_ids ^ {0})
        return result

    monkeypatch.setattr(GraphCache, "query", corrupted)
    code = run_cli.main(["--workload", "aids-zz-mem", "--seed", "1", "--seconds", "0.05"])
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert final["correct"] is False and final["failed"] == 1
    assert final["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 1 / final["attempted"])


def test_spans_nest_with_one_request_id_per_query(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    result = tiny_run("aids-b20-sqlite", tmp_path, trace=True, spans_path=str(spans_path))
    rows = [json.loads(line) for line in spans_path.read_text().splitlines()[1:]]
    by_id = {row[ID]: row for row in rows}
    roots = [row for row in rows if row[NAME] == "GraphCache.query"]
    assert roots and all(row[PARENT] is None for row in roots)
    assert len({row[REQUEST] for row in roots}) == len(roots)
    for row in rows:
        assert row[START] <= row[END]
        if row[PARENT] is not None:
            parent = by_id[row[PARENT]]
            assert parent[START] <= row[START] and row[END] <= parent[END]
            assert row[REQUEST] == parent[REQUEST]
    requests = {row[REQUEST] for row in rows if row[REQUEST] is not None}
    assert requests == {row[REQUEST] for row in roots}
    for entry in summarize(rows).values():
        assert -1e-9 <= entry.self_s <= entry.total_s + 1e-9
    names = {row[NAME] for row in rows}
    assert {"StorageBackend.put", "PlanJournal.append", "MaintenanceEngine.apply"} <= names
    assert result.per_layer["journal.bytes_per_round"] > 0
    # The probes are gone once the run is over.
    assert GraphCache.query is GraphCache.__dict__["query"]
    assert not hasattr(GraphCache.query, "__wrapped__")


def test_fingerprint_is_stable_per_seed(tmp_path):
    first = tiny_run("aids-zz-mem", tmp_path, seed=5).fingerprint
    again = tiny_run("aids-zz-mem", tmp_path, seed=5, trace=True).fingerprint
    other = tiny_run("aids-zz-mem", tmp_path, seed=6).fingerprint
    assert first == again
    assert first["queries"] == TINY["aids-zz-mem"]["fingerprint_queries"]
    assert first["subiso_tests"] > 0 and first["maintenance_rounds"] > 0
    assert other["answers_sha256"] != first["answers_sha256"]


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, *declared["command"][1:], "--workload", "aids-zz-mem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
