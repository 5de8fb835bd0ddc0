"""Benchmark artifacts are build output, never tracked files."""

from __future__ import annotations

import json
from pathlib import Path

from _shared import emit_bench_json

ROOT = Path(__file__).resolve().parent.parent


def test_emit_bench_json_writes_under_bench_build():
    target = emit_bench_json("emit_probe", {"value": 1})
    try:
        assert target == ROOT / ".bench_build" / "BENCH_emit_probe.json"
        document = json.loads(target.read_text())
        assert document["benchmark"] == "emit_probe"
        assert document["value"] == 1
        assert not (ROOT / "BENCH_emit_probe.json").exists()
    finally:
        target.unlink()
