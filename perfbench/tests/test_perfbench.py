"""The benchmark's own tests: catalogue, smoke runs, tracing.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fleetbench  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import SIZES  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [name for name, _ in metrics.WORKLOADS]


def run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_catalogue_names_units_directions():
    spec = metrics.benchmark_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(row["name"]), row
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("lower", "higher"), row
    for row in spec["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    assert any(r["name"] == "setup_s" and r["unit"] == "s" and r["better"] == "lower"
               for r in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128


def test_benchmark_json_matches_catalogue():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_spec()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_through_the_command(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    rows = metrics.per_layer() if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [r[0] for r in rows]
    for row in rows:
        assert result["metrics"][row[0]]["unit"] == row[1]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["trace.coverage"] > 0
        if workload != "service_mixed":
            assert abs(values["trace.coverage"] - 1) <= spans.RECONCILE_TOLERANCE
    else:
        assert all(v > 0 for v in values.values()), values


def test_recorder_counts_nested_time_once():
    rec = spans.SpanRecorder()
    rec.record("c1", 1.0, 2.0)
    rec.record("c2", 2.5, 3.0)
    rec.record("parent", 0.5, 4.0)
    rec.observe("sim", "record", 0.0)  # later sibling, derived at observe
    stats = rec.stats()
    assert stats["parent"] == (1, pytest.approx(2.0), pytest.approx(3.5))
    assert stats["c1"][1] == pytest.approx(1.0)
    roots = sum(end - start for _, start, end, parent, _ in rec.spans if parent is None)
    assert sum(s for _, s, _ in stats.values()) == pytest.approx(roots)


def test_missing_span_fails_loudly(monkeypatch):
    real = spans._hook_targets
    monkeypatch.setattr(
        spans, "_hook_targets", lambda: [t for t in real() if t[2] != "fleet.place"]
    )
    with pytest.raises(spans.MissingSpanError, match="fleet.place"):
        fleetbench.traced_run("fleet_dense", 1, SIZES["smoke"]["fleet_dense"])


def test_reconcile_rejects_double_counting():
    with pytest.raises(spans.ReconcileError):
        fleetbench._reconcile({"a": (1, 1.0, 1.0), "b": (1, 1.0, 1.0)}, 1.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("fleet_dense", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
