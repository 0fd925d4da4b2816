"""End-to-end smoke runs of the shipped examples and CLI surfaces.

These are the slow, whole-command checks that tier-1 leaves out: they run
the ``examples/`` files, the quick policy tournament, a real daemon
process on a loopback socket, and the quick bench.  Each one pins a
contract the unit tests cannot see from inside one process: a clean exit,
a trace free of alarm events, or byte-identical reports across runs.

They carry the ``smoke`` marker, which the default run deselects::

    PYTHONPATH=src python -m pytest -q -m smoke
"""

import cProfile
import hashlib
import importlib.util
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.harness.cli import main

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
SRC = Path(repro.__file__).resolve().parent.parent


def _events(trace: Path) -> set:
    return {json.loads(line)["event"] for line in trace.read_text().splitlines()}


# -- bench -------------------------------------------------------------------


#: How many times slower than the committed ``BENCH_controller.json`` a
#: quick-mode row may run.  Loose on purpose: the committed numbers come
#: from one machine and CI hosts differ, so only a gross regression (or a
#: lost optimisation) trips it.
BENCH_RATIO_BOUND = 4.0


def _rows(path):
    return {b["name"]: b for b in json.loads(path.read_text())["benchmarks"]}


@pytest.fixture(scope="module")
def quick_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    assert main(["bench", "--quick", "--out", str(out)]) == 0
    return _rows(out)


def test_batch_access_pipeline_beats_the_scalar_reference(quick_bench):
    batch = quick_bench["setassoc_access_many"]["median_s"]
    scalar = quick_bench["setassoc_access_scalar"]["median_s"]
    assert batch <= scalar, f"batch {batch:.6f}s slower than scalar {scalar:.6f}s"


def test_quick_bench_rows_within_bound_of_committed(quick_bench):
    committed = _rows(ROOT / "BENCH_controller.json")
    assert sorted(quick_bench) == sorted(committed), "bench rows differ from the committed file"
    slow = [
        f"{name}: quick median {row['median_s']:.3g} s vs committed "
        f"{committed[name]['median_s']:.3g} s"
        for name, row in quick_bench.items()
        if row["median_s"] > BENCH_RATIO_BOUND * committed[name]["median_s"]
    ]
    assert not slow, f"over {BENCH_RATIO_BOUND:g}x the committed median: " + "; ".join(slow)


def test_metrics_export_carries_stage_and_grant_families(tmp_path, capsys):
    prom = tmp_path / "out.prom"
    assert main(["run", "fig10", "--metrics", str(prom)]) == 0
    capsys.readouterr()
    text = prom.read_text()
    assert "dcat_stage_seconds_bucket" in text
    assert "dcat_ways_granted_total" in text
    json.loads((tmp_path / "out.prom.json").read_text())


# -- noise-free call-count gate ---------------------------------------------


#: How far above its committed ``BENCH_calls.json`` total a workload's call
#: count may rise.
CALLS_BOUND = 1.02


def _workload_calls(workload: str) -> dict:
    """Calls cProfile counts over one perfbench fleet workload, in two
    parts: ``setup`` is the serial build of the full-size scenario dict for
    seed 1 plus its warm-up intervals (what perfbench's ``setup_s`` times),
    ``window`` the ``horizon`` fleet intervals that follow.

    Summed over the profiler's raw entries, one per code object.
    ``pstats`` keys entries by ``(file, line, name)`` and keeps only one of
    the code objects that share a key (every dataclass ``__init__`` is
    ``<string>:2``), so its total moves with memory layout.
    """
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    from repro.cloud.scenario import load_churn_scenario

    size = workloads.SIZES["full"][workload]
    build = {"fleet_dense": workloads.dense_scenario,
             "fleet_churn": workloads.churn_scenario}[workload]
    scenario = build(1, size)
    setup, window = cProfile.Profile(), cProfile.Profile()
    setup.enable()
    fleet, _ = load_churn_scenario(scenario, fleet_jobs=1)
    try:
        for _ in range(size["warmup"]):
            fleet.step()
        setup.disable()
        window.enable()
        for _ in range(size["horizon"]):
            fleet.step()
        window.disable()
    finally:
        setup.disable()
        fleet.close()
    return {part: sum(entry.callcount for entry in profile.getstats())
            for part, profile in (("setup", setup), ("window", window))}


def test_call_counts_within_bound_of_committed():
    """Python function calls per fleet build and per measured window may
    not grow.

    Unlike a timing, a call count does not move with the host's load, so a
    2% bound catches an interpreted-code regression that wall-time rows on
    a shared runner could not resolve.  It sees only calls: work inside
    numpy (or any C loop) is invisible to it, which the wall-time rows of
    ``BENCH_controller.json`` still cover.  Counts differ between Python
    minors (3.12 inlines comprehensions), so the gate runs only on the one
    the committed counts were taken on.  They come from a fresh process;
    earlier tests in the same one leave imports done and caches warm, which
    lowers a setup count.  Run with ``-s`` to print today's counts; a
    change that lowers them commits the new ones.
    """
    committed = json.loads((ROOT / "BENCH_calls.json").read_text())
    here = "{}.{}".format(*sys.version_info[:2])
    if committed["python"] != here:
        pytest.skip(f"counts were taken on Python {committed['python']}, not {here}")
    measured = {name: _workload_calls(name) for name in committed["calls"]}
    print(f"calls on Python {here}: {measured}")
    over = [
        f"{name} {part}: {calls[part]:,} calls vs committed {committed[key][name]:,}"
        for name, calls in measured.items()
        for part, key in (("setup", "setup_calls"), ("window", "calls"))
        if calls[part] > CALLS_BOUND * committed[key][name]
    ]
    assert not over, f"over {CALLS_BOUND:g}x the committed count: " + "; ".join(over)


# -- paper reports and long horizons ----------------------------------------


#: sha256 of the stdout of ``run all --seed 1234``: every paper figure,
#: table and ablation report.  A change that moves one byte of a report
#: fails here; one that means to must say why and re-pin.
RUN_ALL_SHA256 = "d8bff77878e4490a029d50ee9bb1b8f6cbcf9acf76d1575d9bf544eb6ead0f8f"


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))


def test_run_all_reports_are_pinned():
    out = subprocess.run(
        [sys.executable, "-m", "repro.harness", "run", "all",
         "--seed", "1234", "--jobs", "2"],
        stdout=subprocess.PIPE,
        check=True,
        env=_src_env(),
        timeout=600,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == RUN_ALL_SHA256


def test_run_keeps_every_interval_at_long_horizons():
    from repro.platform.machine import Machine
    from repro.platform.managers import SharedCacheManager
    from repro.platform.sim import CloudSimulation

    k = 20_971_524
    sim = CloudSimulation(Machine(interval_s=0.1), [], SharedCacheManager())
    steps = itertools.count()
    sim.step = steps.__next__  # count intervals instead of simulating them
    sim.run(k * 0.1)
    assert next(steps) == k
    assert sim._residual_s == 0.0


@pytest.mark.parametrize("script", sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_python_example_runs(script):
    out = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        stdout=subprocess.PIPE,
        check=True,
        env=_src_env(),
        timeout=300,
    ).stdout
    assert out.strip()


# -- churn and fidelity ------------------------------------------------------


def test_churn_experiments_under_the_parallel_runner(capsys):
    assert main(
        ["run", "cloud_churn_poisson", "cloud_churn_scripted", "--jobs", "2"]
    ) == 0
    capsys.readouterr()


def test_churn_experiment_trace_records_admissions(tmp_path, capsys):
    trace = tmp_path / "churn.jsonl"
    assert main(["run", "cloud_churn_poisson", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert "TenantAdmitted" in _events(trace)


@pytest.mark.parametrize(
    "args",
    [
        ["churn", str(EXAMPLES / "churn.json")],
        ["churn", str(EXAMPLES / "policy_churn.json")],
    ],
    ids=["churn", "policy_churn"],
)
def test_example_churn_scenarios_run(args, capsys):
    assert main(args) == 0
    assert "== per-tenant SLO ==" in capsys.readouterr().out


def test_mixed_fidelity_churn_has_no_divergence(tmp_path, capsys):
    trace = tmp_path / "fidelity.jsonl"
    code = main(["churn", str(EXAMPLES / "churn_mixed.json"), "--trace", str(trace)])
    assert code == 0
    capsys.readouterr()
    events = _events(trace)
    assert events
    assert "FidelityDivergence" not in events


def test_fidelity_validation_reports_zero_divergences(capsys):
    assert main(["run", "fidelity_validation"]) == 0
    assert "0 divergences" in capsys.readouterr().out


# -- tournament and chaos ----------------------------------------------------


def test_quick_tournament_is_valid_and_byte_identical(tmp_path, capsys):
    from repro.harness.experiments.tournament import validate_tournament_report

    first, second = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(["tournament", "--quick", "--out", str(first)]) == 0
    assert main(["tournament", "--quick", "--json", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    payload = json.loads(first.read_text())
    validate_tournament_report(payload)
    assert payload["quick"] is True
    assert len(payload["policies"]) >= 3
    assert len(payload["scenarios"]) >= 2
    assert payload["fault_modes"] == ["off", "on"]
    assert any(agg["pareto"] for agg in payload["summary"].values())


def test_example_chaos_scenario_holds_its_invariants(tmp_path, capsys):
    trace = tmp_path / "chaos.jsonl"
    assert main(["chaos", str(EXAMPLES / "chaos.json"), "--trace", str(trace)]) == 0
    capsys.readouterr()
    events = _events(trace)
    assert "FaultInjected" in events
    assert "InvariantViolated" not in events


def test_chaos_report_is_byte_identical_across_runs(capsys):
    reports = []
    for _ in range(2):
        assert main(["chaos", str(EXAMPLES / "chaos.json"), "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


# -- service daemon ----------------------------------------------------------


def _http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read().decode()


def test_daemon_serves_a_lifecycle_and_stops_on_sigterm(tmp_path):
    trace = tmp_path / "service.jsonl"
    env = _src_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.harness", "serve",
         str(EXAMPLES / "service.json"), "--port", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        # The daemon prints its bound address once listening (--port 0).
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        banner = proc.stdout.readline() if ready else ""
        match = re.search(r"serving on (http://\S+) ", banner)
        assert match, f"no serving banner within 30 s: {banner!r}"
        base = match.group(1)

        health = json.loads(_http("GET", f"{base}/healthz"))
        assert health["status"] == "ok"
        admit = json.loads(_http("POST", f"{base}/v1/tenants", {
            "name": "smoke", "baseline_ways": 3,
            "workload": {"type": "mlr", "wss_mb": 8},
        }))
        assert admit["admitted"] is True
        _http("GET", f"{base}/v1/tenants/smoke/stats")
        assert "dcat_http_requests_total" in _http("GET", f"{base}/metrics")
        detach = json.loads(_http("DELETE", f"{base}/v1/tenants/smoke"))
        assert detach["reason"] == "detached"
        assert json.loads(_http("GET", f"{base}/healthz"))["invariant_violations"] == 0

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    events = _events(trace)
    assert "TenantAdmitted" in events
    assert "InvariantViolated" not in events
