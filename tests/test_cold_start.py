"""Cold-start import graph: what a daemon, fleet worker or CLI process loads.

A restart costs a boot, so the service, executor and CLI entry points must
not pull in ``scipy.stats`` (about a second of import time; the cache model
calls the binomial kernel it wraps directly) and the daemon and workers must
not load the experiment registry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(imports: str, probes: list) -> dict:
    """Which of ``probes`` are in ``sys.modules`` after ``import <imports>``,
    in a fresh interpreter."""
    code = (
        f"import sys, json; import {imports}; "
        f"print(json.dumps({{m: m in sys.modules for m in {probes!r}}}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_entry_points_do_not_import_scipy_stats():
    loaded = _loaded_after(
        "repro, repro.service.daemon, repro.cloud.executor, repro.harness.cli",
        ["scipy.stats", "repro.cache.analytical"],
    )
    assert loaded == {"scipy.stats": False, "repro.cache.analytical": True}


@pytest.mark.parametrize("module", ["repro.service.daemon", "repro.cloud.executor"])
def test_daemon_and_workers_skip_the_experiment_registry(module):
    loaded = _loaded_after(module, ["scipy.stats", "repro.harness.registry"])
    assert loaded == {"scipy.stats": False, "repro.harness.registry": False}
