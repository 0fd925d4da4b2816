"""Cold-start import graph: what a daemon, fleet worker or CLI process loads.

A restart costs a boot, so the service, executor and CLI entry points must
not pull in ``scipy.stats`` (about a second of import time; the cache model
calls the binomial kernel it wraps directly) nor run the ``scipy.special``
package ``__init__`` (its array-API shims cost about 0.25 s and 13 MB; the
cache model loads only the kernel's extension modules), and the daemon and
workers must not load the experiment registry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY_POINTS = "repro, repro.service.daemon, repro.cloud.executor, repro.harness.cli"


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_after(imports: str, probes: list) -> dict:
    """Which of ``probes`` are in ``sys.modules`` after ``import <imports>``,
    in a fresh interpreter."""
    return _fresh(
        f"import sys, json; import {imports}; "
        f"print(json.dumps({{m: m in sys.modules for m in {probes!r}}}))"
    )


def test_entry_points_do_not_import_scipy_stats():
    loaded = _loaded_after(ENTRY_POINTS, ["scipy.stats", "repro.cache.analytical"])
    assert loaded == {"scipy.stats": False, "repro.cache.analytical": True}


@pytest.mark.parametrize("module", ["repro.service.daemon", "repro.cloud.executor"])
def test_daemon_and_workers_skip_the_experiment_registry(module):
    loaded = _loaded_after(module, ["scipy.stats", "repro.harness.registry"])
    assert loaded == {"scipy.stats": False, "repro.harness.registry": False}


def test_entry_points_load_only_the_kernels_extension_modules():
    """A boot that evaluates a way curve runs neither the ``scipy.special``
    nor the ``scipy.stats`` package: every ``scipy.special`` submodule in
    the process is a compiled extension module."""
    loaded = _fresh(
        f"import sys, json; import {ENTRY_POINTS}\n"
        "from repro.cache.analytical import AccessPattern, AnalyticalCacheModel, Footprint\n"
        "from repro.mem.address import MB, CacheGeometry\n"
        "curve = AnalyticalCacheModel(CacheGeometry.xeon_e5()).way_curve_fp(\n"
        "    Footprint(AccessPattern.RANDOM, 8 * MB))\n"
        "special = {m: getattr(sys.modules[m], '__file__', '') for m in sys.modules\n"
        "           if m.startswith('scipy.special.')}\n"
        "print(json.dumps({'special': 'scipy.special' in sys.modules,\n"
        "                  'stats': 'scipy.stats' in sys.modules,\n"
        "                  'curve_top': float(curve[-1]), 'submodules': special}))"
    )
    assert loaded["special"] is False and loaded["stats"] is False
    assert 0.0 < loaded["curve_top"] <= 1.0
    assert "scipy.special._ufuncs" in loaded["submodules"]
    assert all(
        not path.endswith(".py") for path in loaded["submodules"].values()
    ), loaded["submodules"]


def test_real_scipy_special_still_imports_after_the_loader():
    """The stand-in package is gone once the kernel has loaded, and a later
    ``import scipy.special`` (or ``scipy.stats``) runs the real package over
    the cached extension modules, which hold the very ufunc the model calls."""
    result = _fresh(
        "import sys, json, scipy\n"
        "from repro.cache import analytical\n"
        "left = {'module': 'scipy.special' in sys.modules,\n"
        "        'attribute': 'special' in vars(scipy)}\n"
        "import scipy.special\n"
        "from scipy import stats\n"
        "print(json.dumps({**left,\n"
        "    'gamma': float(scipy.special.gamma(5.0)),\n"
        "    'real_init': scipy.special.__file__,\n"
        "    'same': scipy.special._ufuncs._binom_pmf is analytical._binom_pmf,\n"
        "    'pmf': float(stats.binom.pmf(3, 10, 0.25)),\n"
        "    'kernel': float(analytical._binomial_pmf(3, 10, 0.25))}))"
    )
    assert result["module"] is False and result["attribute"] is False
    assert result["gamma"] == 24.0
    assert result["real_init"].endswith("__init__.py")
    assert result["same"] is True
    assert result["pmf"] == result["kernel"]


def test_loader_reuses_an_already_imported_scipy_special():
    result = _fresh(
        "import json, sys, scipy.special\n"
        "package = sys.modules['scipy.special']\n"
        "from repro.cache import analytical\n"
        "print(json.dumps({\n"
        "    'same': analytical._binom_pmf is scipy.special._ufuncs._binom_pmf,\n"
        "    'again': analytical._load_binom_pmf() is analytical._binom_pmf,\n"
        "    'package': sys.modules['scipy.special'] is package}))"
    )
    assert result == {"same": True, "again": True, "package": True}
