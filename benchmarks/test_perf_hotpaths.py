"""pytest-benchmark twin of ``dcat-experiment bench``.

Each case here times exactly the callable one entry of the CLI bench suite
times (same builders from :mod:`repro.obs.bench`), so the interactive
``pytest benchmarks/test_perf_hotpaths.py`` view and the committed
``BENCH_controller.json`` numbers describe the same code paths.  The
assertions are sanity floors only — generous enough to never flake on a
loaded CI box, tight enough to catch an accidental 100x regression (e.g.
an O(n^2) slip in the exact model's batch loop or a controller step that
starts re-deriving phase tables per stage).
"""

import time

import pytest

from repro.obs.bench import (
    _bench_aggregate,
    _bench_controller_step,
    _bench_event_emit,
    _bench_mask_pack,
    _bench_setassoc,
    _bench_setassoc_scalar,
    _bench_sim_step_analytical,
    _bench_sim_step_exact,
    _bench_sim_step_mixed,
    _bench_sim_step_null_bus,
    _bench_sim_step_ring_bus,
)

# Per-call ceilings (seconds).  Hot paths run in well under a tenth of
# these on an idle laptop; tripping one means a real perf cliff.
_CEILINGS_S = {
    "setassoc_access_many": 0.5,
    "setassoc_access_scalar": 0.5,
    "counter_sample_aggregate": 1e-3,
    "controller_step": 0.25,
    "sim_step_null_bus": 0.25,
    "sim_step_ring_bus": 0.25,
    "sim_step_analytical": 0.25,
    "sim_step_exact": 2.0,
    "sim_step_mixed": 2.0,
    "event_emit": 1e-3,
    "mask_pack": 1e-3,
}

_CASES = [
    ("setassoc_access_many", _bench_setassoc, 3),
    ("setassoc_access_scalar", _bench_setassoc_scalar, 3),
    ("counter_sample_aggregate", _bench_aggregate, 200),
    ("controller_step", _bench_controller_step, 3),
    ("sim_step_null_bus", _bench_sim_step_null_bus, 3),
    ("sim_step_ring_bus", _bench_sim_step_ring_bus, 3),
    ("sim_step_analytical", _bench_sim_step_analytical, 3),
    ("sim_step_exact", _bench_sim_step_exact, 2),
    ("sim_step_mixed", _bench_sim_step_mixed, 2),
    ("event_emit", _bench_event_emit, 500),
    ("mask_pack", _bench_mask_pack, 200),
]


@pytest.mark.parametrize("name,build,iterations", _CASES, ids=[c[0] for c in _CASES])
def test_hotpath(benchmark, name, build, iterations):
    fn = build()
    fn()  # warm before timing, matching repro.obs.bench._time
    # Own timing for the assertion so it also holds under
    # --benchmark-disable (where pytest-benchmark collects no stats).
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    per_call = (time.perf_counter() - start) / iterations
    benchmark.pedantic(fn, rounds=3, iterations=iterations)
    assert per_call <= _CEILINGS_S[name]


def test_batch_beats_scalar(benchmark):
    """The vectorized batch pipeline must outrun its scalar reference.

    Same workload, same cache geometry, interleaved timing batches so a
    load spike on the CI box penalizes both legs roughly equally.
    """
    batch = _bench_setassoc()
    scalar = _bench_setassoc_scalar()
    batch()
    scalar()
    batch_s = scalar_s = 0.0
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(3):
            batch()
        batch_s += time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(3):
            scalar()
        scalar_s += time.perf_counter() - start
    benchmark.pedantic(batch, rounds=3, iterations=3)
    assert batch_s < scalar_s, (
        f"batch path ({batch_s:.4f}s) slower than scalar reference "
        f"({scalar_s:.4f}s)"
    )
