"""Benchmark-owned launcher for the controller daemon (its own process).

Usage::

    python3 perfbench/daemon.py CONFIG_JSON [--trace OUT.json]

Boots :class:`repro.service.daemon.ControllerDaemon` on an ephemeral
loopback port, prints ``{"port": N}`` on one stdout line once it accepts
connections, and serves until SIGTERM.  With ``--trace`` the fleet is
built under :func:`spans.traced` (stage observer plus the layer hooks,
``FleetHandle`` included), an event counter is subscribed to
``daemon.bus``, and on shutdown the span summary is written to
``OUT.json`` and every span to ``OUT.json.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fleetbench import controller_extras  # noqa: E402
from spans import SpanRecorder, traced  # noqa: E402


class EventCounter:
    """Counts every event published on the daemon's bus."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, event) -> None:
        self.count += 1


async def serve(daemon, recorder) -> dict:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await daemon.start()
    print(json.dumps({"port": daemon.port}), flush=True)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if recorder is not None:
        recorder.enabled = True
    await stop.wait()
    if recorder is not None:
        recorder.enabled = False
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    await daemon.stop()
    return {"wall_s": wall, "cpu_s": cpu}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--trace")
    args = parser.parse_args()

    from repro.service.config import load_service_config
    from repro.service.daemon import ControllerDaemon

    recorder = SpanRecorder() if args.trace else None
    with ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(traced(recorder))
            recorder.enabled = False
        daemon = ControllerDaemon(load_service_config(args.config))
        counter = EventCounter()
        daemon.bus.subscribe(counter)
        times = asyncio.run(serve(daemon, recorder))
    if recorder is not None:
        summary = dict(times)
        summary["events"] = counter.count
        summary["stats"] = recorder.stats()
        summary.update(controller_extras(daemon.handle.fleet))
        recorder.write(Path(args.trace).name + ".spans.jsonl")
        Path(args.trace).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
