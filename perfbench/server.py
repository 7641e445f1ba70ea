"""Launch one quantile service as the system under test.

    python3 perfbench/server.py --spec '<json>' [--trace-out PATH]

``--spec`` carries the ``engine`` and ``service`` config dicts of one
workload.  The server binds an ephemeral loopback port, prints one JSON
line ``{"port": ..., "pid": ...}`` on stdout, and serves until SIGTERM or
SIGINT, then drains gracefully (which also stops any shard workers).

With ``--trace-out`` the layer hooks of :mod:`tracer` are installed before
the service is built.  SIGUSR1 starts a traced region and SIGUSR2 ends it;
the report and the raw spans are written to ``--trace-out`` on shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def build_configs(spec: dict):
    """The workload's ``(EngineConfig, ServiceConfig)``.

    Keys a config class no longer has are dropped, so one benchmark keeps
    running across versions that retire a knob (an inferred lane, say).
    """
    from repro.engine import EngineConfig
    from repro.service import ServiceConfig

    def build(cls, values: dict):
        names = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in values.items() if key in names})

    return build(EngineConfig, spec["engine"]), build(ServiceConfig, spec["service"])


def build_service(spec: dict):
    from repro.service import QuantileService

    engine_config, service_config = build_configs(spec)
    return QuantileService(engine_config=engine_config, config=service_config)


async def serve(spec: dict, tracer) -> None:
    loop = asyncio.get_running_loop()
    service = build_service(spec)
    await service.start()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    if tracer is not None:
        from tracer import watch_selector

        watch_selector(tracer, loop)
        loop.add_signal_handler(signal.SIGUSR1, tracer.begin)
        loop.add_signal_handler(signal.SIGUSR2, tracer.end)
    print(json.dumps({"port": service.port, "pid": os.getpid()}), flush=True)
    await stop.wait()
    if tracer is not None:
        tracer.end()
    await service.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload config as JSON")
    parser.add_argument("--trace-out", help="write the traced-region report here")
    args = parser.parse_args()
    spec = json.loads(args.spec)
    tracer = None
    if args.trace_out:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    asyncio.run(serve(spec, tracer))
    if tracer is not None:
        tracer.write(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
