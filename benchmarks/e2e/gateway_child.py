"""The system under test of the ``gateway_*`` workloads, as its own process.

``python gateway_child.py <src-dir> <package.npz>`` serves the three-cohort
registry through a ``GatewayServer`` built with library defaults, prints
``{"port": N}`` once it listens, then answers each ``summary`` line on
stdin with one JSON line of ``GatewayServer.summary()`` plus its own
peak resident set.  Any other line, or EOF (the benchmark died), stops it.
"""

from __future__ import annotations

import asyncio
import json
import sys


async def serve(package_path: str) -> None:
    from repro.serving import GatewayServer
    from scenario import build_registry, peak_rss_mb

    async with GatewayServer(build_registry(package_path), port=0) as gateway:
        print(json.dumps({"port": gateway.port}), flush=True)
        loop = asyncio.get_running_loop()
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if line.strip() != "summary":
                return
            summary = gateway.summary()
            summary["peak_rss_mb"] = peak_rss_mb()
            print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    asyncio.run(serve(sys.argv[2]))
