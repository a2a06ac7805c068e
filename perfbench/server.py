"""A ``StreamServer`` in its own process, for the serve-push workload.

    python3 -m perfbench.server <unix-socket-path>

Prints ``ready`` once bound, then serves until SIGTERM or until its
standard input closes (the benchmark process exited), and shuts down
gracefully.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading


async def serve(path: str) -> None:
    from repro.serve import StreamServer

    server = StreamServer()
    await server.start(path=path)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def watch_parent():
        sys.stdin.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=watch_parent, daemon=True).start()
    print("ready", flush=True)
    await stop.wait()
    await server.shutdown()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
