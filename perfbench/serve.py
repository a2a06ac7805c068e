"""The serve-push workload: a ``StreamServer`` process on a unix socket and
two closed-loop ``ServeClient`` connections in this process.

Each client repeatedly opens a push session (FIR or FilterBank with
``optimize="none"``, each pair of sessions covering both in seeded
order), pushes its app's seeded samples in seeded chunk sizes with a
pipeline window of 2, and closes the session.  Clients wait for replies
before sending more, the way ``push_stream`` callers do, so a slower
server receives less load.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import resource
import signal
import sys
import time
from collections import defaultdict

import numpy as np

from .common import (SERVE_APPS, Outcome, Sizes, outputs_match, peak_rss_mb,
                     quantile, step_kinds)
from .spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: concurrent connections (the box has 2 cores; one load process)
CLIENTS = 2
#: pushes in flight per connection
WINDOW = 2
#: typical chunk size; draws span [CHUNK/2, 2*CHUNK].  The push size of
#: ``python -m repro.bench --chunked``.  It puts each app steadily on one
#: side of the server's 2 ms inline threshold
#: (``ServeConfig.inline_fast_path``), so both execution paths are
#: measured: FIR pushes cost 0.2-1 ms and run inline on the event loop,
#: FilterBank pushes cost 1.5-10 ms and run in the worker pool.  At
#: ``bench --serve``'s 2048, FilterBank pushes cost about 2 ms and flip
#: between the paths with the host's speed, and the figures with them.
CHUNK = 4096
#: samples pushed per session, the same samples for every session of an
#: app: two pushes per session, as ``bench --serve`` makes by default
SESSION_SAMPLES = 2 * CHUNK
#: server starts in set-up, half before the load and half after it, so
#: they sample the run's start and end; set-up time is their median
SETUP_REPEATS = 8
#: samples of the first session compared with the interp reference,
#: enough for each app to emit outputs past its filter latency
REF_SAMPLES = {"FIR": 512, "FilterBank": 384}
#: us_per_output and request_ms_p99 are medians over buckets of this many
#: seconds (about 2000 pushes each, so twenty beyond a p99)
BUCKET_S = 5.0
#: traced run: length of each traced phase and of its untraced twin
PHASE_S = 1.0
#: seconds to wait for a server to start or to stop
PROCESS_TIMEOUT = 60.0


class _ServerProcess:
    """One server process and its socket; always stop() it."""

    def __init__(self, sock: str):
        self.sock = sock
        self.proc = None

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT])
        # one core for the server, the other for this load process: a
        # second BLAS thread would spin against the clients
        env["OPENBLAS_NUM_THREADS"] = "1"
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perfbench.server",
            os.path.relpath(os.path.abspath(self.sock), ROOT),
            cwd=ROOT, env=env, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE)
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      PROCESS_TIMEOUT)
        if line.strip() != b"ready":
            raise RuntimeError(f"server did not start: {line!r}")

    async def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None and proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(proc.wait(), PROCESS_TIMEOUT)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        if os.path.exists(self.sock):
            os.unlink(self.sock)


class _Load:
    """Inputs, checks and measurements shared by the clients."""

    def __init__(self, seed: int, out: Outcome):
        rng = np.random.default_rng(seed)
        self.samples = {app: rng.standard_normal(SESSION_SAMPLES)
                        for app in SERVE_APPS}
        self.seed = seed
        self._clients: dict = {}
        self.out = out
        self.expected: dict = {}  # app -> outputs of its first session
        #: app -> [(reply time, send-to-reply seconds, outputs), ...]
        self.latencies = {app: [] for app in SERVE_APPS}
        self.session_us = []  # per session: wall us per output
        self.outputs = 0

    def client(self, index: int):
        """Client ``index``'s seeded session order and chunk sizes.  Each
        pair of sessions opens both apps, in random order, so the two
        clients cannot lock into a phase where their FilterBank sessions
        always (or never) overlap."""
        if index not in self._clients:
            rng = random.Random(f"{self.seed}/{index}")

            def apps():
                while True:
                    pair = list(SERVE_APPS)
                    rng.shuffle(pair)
                    yield from pair

            self._clients[index] = (apps(), Sizes(rng, CHUNK))
        return self._clients[index]

    def chunks(self, app: str, sizes: Sizes) -> list:
        x = self.samples[app]
        cuts, at = [], 0
        while at < len(x):
            step = sizes.next()
            cuts.append(x[at:at + step])
            at += step
        return cuts

    def check(self, app: str, replies: list) -> None:
        """Count each push; a push fails when its reply differs bitwise
        from the same stretch of the app's first session."""
        expected = self.expected[app]
        at = 0
        for got in replies:
            want = expected[at:at + len(got)]
            at += len(got)
            self.out.op(np.array_equal(got, want),
                        f"{app} push outputs {at - len(got)}..{at} differ "
                        "from the first session")


async def _session(client, app: str, sizes: Sizes, load: _Load,
                   record: bool, tracer: Tracer | None, run: str):
    """Open, push every chunk, close; returns the push replies."""
    chunks = load.chunks(app, sizes)
    latencies: list = []
    replies, stamps = [], []
    t0 = time.perf_counter()
    if tracer is not None:
        for attr in ("open", "push_stream", "close_session"):
            tracer.wrap(client, attr, f"client.{attr}", run)
    try:
        with (tracer.span("serve.session", run) if tracer is not None
              else contextlib.nullcontext()):
            await client.open(app=app.lower(), optimize="none",
                              dtype="f64")
            load.out.op()
            async for got in client.push_stream(chunks, window=WINDOW,
                                                latencies=latencies):
                stamps.append(time.perf_counter())
                replies.append(got)
            await client.close_session()
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    dt = time.perf_counter() - t0
    if record:
        n = sum(len(r) for r in replies)
        load.latencies[app] += zip(stamps, latencies,
                                   (len(r) for r in replies))
        load.session_us.append(dt / n * 1e6)
        load.outputs += n
    return replies


async def _client_loop(sock: str, index: int, load: _Load, deadline: float,
                       tracer: Tracer | None) -> None:
    from repro.serve import ServeClient

    apps, sizes = load.client(index)
    client = await ServeClient.connect(path=sock)
    k = 0
    try:
        while time.perf_counter() < deadline:
            app = next(apps)
            try:
                replies = await _session(client, app, sizes, load, True,
                                         tracer,
                                         f"client{index}/session{k}/{app}")
            except Exception as exc:  # counted; start over on a new link
                load.out.op(False, f"client {index} {app} session: "
                                   f"{exc!r}")
                await client.close()
                client = await ServeClient.connect(path=sock)
            else:
                load.check(app, replies)
            k += 1
    finally:
        await client.close()


def _reference(app: str, samples, out: Outcome) -> np.ndarray:
    """Interp outputs of the app's first ``REF_SAMPLES`` samples; also
    notes the plan steps a server session of the app runs."""
    import repro
    from repro.apps import BENCHMARKS, split_app

    _, body = split_app(BENCHMARKS[app]())
    with repro.compile(body, optimize="none", dtype="f64") as plan:
        out.lines.append(f"{app} (none, push) plan steps: "
                         f"{' '.join(step_kinds(plan))}")
    with repro.compile(body, backend="interp", optimize="none",
                       dtype="f64") as ref:
        return ref.push(samples[:REF_SAMPLES[app]])


async def _setup(server: _ServerProcess, out: Outcome, times: list,
                 repeats: int) -> None:
    """Start the server and open each app once, ``repeats`` times, leaving
    the last server running; appends each set-up time to ``times``."""
    from repro.serve import ServeClient

    for _ in range(repeats):
        await server.stop()
        t0 = time.perf_counter()
        await server.start()
        setup = time.perf_counter() - t0
        client = await ServeClient.connect(path=server.sock)
        try:
            for app in SERVE_APPS:
                t0 = time.perf_counter()
                await client.open(app=app.lower(), optimize="none",
                                  dtype="f64")
                setup += time.perf_counter() - t0
                out.op()
                await client.close_session()
        finally:
            await client.close()
        times.append(setup)


async def _first_sessions(sock: str, load: _Load) -> None:
    """Each app's first session, checked against interp; its outputs are
    what every later session of the app must reproduce bitwise."""
    from repro.numeric import resolve_policy
    from repro.serve import ServeClient

    _, sizes = load.client(CLIENTS)
    client = await ServeClient.connect(path=sock)
    try:
        for app in SERVE_APPS:
            replies = await _session(client, app, sizes, load, False, None,
                                     "")
            got = np.concatenate(replies)
            load.expected[app] = got
            ref = _reference(app, load.samples[app], load.out)
            ok = len(ref) > 0 and outputs_match(got[:len(ref)], ref,
                                                resolve_policy("f64"))
            load.out.op(ok, f"{app} first session differs from the "
                            "interp reference")
    finally:
        await client.close()


async def _stats(sock: str) -> dict:
    from repro.serve import ServeClient, parse_stats

    client = await ServeClient.connect(path=sock)
    try:
        return parse_stats(await client.stats())
    finally:
        await client.close()


async def _phase(sock: str, load: _Load, seconds: float,
                 tracers: list | None) -> float:
    """Both clients for ``seconds``; returns the wall time."""
    deadline = time.perf_counter() + seconds
    t0 = time.perf_counter()
    await asyncio.gather(*(
        _client_loop(sock, i, load, deadline,
                     tracers[i] if tracers is not None else None)
        for i in range(CLIENTS)))
    return time.perf_counter() - t0


def _buckets(pushes) -> list:
    """The pushes replied in each whole ``BUCKET_S`` of the run, as lists
    of ``(latency, outputs)``.  Statistics over buckets take their median:
    on a shared machine a slow spell of a few seconds queues pushes
    behind one another and would otherwise set the run's figures alone."""
    start = min(p[0] for p in pushes)
    whole = int((max(p[0] for p in pushes) - start) / BUCKET_S)
    buckets = [[] for _ in range(whole)]
    for stamp, latency, n in pushes:
        k = int((stamp - start) / BUCKET_S)
        if k < whole:
            buckets[k].append((latency, n))
    return buckets


async def _run(seed: int, seconds: float, trace: bool,
               state_dir: str) -> Outcome:
    out = Outcome()
    os.makedirs(state_dir, exist_ok=True)
    sock = os.path.relpath(os.path.join(state_dir,
                                        f"serve-{os.getpid()}.sock"))
    server = _ServerProcess(sock)
    try:
        setup_times: list = []
        await _setup(server, out, setup_times, SETUP_REPEATS // 2)
        load = _Load(seed, out)
        await _first_sessions(sock, load)
        if trace:
            await _traced(sock, load, seconds, out)
        else:
            wall = await _phase(sock, load, seconds, None)
            pushes = [p for app in SERVE_APPS for p in load.latencies[app]]
            lat_ms = [t * 1e3 for _, t, _ in pushes]
            buckets = [b for b in _buckets(pushes) if b]
            rates = [BUCKET_S / sum(n for _, n in b) * 1e6 for b in buckets]
            tails = [quantile([t for t, _ in b], 0.99) * 1e3 for b in buckets]
            await _setup(server, out, setup_times,
                         SETUP_REPEATS - len(setup_times))
            out.put("setup_s", float(np.median(setup_times)), "s")
            out.put("us_per_output", float(np.median(rates)) if rates
                    else wall / load.outputs * 1e6, "us")
            out.put("us_per_output_p90", quantile(load.session_us, 0.9),
                    "us")
            out.put("request_ms_p50", quantile(lat_ms, 0.5), "ms")
            out.put("request_ms_p99", float(np.median(tails)) if tails
                    else quantile(lat_ms, 0.99), "ms")
            out.lines.append(
                f"serve-push: {len(load.session_us)} sessions, "
                f"{len(lat_ms)} pushes, {load.outputs} outputs in "
                f"{wall:.2f} s; over the whole run "
                f"{wall / load.outputs * 1e6:.3f} us/output, p99 "
                f"{quantile(lat_ms, 0.99):.3f} ms")
    finally:
        await server.stop()
    if not trace:  # the servers have exited and been waited for
        out.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    return out


async def _traced(sock: str, load: _Load, seconds: float,
                  out: Outcome) -> None:
    """Client spans around open/push_stream/close and the server's own
    accounting from STATS, in phases alternating with untraced ones."""
    tracers = [Tracer() for _ in range(CLIENTS)]
    pairs = max(1, round(seconds / (2 * PHASE_S)))
    latencies = {True: load.latencies, False: {app: [] for app in SERVE_APPS}}
    wall = {True: 0.0, False: 0.0}
    outputs = {True: 0, False: 0}
    moved: dict = defaultdict(float)  # STATS counters moved while traced
    for _ in range(pairs):
        for traced in (True, False):
            load.latencies = latencies[traced]
            produced = load.outputs
            before = await _stats(sock) if traced else {}
            wall[traced] += await _phase(sock, load, seconds / (2 * pairs),
                                         tracers if traced else None)
            outputs[traced] += load.outputs - produced
            if traced:
                after = await _stats(sock)
                for name, value in after.items():
                    moved[name] += value - before.get(name, 0.0)
    out.put("trace.overhead_ratio",
            (wall[True] / outputs[True]) / (wall[False] / outputs[False]),
            "ratio")

    for tracer in tracers:
        for run in {s[4] for s in tracer.spans}:
            own, span_wall = tracer.check_partition(run)
            if abs(own - span_wall) > 1e-6 * max(span_wall, 1e-9):
                raise RuntimeError(f"{run}: span self times sum to {own} "
                                   f"s, traced wall time is {span_wall} s")
        out.tracers.append(tracer)

    requests = 0.0
    for app in SERVE_APPS:
        graph = f"graph.{app}/plan/none/push"
        n = moved[f"{graph}.requests"]
        requests += n
        exec_ms = moved[f"{graph}.serve_seconds"] / n * 1e3 if n else 0.0
        lat = [t for _, t, _ in latencies[True][app]]
        client_ms = sum(lat) / len(lat) * 1e3 if lat else 0.0
        out.put(f"serve.exec_ms_mean.{app}", exec_ms, "ms")
        out.put(f"serve.wire_ms_mean.{app}", client_ms - exec_ms, "ms")
        out.put(f"serve.compile_s.{app}",
                after.get(f"{graph}.compile_seconds", 0.0), "s")
    inline = moved["serve.requests.inline"]
    out.put("serve.inline_ratio", inline / requests if requests else 0.0,
            "ratio")
    recycled = after.get("serve.sessions.recycled", 0.0)
    compiled = after.get("serve.sessions.compiled", 0.0)
    out.put("serve.recycle_ratio", recycled / max(recycled + compiled, 1),
            "ratio")
    out.put("serve.errors", after.get("serve.errors", 0.0), "count")
    hits = after.get("plan_cache.hits", 0.0)
    lookups = hits + after.get("plan_cache.misses", 0.0)
    out.put("exec.plan_cache.hit_ratio.server",
            hits / lookups if lookups else 0.0, "ratio")
    out.lines.append(
        f"serve-push traced: {int(requests)} executed requests, "
        f"{int(compiled)} compiles, {int(recycled)} recycled sessions")


def run(seed: int, seconds: float, trace: bool, state_dir: str) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace, state_dir))
