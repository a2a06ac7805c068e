"""The pull workload: programs compiled from DSL source and advanced with
resumed ``run(n)`` calls, each session a :class:`~perfbench.common.Case`.

Its ``auto`` sessions compile with ``optimize="auto"``; there the rate
simulator in ``repro.exec.planner`` does most of the work.  Its ``none``
sessions compile with ``optimize="none"``; there the scalar
``FallbackStep`` kernels do.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

from .common import (KERNEL_GROUPS, MODES, PULL_CASES, Outcome, Sizes,
                     dsl_source, geomean, kernel_group, kernel_groups,
                     outputs_match, peak_rss_mb, plan_steps, quantile,
                     step_kinds, tail_quantile)
from .spans import Tracer

#: Cold compiles per session; set-up time is the sum of their medians.
#: One round runs before timing starts, the rest spread evenly over the
#: timed run (outside every slice), so set-up samples the same spells of
#: a shared machine as the advances do.
SETUP_REPEATS = 7
#: Cold compiles per session in a traced run, all before timing starts.
TRACED_SETUP_REPEATS = 5
#: Advances run before timing starts.  Their outputs, together, must
#: match one ``run(total)`` of a second session (the resumable
#: contract), so the check crosses ``WARMUP_ADVANCES - 1`` resume
#: boundaries; their prefix is also checked against the interp reference.
WARMUP_ADVANCES = 4
#: Length of one session's measuring slice within a round.
SLICE_S = 0.5
#: The tail of time per output is taken over windows of consecutive
#: advances lasting at least this long: one advance often computes
#: outputs that the next few only hand out (the planner simulates whole
#: passes), so single advances are bimodal in cost.  Steady time per
#: output is all measured time over all outputs, not the median window:
#: a shared machine's speed flips between states for seconds at a time,
#: and a median jumps between them where the mean moves with their
#: shares (over the same runs, IQR/median of 0.16 against 0.23).
WINDOW_S = 0.05
#: A workload's layers count as separated when the dominant layer's
#: share of the traced advance time is at least this.
SEPARATION_SHARE = 0.7


def _clear_caches() -> None:
    from repro.dsl import clear_source_cache
    from repro.exec import clear_plan_cache

    clear_source_cache()
    clear_plan_cache()


def _compile(case):
    """Cold compile from source text, the way a user calls it."""
    import repro

    program = case.program
    return repro.compile(dsl_source(program), top=program.top,
                         args=program.args, optimize=case.mode, dtype="f64")


def _compile_phases(case, tracer: Tracer):
    """The same compile, one public call per phase, each in a span."""
    import repro
    from repro.dsl import load_source
    from repro.exec import plan_cache_stats
    from repro.exec.optimize import optimize_stream
    from repro.linear import analyze
    from repro.numeric import resolve_policy
    from repro.selection import select_optimizations

    program, mode = case.program, case.mode
    run = f"{case.label}/setup"
    policy = resolve_policy("f64")
    text = dsl_source(program)
    with tracer.span("dsl.load", run):
        stream = load_source(text, program.top, *program.args,
                             fingerprint=True)
    if mode == "auto":
        # optimize_stream(stream, "auto") is exactly these two calls, so
        # exec.optimize_s is reported as their sum (see _report_layers)
        with tracer.span("linear.analyze", run):
            lmap = analyze(stream)
        with tracer.span("selection.select", run):
            optimized = select_optimizations(
                stream, lmap, cost_model="batched", stateful=True,
                policy=policy).stream
    else:
        with tracer.span("exec.optimize", run):
            optimized = optimize_stream(stream, mode, policy=policy)
    before = plan_cache_stats()
    with tracer.span("exec.plan_build", run):
        session = repro.compile(optimized, optimize="none", dtype="f64")
    after = plan_cache_stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return session, (hits / lookups if lookups else 0.0)


class _Stream:
    """One case's live session, its reference prefix and the advance
    sizes drawn for it."""

    def __init__(self, case, session, reference, rng):
        self.name = case.label
        self.session = session
        self.reference = reference
        self.sizes = Sizes(rng, case.program.advance)
        self.produced = 0
        self.dead = False

    def advance(self, out: Outcome, keep: list | None = None):
        """One resumed ``run(n)``; returns ``(seconds, n)`` or None.
        The outputs are appended to ``keep`` when it is given."""
        n = self.sizes.next()
        t0 = time.perf_counter()
        try:
            got = self.session.run(n)
        except Exception as exc:  # counted, and this stream stops here
            self.dead = True
            out.op(False, f"{self.name} run({n}): {exc!r}")
            return None
        dt = time.perf_counter() - t0
        if keep is not None:
            keep.append(got)
        lo = self.produced
        self.produced += n
        ok = len(got) == n
        if ok and lo < len(self.reference):
            ref = self.reference[lo:lo + n]
            ok = outputs_match(got[:len(ref)], ref, self.session.policy)
        out.op(ok, f"{self.name} outputs {lo}..{lo + n} differ "
                   "from the interp reference")
        return dt, n


def _measure(stream: _Stream, deadline: float, out: Outcome) -> list:
    """Timed resumed advances until ``deadline`` (at least one);
    ``[(seconds, n), ...]``."""
    samples = []
    while not stream.dead and (time.perf_counter() < deadline
                               or not samples):
        s = stream.advance(out)
        if s is not None:
            samples.append(s)
    return samples


def _slices(streams, seconds: float, per_session: int = 1, between=None):
    """Yield ``(stream, slice index, deadline)``: sessions take turns,
    ``per_session`` slices each per round, so a slow spell of a shared
    machine hits all of them alike.  Deadlines are fixed from the start,
    so an advance that overruns one slice shortens the next.
    ``between(r, rounds)``, if given, runs before round ``r``; its time
    is not measured (the deadlines move by it)."""
    rounds = max(1, round(seconds / (SLICE_S * len(streams))))
    count = rounds * len(streams) * per_session
    start = time.perf_counter()
    k = 0
    for r in range(rounds):
        if between is not None:
            t0 = time.perf_counter()
            between(r, rounds)
            start += time.perf_counter() - t0
        for s in streams:
            for j in range(per_session):
                k += 1
                yield s, j, start + seconds * k / count


def _warm(cases) -> None:
    """Compile each case once untimed: set-up is measured in a warm
    interpreter (lazy imports done), with the caches cleared."""
    for c in cases:
        _clear_caches()
        _compile(c).close()


class _Setup:
    """Timed cold compiles, a round of every case at a time; set-up time
    is the sum over cases of each one's median."""

    def __init__(self, cases, out: Outcome):
        self.cases = cases
        self.out = out
        self.times = {c.label: [] for c in cases}
        _warm(cases)

    def round(self, keep: bool = False) -> dict:
        """One cold compile of each case; returns the sessions when
        ``keep``, else closes them."""
        sessions = {}
        for c in self.cases:
            _clear_caches()
            gc.collect()  # garbage of earlier work is not set-up's cost
            t0 = time.perf_counter()
            session = _compile(c)
            self.times[c.label].append(time.perf_counter() - t0)
            self.out.op()
            if keep:
                sessions[c.label] = session
            else:
                session.close()
        return sessions

    def between(self, r: int, rounds: int) -> None:
        """Before measuring round ``r``: keep the repeats evenly spread."""
        while self.repeats < 1 + (SETUP_REPEATS - 1) * r // rounds:
            self.round()

    def finish(self) -> float:
        while self.repeats < SETUP_REPEATS:
            self.round()
        return sum(float(np.median(t)) for t in self.times.values())

    @property
    def repeats(self) -> int:
        return len(self.times[self.cases[0].label])


def _reference(program) -> np.ndarray:
    import repro

    ref = repro.compile(dsl_source(program), top=program.top,
                        args=program.args, backend="interp",
                        optimize="none", dtype="f64")
    try:
        return ref.run(program.ref_outputs)
    finally:
        ref.close()


def _streams(cases, sessions, seed: int, out: Outcome) -> list:
    streams, references = [], {}
    for i, c in enumerate(cases):
        name = c.program.name
        if name not in references:  # one interp reference per program
            references[name] = _reference(c.program)
        s = _Stream(c, sessions[c.label], references[name],
                    random.Random(seed * 1000 + i))
        parts = []
        for _ in range(WARMUP_ADVANCES):
            s.advance(out, keep=parts)
        _check_resumed(c, parts, out)
        streams.append(s)
    return streams


def _check_resumed(case, parts: list, out: Outcome) -> None:
    """Resumed advances must match one ``run`` of their total on a fresh
    session within the policy's tolerances: one operation per advance.
    ``StreamSession.run`` promises identical values; advances that match
    only within tolerance are reported in a line of their own."""
    total = sum(len(x) for x in parts)
    twin = _compile(case)
    try:
        whole = twin.run(total)
    except Exception as exc:
        out.op(False, f"{case.label} run({total}): {exc!r}")
        return
    finally:
        twin.close()
    at, inexact, worst = 0, 0, 0.0
    for k, part in enumerate(parts):
        want = whole[at:at + len(part)]
        out.op(outputs_match(part, want, twin.policy),
               f"{case.label} resumed advance {k} (outputs {at}.."
               f"{at + len(part)}) differs from one run({total})")
        if len(part) == len(want) and not np.array_equal(part, want):
            inexact += 1
            worst = max(worst, float(np.max(np.abs(part - want))))
        at += len(part)
    if inexact:
        out.lines.append(
            f"{case.label}: {inexact} of {len(parts)} resumed "
            f"advances match one run({total}) only within tolerance, not "
            f"bitwise (largest difference {worst:.3g})")


def _per_output_stats(samples) -> dict:
    per_out = []  # us/output of each window
    window_s, window_n = 0.0, 0
    for dt, n in samples:
        window_s += dt
        window_n += n
        if window_s >= WINDOW_S:
            per_out.append(window_s / window_n * 1e6)
            window_s, window_n = 0.0, 0
    if not per_out:
        per_out.append(window_s / window_n * 1e6)
    calls = [dt * 1e3 for dt, _ in samples]
    outputs = sum(n for _, n in samples)
    return {"us": sum(dt for dt, _ in samples) / outputs * 1e6,
            "us_p90": tail_quantile(per_out, 0.9),
            "ms_p50": quantile(calls, 0.5),
            "ms_p99": tail_quantile(calls, 0.99),
            "windows": len(per_out), "advances": len(samples),
            "outputs": outputs}


def run(seed: int, seconds: float, trace: bool,
        cases=PULL_CASES) -> Outcome:
    cases = list(cases)
    out = Outcome()
    if trace:
        return _traced(cases, seed, seconds, out)
    setup = _Setup(cases, out)
    sessions = setup.round(keep=True)
    streams = _streams(cases, sessions, seed, out)
    samples = {s.name: [] for s in streams}
    for s, _, deadline in _slices(streams, seconds, between=setup.between):
        samples[s.name] += _measure(s, deadline, out)
    setup_s = setup.finish()
    stats = {name: _per_output_stats(v) for name, v in samples.items()}
    for s in streams:
        st = stats[s.name]
        out.lines.append(
            f"{s.name}: {st['us']:.3f} us/out, {st['us_p90']:.3f} p90 of "
            f"{st['windows']} windows, {st['advances']} advances, "
            f"{st['outputs']} outputs; plan steps: "
            f"{' '.join(step_kinds(s.session))}")
        s.session.close()
    col = list(stats.values())
    out.put("setup_s", setup_s, "s")
    out.put("us_per_output", geomean([c["us"] for c in col]), "us")
    out.put("us_per_output_p90", geomean([c["us_p90"] for c in col]), "us")
    out.put("request_ms_p50", geomean([c["ms_p50"] for c in col]), "ms")
    out.put("request_ms_p99", geomean([c["ms_p99"] for c in col]), "ms")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    return out


def _traced(cases, seed: int, seconds: float, out: Outcome) -> Outcome:
    """Per-layer run: traced set-up phases, then per session a traced
    and an untraced time slice on the same session."""
    _warm(cases)
    tracer = Tracer()
    sessions, hit_ratio, setup_spans = {}, {}, {}
    for c in cases:
        name = c.label
        per_phase: dict = {}
        for _ in range(TRACED_SETUP_REPEATS):
            _clear_caches()
            if name in sessions:
                sessions[name].close()
            gc.collect()
            first = len(tracer.spans)
            sessions[name], hit_ratio[name] = _compile_phases(c, tracer)
            out.op()
            for span in tracer.spans[first:]:
                per_phase.setdefault(span[0], []).append(span[2] - span[1])
        setup_spans[name] = {k: float(np.median(v))
                             for k, v in per_phase.items()}
    streams = _streams(cases, sessions, seed, out)
    traced = {s.name: [] for s in streams}
    plain = {s.name: [] for s in streams}
    for s, j, deadline in _slices(streams, seconds, per_session=2):
        name = s.name
        if j == 1:  # the untraced twin of the slice before
            plain[name] += _measure(s, deadline, out)
            continue
        for step in plan_steps(s.session):
            tracer.wrap(step, "execute", f"step.{step.kind}", name)
        tracer.wrap(s.session, "run", "session.run", name)
        with tracer.span("perfbench.measure", name):
            traced[name] += _measure(s, deadline, out)
        tracer.unwrap_all()
    layer = {}
    for s in streams:
        name = s.name
        own, wall = tracer.check_partition(name)
        if abs(own - wall) > 1e-6 * max(wall, 1e-9):
            raise RuntimeError(f"{name}: span self times sum to {own} s, "
                               f"traced wall time is {wall} s")
        layer[name] = _layer_metrics(tracer.totals(name), s.session)
    _report_layers(cases, setup_spans, hit_ratio, layer, out)
    out.put("trace.overhead_ratio",
            geomean([_per_output_stats(v)["us"] for v in traced.values()])
            / geomean([_per_output_stats(v)["us"] for v in plain.values()]),
            "ratio")
    out.tracers.append(tracer)
    for s in streams:
        out.lines.append(f"{s.name} plan steps: "
                         f"{' '.join(step_kinds(s.session))}")
        s.session.close()
    return out


def _layer_metrics(totals: dict, session) -> dict:
    runs = totals.get("session.run", {"self": 0.0, "wall": 0.0, "work": 0})
    outputs = max(runs["work"], 1)
    m = {"schedule_s": runs["self"], "advance_s": runs["wall"],
         "outputs": outputs}
    for g in KERNEL_GROUPS:
        m[g] = {"wall": 0.0, "calls": 0, "work": 0}
    for name, t in totals.items():
        if name.startswith("step."):
            g = m[kernel_group(name[len("step."):])]
            g["wall"] += t["wall"]
            g["calls"] += t["calls"]
            g["work"] += t["work"]
    profile = session.profile
    m["flops_per_output"] = (profile.flops / session.outputs_produced
                             if profile is not None else 0.0)
    m["fallback_steps"] = len(session.report().fallbacks)
    return m


def _report_layers(cases, setup_spans, hit_ratio, layer,
                   out: Outcome) -> None:
    calls = {m: {g: [0, 0, 0] for g in KERNEL_GROUPS} for m in MODES}
    for c in cases:
        n = c.label
        sp, m = setup_spans[n], layer[n]
        out.put(f"dsl.load_s.{n}", sp.get("dsl.load", 0.0), "s")
        out.put(f"exec.plan_build_s.{n}", sp.get("exec.plan_build", 0.0),
                "s")
        if c.mode == "auto":
            analyze = sp.get("linear.analyze", 0.0)
            select = sp.get("selection.select", 0.0)
            out.put(f"linear.analyze_s.{n}", analyze, "s")
            out.put(f"selection.select_s.{n}", select, "s")
            out.put(f"exec.optimize_s.{n}", analyze + select, "s")
        out.put(f"exec.plan_cache.hit_ratio.{n}", hit_ratio[n], "ratio")
        outputs = m["outputs"]
        out.put(f"exec.schedule_us_per_output.{n}",
                m["schedule_s"] / outputs * 1e6, "us")
        out.put(f"exec.schedule_share.{n}",
                m["schedule_s"] / m["advance_s"], "ratio")
        for g in kernel_groups(c.mode):
            k = m[g]
            out.put(f"exec.kernels.{g}_us_per_output.{n}",
                    k["wall"] / outputs * 1e6, "us")
            total = calls[c.mode][g]
            total[0] += k["calls"]
            total[1] += k["work"]
            total[2] += outputs
        out.put(f"selection.flops_per_output.{n}", m["flops_per_output"],
                "flops")
        out.put(f"selection.fallback_steps.{n}", m["fallback_steps"],
                "count")
    for mode in MODES:
        for g in kernel_groups(mode):
            n_calls, work, outputs = calls[mode][g]
            out.put(f"exec.kernels.calls.{g}.{mode}",
                    n_calls / outputs * 1000 if outputs else 0.0,
                    "calls/kout")
            out.put(f"exec.kernels.firings_per_call.{g}.{mode}",
                    work / n_calls if n_calls else 0.0, "firings")
    # equal time slices, so a mode's share is the mean over its sessions
    for mode in MODES:
        group = [c for c in cases if c.mode == mode]
        if not group:
            continue
        label = "schedule" if mode == "auto" else "fallback kernel"
        shares = [(layer[c.label]["schedule_s"] if mode == "auto"
                   else layer[c.label]["fallback"]["wall"])
                  / layer[c.label]["advance_s"] for c in group]
        share = sum(shares) / len(shares)
        verdict = "met" if share >= SEPARATION_SHARE else "NOT MET"
        out.lines.append(
            f"layer split ({mode}): {label} share {share:.3f} of traced "
            f"advance time (per session: "
            + ", ".join(f"{c.program.name} {s:.3f}"
                        for c, s in zip(group, shares))
            + f"); expected >= {SEPARATION_SHARE}: {verdict}")
