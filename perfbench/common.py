"""Programs, statistics and bookkeeping shared by the workloads."""

from __future__ import annotations

import math
import os
import random
import resource
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Program:
    """One paper application, compiled from its DSL source."""

    name: str
    files: tuple  #: ``apps/dsl/<file>.str`` sources, concatenated
    top: str
    args: tuple
    #: typical resumed ``run(n)`` size; draws span [advance/2, 2*advance].
    #: ``run(4096)`` as in the package docstring for the cheap programs,
    #: and for the costly ones a size whose advance takes about as long
    #: under ``none`` (10-30 ms), so per-call overhead is amortized the
    #: way a streaming caller would amortize it.
    advance: int
    #: output prefix compared with the interp reference, kept small
    #: because the tree-walking interpreter is slow on these programs
    ref_outputs: int


#: The applications at their paper sizes (the ``repro.apps`` defaults).
PROGRAMS = {p.name: p for p in (
    Program("FIR", ("common", "fir"), "FIRProgram", (256,), 4096, 256),
    Program("FilterBank", ("common", "filterbank"), "FilterBank", (3, 100),
            4096, 64),
    Program("FMRadio", ("common", "fmradio"), "LinkedFMTest", (10, 64),
            1024, 64),
    Program("Radar", ("radar",), "Radar", (12, 4, 8, 4, 8, 1), 1024, 128),
    Program("Vocoder", ("common", "echo", "vocoder"), "ChannelVocoder",
            (100, 50, 4, 64), 8, 12),
)}

@dataclass(frozen=True)
class Case:
    """One program compiled in one ``optimize`` mode: a live session of
    the pull workload."""

    program: Program
    mode: str

    @property
    def label(self) -> str:
        """``<mode>.<program>``, the suffix of its per-layer metrics."""
        return f"{self.mode}.{self.program.name}"


#: The pull workload's sessions.  Under ``auto`` the rate simulator in
#: ``repro.exec.planner`` does most of the work; under ``none`` the scalar
#: ``FallbackStep`` kernels do.  The three programs compiled both ways let
#: a reader compare ``auto`` against ``none`` directly.
PULL_CASES = tuple(
    Case(PROGRAMS[name], mode) for mode, names in (
        ("auto", ("FIR", "FilterBank", "FMRadio")),
        ("none", ("FIR", "FilterBank", "FMRadio", "Radar", "Vocoder")))
    for name in names)
MODES = ("auto", "none")

#: Registry apps opened by the serve workload, in seeded order.
SERVE_APPS = ("FIR", "FilterBank")

#: Step kinds grouped the way the per-layer metrics report them.
KERNEL_GROUPS = ("fallback", "matmul", "freq", "other")
_GROUP_OF_KIND = {"fallback": "fallback", "matmul": "matmul",
                  "stateful": "matmul", "freq-naive": "freq",
                  "freq-opt": "freq"}


def kernel_group(kind: str) -> str:
    return _GROUP_OF_KIND.get(kind, "other")


def kernel_groups(mode: str) -> tuple:
    """The groups a mode's plans can hold: no frequency kernels without
    the ``auto`` rewrite."""
    return tuple(g for g in KERNEL_GROUPS if mode == "auto" or g != "freq")


def dsl_source(program: Program) -> str:
    """The program's DSL text, read from the installed ``repro.apps``."""
    import repro.apps

    base = os.path.join(os.path.dirname(repro.apps.__file__), "dsl")
    parts = []
    for name in program.files:
        with open(os.path.join(base, name + ".str"), encoding="utf-8") as f:
            parts.append(f.read())
    return "\n".join(parts)


class Sizes:
    """Seeded sizes, log-uniform over ``[typical/2, 2*typical]``.

    Drawn by stratified sampling: each group of ``STRATA`` draws takes one
    size from each equal-probability stratum, in shuffled order.  Every
    seed then sees nearly the same size distribution, so runs differ by
    the order and exact sizes, not by a lucky share of large requests.
    """

    STRATA = 8

    def __init__(self, rng: random.Random, typical: int):
        self.rng = rng
        self.typical = typical
        self._pending: list[float] = []

    def next(self) -> int:
        if not self._pending:
            self._pending = [(i + self.rng.random()) / self.STRATA
                             for i in range(self.STRATA)]
            self.rng.shuffle(self._pending)
        u = self._pending.pop()
        return max(1, round(self.typical * 2.0 ** (2.0 * u - 1.0)))


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 100 * q))


#: a tail quantile is taken no higher than leaves this many samples
#: beyond it
TAIL_SAMPLES = 10


def tail_quantile(values, q: float) -> float:
    """The ``q`` quantile, or the highest one with ``TAIL_SAMPLES`` values
    beyond it when there are too few for ``q`` (never below the median):
    the p99 of 60 samples would read their maximum."""
    n = len(values)
    return quantile(values, max(0.5, min(q, 1.0 - TAIL_SAMPLES / n)))


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Resident high-water mark of this process, or with
    ``RUSAGE_CHILDREN`` of the largest waited-for child (``ru_maxrss`` is
    in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def plan_steps(session) -> list:
    """The plan steps of a live session (empty when the program fell back
    to scalar execution).  Sessions expose no public accessor for their
    executor, so this is the one place the benchmark reaches inside."""
    return list(getattr(session._executor, "steps", ()))


def step_kinds(session) -> list[str]:
    return [s.step_kind for s in session.report().steps]


def outputs_match(out, ref, policy) -> bool:
    """Within the session policy's differential tolerances."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    return out.shape == ref.shape and bool(
        np.allclose(out, ref, rtol=policy.rtol, atol=policy.atol))


@dataclass
class Outcome:
    """Operations attempted and failed, end-to-end and per-layer metrics,
    and the human-readable lines printed before the JSON result."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    lines: list = field(default_factory=list)
    tracers: list = field(default_factory=list)  #: spans to write out

    def op(self, ok: bool = True, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what:
                self.lines.append(f"FAILED: {what}")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {"setup_s": "s", "us_per_output": "us",
              "us_per_output_p90": "us", "request_ms_p50": "ms",
              "request_ms_p99": "ms", "peak_rss_mb": "MB"}


def per_layer_catalogue() -> dict:
    """Every per-layer metric (``--trace 1``), name -> unit.  A workload
    reports 0 for the metrics of layers it does not run.

    Per-session metrics end in ``.<mode>.<program>`` (a pull session);
    phases and kernels a mode never runs (linear analysis, selection and
    frequency kernels under ``none``) are left out, and kernel call
    counts are summed per mode, to stay within 128 metrics.  Which
    end-to-end metric each layer should move, and where:

    * ``dsl.load_s``, ``exec.plan_build_s`` -> ``setup_s`` on pull (the
      server's own compile shows as ``serve.compile_s``);
    * ``linear.analyze_s``, ``selection.select_s``, ``exec.optimize_s``
      -> ``setup_s`` on pull, its ``auto`` sessions.  Under ``auto``,
      ``optimize_stream`` is exactly linear analysis plus the selection
      DP, so ``exec.optimize_s`` is their sum, not a layer of its own;
    * ``exec.plan_cache.hit_ratio`` -> ``setup_s`` and ``request_ms_p99``
      on serve-push (0 on pull, which clears the caches before each
      compile);
    * ``exec.schedule_us_per_output``, ``exec.schedule_share`` (advance
      time outside every step) -> ``us_per_output`` on pull, its
      ``auto`` sessions; small on its ``none`` sessions;
    * ``exec.kernels.<group>_us_per_output`` -> ``us_per_output`` on
      pull, its ``none`` sessions, where ``fallback`` dominates;
    * ``exec.kernels.calls.<group>.<mode>`` (calls per 1000 outputs) and
      ``exec.kernels.firings_per_call.<group>.<mode>`` (the batching),
      ``selection.flops_per_output`` and ``selection.fallback_steps``
      explain ``us_per_output``;
    * ``serve.exec_ms_mean`` (server execution per request, from STATS)
      and ``serve.wire_ms_mean`` (the client's mean push latency minus
      it) -> ``request_ms_p50``/``request_ms_p99`` on serve-push, with
      ``serve.inline_ratio``, ``serve.recycle_ratio``, ``serve.compile_s``
      and ``serve.errors``;
    * ``trace.overhead_ratio`` is traced over untraced ``us_per_output``.
    """
    names = {}
    for c in PULL_CASES:
        n = c.label
        phases = ["dsl.load_s", "exec.plan_build_s"]
        if c.mode == "auto":
            phases += ["linear.analyze_s", "selection.select_s",
                       "exec.optimize_s"]
        for phase in phases:
            names[f"{phase}.{n}"] = "s"
        names[f"exec.plan_cache.hit_ratio.{n}"] = "ratio"
        names[f"exec.schedule_us_per_output.{n}"] = "us"
        names[f"exec.schedule_share.{n}"] = "ratio"
        for g in kernel_groups(c.mode):
            names[f"exec.kernels.{g}_us_per_output.{n}"] = "us"
        names[f"selection.flops_per_output.{n}"] = "flops"
        names[f"selection.fallback_steps.{n}"] = "count"
    for mode in MODES:
        for g in kernel_groups(mode):
            names[f"exec.kernels.calls.{g}.{mode}"] = "calls/kout"
            names[f"exec.kernels.firings_per_call.{g}.{mode}"] = "firings"
    for n in SERVE_APPS:
        names[f"serve.exec_ms_mean.{n}"] = "ms"
        names[f"serve.wire_ms_mean.{n}"] = "ms"
        names[f"serve.compile_s.{n}"] = "s"
    names["exec.plan_cache.hit_ratio.server"] = "ratio"
    names["serve.inline_ratio"] = "ratio"
    names["serve.recycle_ratio"] = "ratio"
    names["serve.errors"] = "count"
    names["trace.overhead_ratio"] = "ratio"
    return names
