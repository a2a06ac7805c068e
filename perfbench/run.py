"""Benchmark of the repro stream compiler on the paths a user takes.

Run from the repository root::

    python3 perfbench/run.py --workload pull --seed 1 --seconds 50

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``pull`` — FIR, FilterBank, FMRadio compiled from DSL source with
  ``optimize="auto"``, and FIR, FilterBank, FMRadio, Radar, Vocoder with
  ``optimize="none"``, all advanced with resumed ``run(n)``;
* ``serve-push`` — a ``StreamServer`` process on a unix socket and two
  closed-loop clients repeatedly opening FIR/FilterBank push sessions.

``--seed`` draws every input the programs see (advance sizes, chunk
sizes, pushed samples).  Every output is checked against the ``interp``
backend.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced run, whose spans are written to ``.perfbench_state/``.

Auto-selection reads no calibration file: ``REPRO_CALIBRATION_DIR``
points at an empty directory the run creates and removes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: the benchmark's scratch space inside the checkout (git-ignored)
STATE_DIR = os.path.join(ROOT, ".perfbench_state")
WORKLOADS = ("pull", "serve-push")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_repro():
    """Import the package from this checkout's ``src``, never from
    anywhere else on the path."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: imported repro from {where}, "
                         f"not from {SRC}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process; returns its ``Outcome``."""
    if workload == "serve-push":
        from perfbench import serve
        return serve.run(seed, seconds, trace, state_dir=STATE_DIR)
    from perfbench import pull
    return pull.run(seed, seconds, trace)


def result_json(outcome, trace: bool) -> dict:
    """The contract's result object: every metric of the requested kind,
    0 for the per-layer metrics of programs the workload does not run."""
    from perfbench.common import END_TO_END, per_layer_catalogue

    catalogue = per_layer_catalogue() if trace else END_TO_END
    metrics = {}
    for name, unit in catalogue.items():
        value, _ = outcome.metrics.get(name, (0.0, unit))
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    os.makedirs(STATE_DIR, exist_ok=True)
    calib = tempfile.mkdtemp(prefix="calibration-", dir=STATE_DIR)
    os.environ["REPRO_CALIBRATION_DIR"] = calib
    try:
        _import_repro()
        sys.path.insert(0, ROOT)
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(calib, ignore_errors=True)
    for tracer_id, tracer in enumerate(outcome.tracers):
        tracer.dump(os.path.join(
            STATE_DIR, f"spans-{args.workload}-{args.seed}-{tracer_id}.json"))
    for line in outcome.lines:
        print(line)
    result = result_json(outcome, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {outcome.failed / max(outcome.attempted, 1):.6g}"
          f" ratio ({outcome.failed} of {outcome.attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
