"""Benchmark of the scheduler_ray KG engine with one Ray CPU, with checked outputs.

    python3 perfbench/run.py --workload publish --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --smoke                 # tiny sizes, all workloads

Workloads (see ``perfbench/workloads.py``): ``publish`` (the KG build,
then the per-source n-quads release) and ``refresh``.  Each runs in its own
one-CPU Ray session as a closed loop of one caller; every iteration's
output is checked (against the DuckDB oracle for ``publish``) and a
failing iteration counts as a failed operation.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds of a timed iteration;
* ``pages_per_s``: input pages (for ``refresh``: pages scanned) / ``wall_s``;
* ``peak_rss_mb``: the median, over the set-ups and the first
  ``MIN_ITERS`` timed iterations, of the peak sum of ``VmHWM`` over this
  process and every process it started (GCS, raylet, workers) during
  each.  The peaks are reset before each of them and read before its
  output check, so input generation and checks stay out.  Memory grows a
  little with every job, so a fixed count keeps the figure independent of
  how many iterations fit in the run, and the median passes over the
  occasional job during which Ray starts an extra worker process;
* ``setup_s``: median over the set-ups of the run (each in a fresh Ray
  session) of the time from before ``ray.init`` to the end of the untimed
  warm-up iteration: worker start and module import; for ``publish``
  the index load and broadcast, for ``refresh`` the full
  committed run it resumes from.  Input generation is not set-up.

Before each timed iteration the loop waits, untimed, until the process
tree is idle (see ``Session.quiesce``).

``--trace 1`` alternates untraced iterations with traced ones (spans around
the calls into each layer, see ``perfbench/trace.py``) and reports the
per-layer metrics; the spans are written to
``.perfbench/traces/<workload>_s<seed>.parquet`` for DuckDB.

All state (fixtures, outputs, the Ray session dir) lives under
``.perfbench/`` next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Ray sessions set up per run; setup_s is their median
SETUPS = 2
#: fewest timed iterations per run (per kind in a traced run)
MIN_ITERS = 3


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    smoke: bool = False, setups: int = SETUPS, min_iters: int = MIN_ITERS,
) -> dict:
    from perfbench.session import Session
    from perfbench.trace import LAYER_METRICS, RECONCILE_BOUND, Tracer, layer_metrics, patched
    from perfbench.workloads import WORKLOADS

    work = os.path.join(ROOT, ".perfbench")
    w = WORKLOADS[name](work, seed, smoke=smoke)
    t0 = time.perf_counter()
    w.prepare()
    log(f"{name} seed {seed}: inputs ready in {time.perf_counter() - t0:.1f} s")
    session = Session(ROOT, work)
    attempted = failed = 0
    setup_s: list[float] = []
    peaks: list[float] = []
    walls: list[float] = []
    waits: list[float] = []
    traced: list[int] = []
    tr = Tracer()

    def record(kind: str, reason: str | None) -> None:
        nonlocal attempted, failed
        attempted += 1
        if reason:
            failed += 1
            log(f"{name} seed {seed}: {kind} failed: {reason}")

    def attempt(kind: str, fn) -> bool:
        try:
            fn()
        except Exception as ex:  # noqa: BLE001 — a failing iteration is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            record(kind, f"{type(ex).__name__}: {ex}".splitlines()[0])
            return False
        return True

    def verify() -> str | None:
        try:
            return w.check()
        except Exception as ex:  # noqa: BLE001 — a check that cannot run fails the iteration
            traceback.print_exc(file=sys.stderr)
            return f"check raised {type(ex).__name__}: {ex}".splitlines()[0]

    try:
        for k in range(setups):
            gc.collect()
            session.reset_peak()
            t0 = time.perf_counter()
            session.start()
            w.setup()
            w.before()
            w.iterate()
            setup_s.append(time.perf_counter() - t0)
            peaks.append(session.peak_rss_mb())
            record("warm-up", verify())
            if k < setups - 1:
                t0 = time.perf_counter()
                session.stop()
                log(f"{name}: session stopped in {time.perf_counter() - t0:.1f} s")

        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or (
            (len(walls) < min_iters or (trace and len(traced) < min_iters))
            and i < 4 * min_iters
        ):
            w.before()
            gc.collect()
            waits.append(session.quiesce())
            if trace and i % 2 == 1:
                tr.begin(i)
                with patched(tr), tr.span("iteration"):
                    ok = attempt("traced iteration", w.iterate)
                if ok:
                    for key, v in w.counts().items():
                        tr.count(key, v)
                    rec = tr.reconcile(i)
                    bad = verify()
                    if not bad and rec["unattributed_share"] > RECONCILE_BOUND:
                        bad = (
                            f"spans leave {rec['unattributed_share']:.1%} of the traced "
                            f"wall unattributed (bound {RECONCILE_BOUND:.0%})"
                        )
                    record("traced iteration", bad)
                    traced.append(i)
            else:
                session.reset_peak()
                t0 = time.perf_counter()
                if attempt("iteration", w.iterate):
                    walls.append(time.perf_counter() - t0)
                    if len(walls) <= min_iters:
                        peaks.append(session.peak_rss_mb())
                    record("iteration", verify())
            i += 1
        if not walls or (trace and not traced):
            raise RuntimeError(f"{name}: no iteration succeeded")
    finally:
        session.stop()
        session.cleanup()

    wall = statistics.median(walls)
    if trace:
        path = os.path.join(work, "traces", f"{name}_s{seed}.parquet")
        tr.write_table(path, workload=name, seed=seed)
        log(f"{name}: spans of {len(traced)} traced iterations in {path}")
        vals = layer_metrics(tr, traced, wall, w.fixed)
        metrics = {k: {"value": vals[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "pages_per_s": {"value": w.pages / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    log(
        f"{name} seed {seed}: {len(walls)} timed + {len(traced)} traced iterations, "
        f"walls {[round(x, 3) for x in walls]}, set-ups {[round(x, 3) for x in setup_s]}, "
        f"peaks {[round(x) for x in peaks]} MB, idle waits {[round(x, 2) for x in waits]}"
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="publish, refresh or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, traced")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "scheduler_ray")):
        log(f"no scheduler_ray package in {ROOT}: run from a checkout of the repository")
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.session import ProbeError
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.smoke or args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        log(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        return 2
    results = {}
    try:
        for n in names:
            if args.smoke:
                results[n] = run_workload(n, args.seed, 0, True, smoke=True, setups=1, min_iters=1)
            else:
                # a traced run reports no setup_s, so it sets up once
                results[n] = run_workload(
                    n, args.seed, args.seconds, bool(args.trace),
                    setups=1 if args.trace else SETUPS,
                )
    except ProbeError as ex:
        log(str(ex))
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        for n, r in results.items():
            print(json.dumps({"workload": n, **r}))
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(out), flush=True)
    return 1 if args.smoke and not out["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
