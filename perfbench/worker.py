"""One phase of one benchmark run, in a fresh process.

Phases:
  timed   closed loop over a fixed pass of operations, one at a time,
          repeated until --seconds are up; the package's caches are
          cleared before every pass, so each pass does the same work.  The
          cli workload starts one ``python -m scrollcoh.cli`` per operation.
  replay  the first ``trace_ops`` operations once, untraced (cli in process).
  traced  the same operations with every layer wrapped by the tracer.
  memory  the same operations with tracemalloc and a p1 allocation probe.

The timed phase scales every operation's time to the nominal host speed
(see ``calib.py``) and reports medians over the passes.  After the loop the
worker reads the lru_cache counters, checks the outputs and prints one JSON
object.  Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
from time import perf_counter

import scrollcoh
from scrollcoh import p1, relative, scroll

import calib
from tracer import P1AllocProbe, Tracer
from workloads import WORKLOADS, digest

# The five unbounded caches of the package, read from the unwrapped originals.
CACHES = {"complete_sums": p1._complete_sums, "elementary_sums": p1._elementary_sums,
          "hook_sums": p1._hook_sums, "line_cohomology": scroll.line_cohomology,
          "omega_cohomology": relative.omega_cohomology}

# Tail percentile per workload: the highest of the ladder that keeps at least
# ten samples beyond it in a 50 s run even on a host running at 0.6x its
# usual speed.  It is fixed so that a faster program is compared at the
# same percentile.
TAIL_PCT = {"pushforward": 99.9, "chase": 99.9, "ulrich": 99.9, "cli": 95.0}
_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail(samples, pct):
    """(percentile used, value) by nearest rank, lowered until ten samples lie beyond."""
    ordered = sorted(samples)
    for p in (q for q in _LADDER if q <= pct):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10 or p == _LADDER[-1]:
            return p, ordered[max(rank, 1) - 1]


def _reuse_share(ops):
    seen, reused = set(), 0
    for op in ops:
        key = (op["scroll"], op["p"], op["a"])
        reused += key in seen
        seen.add(key)
    return reused / len(ops)


def _sample(count, size):
    if count <= size:
        return set(range(count))
    return {i * count // size for i in range(size)}


def _call(execute, op):
    """(result, problem) of one operation; an unexpected exception is a failure."""
    try:
        return execute(op), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def timed(args, wl, ops):
    """Repeat the pass until the time is up.  Returns the first pass's results,
    the problems found while running, the failed passes of each operation
    and the metrics."""
    raws = [None] * len(ops)
    errors: dict = {}
    bad = [0] * len(ops)  # passes in which each operation failed
    raw_lats, lats, pass_rates = [], [], []
    passes, wall = 0, 0.0
    if wl.runs_subprocesses:
        # The host's vCPUs change speed independently; on one vCPU the kernel
        # measures the speed the CLI child will run at.  Children inherit this.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = perf_counter() + args.seconds
    while True:
        for fn in CACHES.values():
            fn.cache_clear()
        start = perf_counter()
        scaled = 0.0
        before = calib.ref_seconds()
        for lo in range(0, len(ops), wl.group):
            group = []
            for i in range(lo, min(lo + wl.group, len(ops))):
                t0 = perf_counter()
                raw, problem = _call(wl.execute, ops[i])
                group.append(perf_counter() - t0)
                if passes == 0:
                    raws[i] = raw
                elif problem is None and raw != raws[i]:
                    problem = f"pass {passes + 1} gave another result than pass 1"
                if problem:
                    bad[i] += 1
                    errors.setdefault(i, problem)
            # the host's speed over the group: the mean of the kernel times around it
            after = calib.ref_seconds()
            factor = 2 * calib.REF_S / (before + after)
            before = after
            raw_lats += group
            lats += [dt * factor for dt in group]
            scaled += sum(group) * factor
        took = perf_counter() - start
        passes += 1
        wall += took
        pass_rates.append(len(ops) / scaled)
        if perf_counter() + took > deadline:
            break
    out = {"passes": passes, "attempted": passes * len(ops), "wall_s": wall,
           "ops_per_s": statistics.median(pass_rates),
           "raw_ops_per_s": passes * len(ops) / wall,
           "latency_p50_s": statistics.median(lats),
           "raw_latency_p50_s": statistics.median(raw_lats)}
    out["tail_pct"], out["latency_tail_s"] = tail(lats, TAIL_PCT[args.workload])
    return raws, errors, bad, out


def replay(args, wl, ops):
    """One pass over the operations, without scaling.  Returns as ``timed``."""
    tracer = probe = None
    if args.phase == "traced":
        tracer = Tracer()
        tracer.install()
    elif args.phase == "memory":
        probe = P1AllocProbe()
        probe.install()
    raws, errors, lats = [], {}, []
    start = perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        raw, problem = _call(wl.execute_in_process, op)
        lats.append(perf_counter() - t0)
        raws.append(raw)
        if problem:
            errors[i] = problem
    wall = perf_counter() - start
    out = {"passes": 1, "attempted": len(ops), "wall_s": wall,
           "latency_p50_s": statistics.median(lats)}
    if tracer is not None:
        out["calls"] = dict(tracer.calls)
        out["self_s"] = dict(tracer.self_s)
        out["counts"] = dict(tracer.counts)
        out["spans"] = len(tracer.spans)
        tracer.write_spans(args.spans)
    if probe is not None:
        out["p1_peak_alloc_mb"] = probe.peak / 2 ** 20
    return raws, errors, [1 if i in errors else 0 for i in range(len(ops))], out


def run(args):
    wl = WORKLOADS[args.workload]
    gen = wl(random.Random(f"{args.workload}:{args.seed}"), args.workdir)
    blocks = gen.blocks()
    is_timed = args.phase == "timed"
    ops: list = []
    if is_timed:
        for _ in range(wl.pass_blocks):
            ops += next(blocks)
        raws, errors, bad, out = timed(args, wl, ops)
    else:
        while len(ops) < wl.trace_ops:
            ops += next(blocks)
        ops = ops[:wl.trace_ops]
        raws, errors, bad, out = replay(args, wl, ops)

    who = resource.RUSAGE_CHILDREN if is_timed and wl.runs_subprocesses else resource.RUSAGE_SELF
    out.update({"phase": args.phase,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                "caches": {name: list(fn.cache_info()[:2]) for name, fn in CACHES.items()},
                "reuse_share": _reuse_share(ops) if args.workload == "pushforward" else 0.0})
    prefix = range(wl.digest_prefix)
    failed_prefix = any(i in errors for i in prefix)
    out["digest"] = "error" if failed_prefix else digest(wl.result_repr(raws[i]) for i in prefix)

    # A wrong output is wrong in every pass that repeated it.
    ran = set(errors)
    checked = _sample(len(ops), wl.check_sample) | set(prefix)
    for i in sorted(checked - ran):
        problem = wl.check(ops[i], raws[i])
        if problem:
            errors[i] = problem
    if is_timed:
        out["known_defects"] = gen.after_timed(ops, raws, errors)
    for i in set(errors) - ran:
        bad[i] = out["passes"]
    out["checked"] = len(checked)
    out["failed"] = sum(bad)
    out["errors"] = [f"op {i} {ops[i]}: {msg}" for i, msg in sorted(errors.items())[:5]]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("timed", "replay", "traced", "memory"),
                        required=True)
    parser.add_argument("--workdir", required=True, help="directory for input files")
    parser.add_argument("--spans", help="where the traced phase writes its spans")
    args = parser.parse_args(argv)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(scrollcoh.__file__).startswith(src + os.sep):
        sys.exit(f"scrollcoh was imported from {scrollcoh.__file__}, not from {src}")
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
