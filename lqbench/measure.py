"""Op scheduling and timing, shared by the run process and its children.

Op times are reported at a reference machine speed. On a small shared
virtual machine the load of other tenants changes how fast the same code
runs by up to half, for seconds at a time. The loop therefore runs a fixed
probe every PROBE_EVERY_S seconds, between ops: interpreter work, JSON
text, small matrix products and a solve, and a memory copy, the kinds of
work an op does. Each op's time is scaled by PROBE_REF_S over the median of
the probes taken within PROBE_WINDOW_S of it. The probe makes no call large
enough for OpenBLAS to use its threads: waking them would change the op
that follows. The raw wall times are kept in the detail record.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from spans import LAYERS, traced_cycles
from workloads import MethodKind, Tally, ValidateKind, references

WARMUP_S = 2.0
# About the median probe time on the reference machine (2 vCPUs, 2.1 GHz).
PROBE_REF_S = 0.85e-3
PROBE_UNITS = 5
PROBE_EVERY_S = 0.2
# The speed changes over seconds; several probes around an op give a
# steadier reading than the two next to it.
PROBE_WINDOW_S = 1.0
_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(24, 24)) / 24
_SHIFTED = _SMALL + 3.0 * np.eye(24)
_VECTOR = _rng.normal(size=131072)                 # 1 MiB
_BUFFER = np.empty_like(_VECTOR)        # preallocated: no page faults
_DOC = _rng.normal(size=(30, 4)).tolist()


def _probe_unit() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    x = _SMALL
    for _ in range(10):
        x = _SMALL @ x
    np.linalg.solve(_SHIFTED, _SMALL)
    json.loads(json.dumps(_DOC, indent=2))
    np.multiply(_VECTOR, 0.5, out=_BUFFER)
    return time.perf_counter() - t0


def probe() -> float:
    """Median time of PROBE_UNITS fixed units of work; never touches lqdisc."""
    return statistics.median(_probe_unit() for _ in range(PROBE_UNITS))


def make_kinds(workload, paths, refs, out_dir):
    kinds = [MethodKind(m, workload.scheme, paths, refs, out_dir)
             for m in workload.methods]
    if workload.validate:
        kinds.append(ValidateKind())
    return kinds


def timed_loop(kinds, tally: Tally, seconds: float, shares=None) -> dict:
    """Run ops for `seconds`, always the kind furthest below its share of
    the op time (shares default to 1), and every kind at least once.

    Every kind restarts at its first input, so each run sees the same
    sequence. Returns per kind the raw and reference-speed op times and
    the ops that passed.
    """
    for kind in kinds:
        kind.reset()
    shares = shares or {}
    stats = {k.name: {"times": [], "scaled": [], "passed": 0} for k in kinds}
    spent = dict.fromkeys(stats, 0.0)
    ops, probes = [], [(time.perf_counter(), probe())]
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or any(
            not s["times"] for s in stats.values()):
        kind = min(kinds, key=lambda k: spent[k.name] / shares.get(k.name, 1))
        start = time.perf_counter()
        elapsed, passed = kind(tally)
        ops.append((kind.name, start, start + elapsed))
        if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((time.perf_counter(), probe()))
        stats[kind.name]["times"].append(elapsed)
        stats[kind.name]["passed"] += passed
        spent[kind.name] += elapsed
    probes.append((time.perf_counter(), probe()))
    for name, start, end in ops:
        near = [p for t, p in probes
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        stats[name]["scaled"].append(
            (end - start) * PROBE_REF_S / statistics.median(near))
    return stats


def warm_up(kinds, tally: Tally) -> None:
    """Long enough for lazy set-up and the cold BLAS stall to pass."""
    timed_loop(kinds, tally, WARMUP_S)


def layer_summary(plain, traced, layers) -> dict:
    """Per-layer medians over traced cycles, plus the tracing overhead."""
    out = {}
    for name in LAYERS:
        out[f"{name}_ms"] = 1e3 * statistics.median(
            c["seconds"][name] for c, _ in layers)
    for name in ("matcore.expm", "matcore.solve"):      # exact counts
        out[f"{name}_calls"] = statistics.median_low(
            c["calls"][name] for c, _ in layers)
    out["benchcli.validate_self_ms"] = 1e3 * statistics.median(
        c["validate_self"] for c, _ in layers)
    out["lqassemble.result_bytes"] = statistics.median_low(
        counts.get("lqassemble.result_bytes", 0) for _, counts in layers)
    # adjacent plain and traced cycles share the machine's speed of the moment
    out["trace.overhead_frac"] = statistics.median(
        t / p for p, t in zip(plain, traced)) - 1.0
    return out


def warm_layers(workload, paths, out_dir, seconds: float) -> dict:
    """Warm up, then trace cycles for `seconds`; failures are reported."""
    tally = Tally()
    kinds = make_kinds(workload, paths, [references(p) for p in paths],
                       out_dir)
    warm_up(kinds, tally)
    summary = layer_summary(*traced_cycles(kinds, tally, seconds))
    return {"summary": summary, "attempted": tally.attempted,
            "failed": tally.failed, "messages": tally.messages}
