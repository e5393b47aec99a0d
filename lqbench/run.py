"""Benchmark of lqdisc: whole runs from model file to result files, and
each layer on its own.

    python3 lqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller in one process: no threads, and fresh child
processes started one at a time. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a separate
traced run. The last line of standard output is the result as JSON; the
line before it is the detail record (environment, per-child times,
failures), also written to ``.lqbench/`` in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = (ROOT / "src" / "lqdisc" / "__init__.py",
            ROOT / "models" / "mimo_delayed.json")
_missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
if _missing:
    sys.exit(f"lqbench: {', '.join(_missing)} not found; run from a "
             "checkout of the repository")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from measure import (PROBE_REF_S, layer_summary, make_kinds,  # noqa: E402
                     timed_loop, warm_up)
from spans import composition_check, traced_cycles  # noqa: E402
from workloads import (WORKLOADS, Tally, check_written,  # noqa: E402
                       references, sizes, write_models)

HERE = Path(__file__).resolve().parent
COLD_CHILDREN = 7
CHILD_TIMEOUT_S = 120
BLAS1_SECONDS = 2.0
# A child whose first result takes this many times the run's median is
# counted as a cold stall.
STALL_FACTOR = 3.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
METHOD_NAMES = ("fixed", "doubling", "expm")

END_TO_END = {
    "setup_s": "s", "first_result_ms": "ms", "fixed_ms": "ms",
    "doubling_ms": "ms", "expm_ms": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "model.load_ms": "ms", "model.realize_ms": "ms",
    "exactdefs.build_deq_ms": "ms", "fixedstep.coeff_ms": "ms",
    "fixedstep.integrate_ms": "ms", "stepdouble.double_ms": "ms",
    "vanloan.discretize_ms": "ms", "lqassemble.augment_ms": "ms",
    "lqassemble.stage_ms": "ms", "lqassemble.export_json_ms": "ms",
    "lqassemble.export_csv_ms": "ms", "lqassemble.result_bytes": "bytes",
    "exactdefs.oracle_ms": "ms", "exactdefs.b_alternative_ms": "ms",
    "benchcli.validate_self_ms": "ms",
    "matcore.expm_calls": "count", "matcore.expm_ms": "ms",
    "matcore.solve_calls": "count", "matcore.solve_ms": "ms",
    "size.n_h": "count", "size.n_in": "count",
    "size.input_cols_nonzero": "count",
    **{f"tail.{m}_{k}": u for m in METHOD_NAMES
       for k, u in (("ms", "ms"), ("pct", "%"), ("samples", "count"))},
    "cold.first_result_max_ms": "ms", "cold.stalled_children": "count",
    "blas1.first_result_ms": "ms", "blas1.fixedstep.coeff_ms": "ms",
    "blas1.fixedstep.integrate_ms": "ms", "blas1.stepdouble.double_ms": "ms",
    "blas1.vanloan.discretize_ms": "ms",
    "trace.overhead_frac": "ratio",
}
BLAS1_LAYERS = ("fixedstep.coeff_ms", "fixedstep.integrate_ms",
                "stepdouble.double_ms", "vanloan.discretize_ms")


# ---------------------------------------------------------------------------
# environment

def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def single_thread_env() -> dict:
    env = dict(os.environ)
    for var in set(THREAD_VARS) | {k for k in env if k.endswith("_NUM_THREADS")}:
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# fresh children

def run_child(workload, paths, out_dir: Path, mode: str, env=None) -> dict:
    job = out_dir / "job.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    job.write_text(json.dumps({
        "workload": workload.name, "models": [str(p) for p in paths],
        "out": str(out_dir), "mode": mode, "seconds": BLAS1_SECONDS}))
    proc = subprocess.run([sys.executable, str(HERE / "cold.py"), str(job)],
                          capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_start(workload, paths, refs, run_dir: Path, n: int,
               tally: Tally) -> list[dict]:
    """Sequential fresh children; each first result is checked."""
    ref = refs[0][workload.methods[0]]
    out = []
    for i in range(n):
        child_dir = run_dir / f"cold{i}"
        try:
            res = run_child(workload, paths, child_dir, "cold")
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            tally.record(1, [str(exc)], f"cold child {i}")
            continue
        tally.record(1, check_written(child_dir, ref), f"cold child {i}")
        scale = PROBE_REF_S / res["probe_s"]
        res["setup_scaled_s"] = res["setup_s"] * scale
        res["first_result_scaled_s"] = res["first_result_s"] * scale
        out.append(res)
    return out


# ---------------------------------------------------------------------------
# metrics

def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile of
    99.9/99/90/50 that has at least ten samples beyond it; the median when
    there are fewer than twenty samples."""
    n = len(times)
    pct = next((p for p in (99.9, 99.0, 90.0) if n * (100 - p) / 100 >= 10),
               50.0)
    k = int(np.ceil(pct / 100 * n)) - 1          # nearest rank
    return sorted(times)[k], pct, n


def end_to_end(stats: dict, cold: list) -> dict:
    primary = [k for k in stats if k == "validate"] or list(stats)
    busy = sum(sum(stats[k]["scaled"]) for k in primary)
    return {
        "setup_s": statistics.median(c["setup_scaled_s"] for c in cold),
        "first_result_ms": 1e3 * statistics.median(
            c["first_result_scaled_s"] for c in cold),
        **{f"{m}_ms": 1e3 * statistics.median(stats[m]["scaled"])
           for m in METHOD_NAMES},
        "ops_per_s": sum(stats[k]["passed"] for k in primary) / busy,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, paths, refs, kinds, tally, seconds, cold,
              run_dir) -> dict:
    out = {}
    stats = timed_loop(kinds, tally, seconds / 2, workload.shares)
    for m in METHOD_NAMES:
        value, pct, n = tail(stats[m]["scaled"])
        out.update({f"tail.{m}_ms": 1e3 * value, f"tail.{m}_pct": pct,
                    f"tail.{m}_samples": n})
    out.update(layer_summary(*traced_cycles(kinds, tally, seconds / 2)))
    size = [sizes(p) for p in paths]
    for key in size[0]:
        out[f"size.{key}"] = sum(s[key] for s in size)
    firsts = [c["first_result_scaled_s"] for c in cold]
    out["cold.first_result_max_ms"] = 1e3 * max(firsts)
    out["cold.stalled_children"] = sum(
        f > STALL_FACTOR * statistics.median(firsts) for f in firsts)
    blas1 = run_child(workload, paths, run_dir / "blas1", "blas1",
                      env=single_thread_env())
    tally.record(1, check_written(run_dir / "blas1",
                                  refs[0][workload.methods[0]]),
                 "blas1 child first result")
    tally.merge(blas1["layers"], "blas1 child")
    out["blas1.first_result_ms"] = (1e3 * blas1["first_result_s"]
                                    * PROBE_REF_S / blas1["probe_s"])
    for name in BLAS1_LAYERS:
        out[f"blas1.{name}"] = blas1["layers"]["summary"][name]
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        children: int = COLD_CHILDREN) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    workload = WORKLOADS[name]
    run_dir = ROOT / ".lqbench" / f"run-{name}-{seed}-{os.getpid()}"
    tally = Tally()
    raw = {}
    try:
        paths = write_models(name, seed, run_dir / "models")
        refs = [references(p) for p in paths]
        cold = cold_start(workload, paths, refs, run_dir, children, tally)
        if not cold:
            raise RuntimeError(f"no cold child finished: {tally.messages}")
        kinds = make_kinds(workload, paths, refs, run_dir)
        warm_up(kinds, tally)
        if trace:
            composition_check(kinds, tally)
            values = per_layer(workload, paths, refs, kinds, tally, seconds,
                               cold, run_dir)
            units = PER_LAYER
        else:
            stats = timed_loop(kinds, tally, seconds, workload.shares)
            values = end_to_end(stats, cold)
            raw = {f"{k}_ms": 1e3 * statistics.median(s["times"])
                   for k, s in stats.items()}
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "cold_children": cold, "raw_median_op": raw,
              "failures": tally.messages}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    record = ROOT / ".lqbench" / (f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    record.write_text(json.dumps({"detail": detail, "result": result},
                                 indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
