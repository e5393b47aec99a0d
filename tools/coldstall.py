"""Count cold BLAS stalls of the timing-order criterion in fresh processes.

    python3 tools/coldstall.py --procs 50 [--src DIR] [--one-thread]

Each child is a fresh Python process. It imports lqdisc from DIR (default:
this checkout's src/), builds the system of models/mimo_delayed.json and
runs three rounds of acceptance criterion 4:
``bench_rows(deq, (fixed, doubling, expm), (rk4,), (1024,), reps=9)``.
It also times its first ``discretize_expm`` call, which is the reference
``bench_rows`` computes before the first round. A round stalls when its
median ``expm`` time is at least half its median ``fixed`` time; criterion
4 needs ``expm < fixed``. Children run one at a time with the thread
settings they inherit, or with every BLAS/OpenMP pool at one thread
(``--one-thread``, through the child's environment only). The last line
of standard output is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODEL = ROOT / "models" / "mimo_delayed.json"
ROUNDS = 3
STALL_RATIO = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child(src: str) -> dict:
    sys.path.insert(0, src)
    from lqdisc import build_deq, discretize_expm, load_model, realize_plant
    from lqdisc.benchcli import bench_rows

    plant, cost = load_model(MODEL)
    deq = build_deq(realize_plant(plant, cost.Ts), cost)
    t0 = time.perf_counter()
    ref = discretize_expm(deq)
    first_expm_s = time.perf_counter() - t0
    rounds = []
    for _ in range(ROUNDS):
        rows = bench_rows(deq, ("fixed", "doubling", "expm"), ("rk4",),
                          (1024,), reps=9, reference=ref)
        rounds.append({r["method"]: r["run_seconds"] for r in rows})
        ref = None      # later rounds compute their own reference
    return {"first_expm_s": first_expm_s, "rounds": rounds,
            "scipy_loaded": "scipy" in sys.modules}


def summarize(results: list[dict]) -> dict:
    ratios = [r["expm"] / r["fixed"] for res in results for r in res["rounds"]]
    firsts = [1e3 * res["first_expm_s"] for res in results]
    return {
        "procs": len(results), "rounds": len(ratios),
        "stalled_rounds": sum(x >= STALL_RATIO for x in ratios),
        "procs_with_stall": sum(
            any(r["expm"] / r["fixed"] >= STALL_RATIO for r in res["rounds"])
            for res in results),
        "ratio_median": statistics.median(ratios),
        "ratio_max": max(ratios),
        "first_expm_ms_median": statistics.median(firsts),
        "first_expm_ms_max": max(firsts),
        "scipy_loaded": any(res["scipy_loaded"] for res in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--procs", type=int, default=50)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--one-thread", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.src)))
        return 0
    if args.procs < 1:
        parser.error("--procs must be >= 1")
    env = dict(os.environ)
    if args.one_thread:
        env.update({var: "1" for var in THREAD_VARS})
    results = []
    for i in range(args.procs):
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--src", args.src],
            capture_output=True, text=True, env=env, timeout=300, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ratios = " ".join(f"{r['expm'] / r['fixed']:.3f}" for r in res["rounds"])
        print(f"proc {i:3d} first expm {1e3 * res['first_expm_s']:7.2f} ms "
              f"expm/fixed {ratios}", flush=True)
        results.append(res)
    print(json.dumps(summarize(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
