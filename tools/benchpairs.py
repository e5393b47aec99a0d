"""Run alternating parent/change pairs of the lqdisc benchmark and write a
BENCH_<n>.json trajectory point.

    python3 tools/benchpairs.py --out BENCH_8.json --parent HEAD \
        --pairs validate_sweep=1-11 --pairs paper_mimo=1-4 \
        --pairs long_horizon=1-4 --traced validate_sweep=1 \
        --claim validate_sweep:ops_per_s

The change is this checkout's working tree. The parent (``--parent``,
default ``HEAD``) is exported with ``git archive``, and the working tree's
files that are not ignored are copied, into two fresh directories under
one temporary directory, so both sides run from a clean tree and the
repository's ``.git`` is left as it is. For every workload and seed the
tool runs

    python3 lqbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, with T the ``run_seconds`` of ``BENCHMARK.json``:
parent first on even pairs and change first on odd ones. The ``--traced``
seeds run the same way with ``--trace 1``. Each run is appended to
``.lqbench/benchpairs-runs.jsonl`` as it finishes.

The file holds, per workload and end-to-end metric of ``BENCHMARK.json``:
the per-seed values, the quartiles of each side, the change of the
medians, the pairs the change won or tied and the parent's quartile
spread; the ops attempted and failed; and each side's environment block.
Its ``bytecode`` block says whether ``PYTHONDONTWRITEBYTECODE`` was set
for the runs and whether each tree had ``src/lqdisc/__pycache__`` after
them: a cold child that compiles the package takes about a quarter
longer to its first result than one that reads cached bytecode.
A claim is checked with the rule of the benchmark: over at least ten
pairs the change wins at least 9 in 10, and its median beats the parent's
by more than the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_LOG = ROOT / ".lqbench" / "benchpairs-runs.jsonl"
CLAIM_RULE = ("change wins >= 9 of 10 pairs and the gap of the medians "
              "exceeds the parent's quartile spread")
SIDES = ("parent", "change")


# ---------------------------------------------------------------------------
# aggregation (pure)

def quartiles(values) -> dict:
    """First quartile, median and third quartile, linearly interpolated."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float),
                                   [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def compare(parent, change, better: str) -> dict:
    """Pairwise comparison of one metric; parent[i] and change[i] are the
    two runs of pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (>= 1) of parent and change "
                         "values")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_of_median": (c["median"] - p["median"]) / p["median"],
        "change_wins": sum(sign * (y - x) < 0 for x, y in zip(parent, change)),
        "ties": sum(x == y for x, y in zip(parent, change)),
        "parent_quartile_spread": p["q3"] - p["q1"],
        "per_seed": {"parent": list(parent), "change": list(change)},
    }


def claim_holds(metric: dict) -> bool:
    """At least ten pairs, wins in at least 9 of 10 of them, and a gain of
    the medians larger than the parent's quartile spread; `metric` is one
    metric's block."""
    pairs = len(metric["per_seed"]["parent"])
    gain = metric["parent"]["median"] - metric["change"]["median"]
    if metric["better"] == "higher":
        gain = -gain
    return (pairs >= 10 and metric["change_wins"] >= math.ceil(0.9 * pairs)
            and gain > metric["parent_quartile_spread"])


def _environment(record: dict) -> dict:
    env = dict(record["detail"]["environment"])
    env.pop("git_commit", None)
    return env


def aggregate_workload(runs: list, end_to_end: list) -> dict:
    """One workload's block from its untraced runs.

    Each run is {"seed": S, "parent": record, "change": record}, a record
    being lqbench's {"detail": ..., "result": ...} for that side.
    """
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r[side]["result"]["metrics"][name]["value"]
                         for r in runs] for side in SIDES}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         **compare(values["parent"], values["change"],
                                   spec["better"])}
    return {
        "seeds": [r["seed"] for r in runs],
        "pairs": len(runs),
        "metrics": metrics,
        "failed_ops": {side: sum(r[side]["result"]["failed"] for r in runs)
                       for side in SIDES},
        "attempted_ops": {side: sum(r[side]["result"]["attempted"]
                                    for r in runs) for side in SIDES},
        "environment": {side: _environment(runs[0][side]) for side in SIDES},
    }


def aggregate_traced(runs: list) -> dict:
    """Per-layer values of the traced pairs, seed by seed."""
    names = list(runs[0]["parent"]["result"]["metrics"])
    return {
        "seeds": [r["seed"] for r in runs],
        "note": "per cycle of ops, raw ms; counts per cycle",
        "failed_ops": {side: sum(r[side]["result"]["failed"] for r in runs)
                       for side in SIDES},
        **{name: {side: [r[side]["result"]["metrics"][name]["value"]
                         for r in runs] for side in SIDES}
           for name in names},
    }


def bench_document(untraced: dict, traced: dict, end_to_end: list,
                   seconds: float, commits: dict, bytecode: dict,
                   claim=None) -> dict:
    """The BENCH_<n>.json document.

    `untraced` and `traced` map a workload name to its list of runs (see
    `aggregate_workload`); `bytecode` is the `bytecode_record` of the
    runs; `claim` is (workload, metric) or None.
    """
    workloads = {}
    for name, runs in untraced.items():
        workloads[name] = aggregate_workload(runs, end_to_end)
    for name, runs in traced.items():
        workloads.setdefault(name, {})["traced"] = aggregate_traced(runs)
    doc = {
        "what": ("alternating parent/change pairs of python3 lqbench/run.py "
                 "--workload W --seed S --seconds T --trace 0|1, written by "
                 "tools/benchpairs.py; end-to-end metrics are scaled to the "
                 "reference machine speed by lqbench"),
        "seconds": seconds,
        "commits": commits,
        "bytecode": bytecode,
    }
    if claim is not None:
        workload, metric = claim
        doc["claim"] = {
            "workload": workload, "metric": metric, "rule": CLAIM_RULE,
            "holds": claim_holds(workloads[workload]["metrics"][metric])}
    doc["workloads"] = workloads
    return doc


# ---------------------------------------------------------------------------
# running

def parse_seeds(text: str) -> list:
    """'1-4,7' -> [1, 2, 3, 4, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(rev: str, tree: Path) -> Path:
    """The committed files of `rev`, written to the new directory `tree`."""
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def copy_working_tree(tree: Path) -> Path:
    """The working tree's files that git tracks or would track (not the
    ignored ones), copied to the new directory `tree`."""
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, tree / name)
    return tree


def bytecode_record(trees: dict, environ=os.environ) -> dict:
    """Whether the runs were told not to write bytecode, and whether each
    tree (side -> directory) holds compiled package modules after them."""
    return {"PYTHONDONTWRITEBYTECODE": bool(
                environ.get("PYTHONDONTWRITEBYTECODE")),
            "pycache_after_runs": {
                side: (tree / "src" / "lqdisc" / "__pycache__").is_dir()
                for side, tree in trees.items()}}


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "lqbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"benchpairs: {' '.join(cmd)} in {tree} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-600:]}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def run_pairs(trees: dict, plan: dict, seconds: float, trace: int) -> dict:
    """plan maps workload -> seeds; returns workload -> list of runs."""
    out = {}
    RUN_LOG.parent.mkdir(exist_ok=True)
    for workload, seeds in plan.items():
        out[workload] = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed}
            for side in order:
                run[side] = run_once(trees[side], workload, seed, seconds,
                                     trace)
                with RUN_LOG.open("a", encoding="utf-8") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "trace": trace, "side": side,
                                          **run[side]}) + "\n")
                print(f"{workload} seed {seed} trace {trace} {side}: "
                      f"failed {run[side]['result']['failed']}",
                      file=sys.stderr, flush=True)
            out[workload].append(run)
    return out


def _plan(items) -> dict:
    plan = {}
    for item in items or ():
        workload, _, seeds = item.partition("=")
        plan[workload] = parse_seeds(seeds)
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD",
                        help="the revision to compare this working tree with")
    parser.add_argument("--pairs", action="append", metavar="WORKLOAD=SEEDS",
                        help="untraced pairs, e.g. paper_mimo=1-10")
    parser.add_argument("--traced", action="append", metavar="WORKLOAD=SEEDS",
                        help="traced pairs, e.g. validate_sweep=1")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    untraced_plan, traced_plan = _plan(args.pairs), _plan(args.traced)
    if not untraced_plan:
        parser.error("give at least one --pairs WORKLOAD=SEEDS")
    claim = tuple(args.claim.split(":")) if args.claim else None
    if claim is not None and claim[0] not in untraced_plan:
        parser.error(f"--claim {args.claim}: no --pairs for {claim[0]}")
    benchmark = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]

    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    commits = {"parent": _git("rev-parse", args.parent),
               "change": (f"the working tree on {head}, uncommitted"
                          if dirty else head)}
    scratch = Path(tempfile.mkdtemp(prefix="benchpairs-"))
    try:
        trees = {"parent": export_tree(args.parent, scratch / "parent"),
                 "change": copy_working_tree(scratch / "change")}
        untraced = run_pairs(trees, untraced_plan, seconds, 0)
        traced = run_pairs(trees, traced_plan, seconds, 1)
        bytecode = bytecode_record(trees)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = bench_document(untraced, traced, benchmark["end_to_end"], seconds,
                         commits, bytecode, claim)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if claim is not None:
        print(f"claim {args.claim}: "
              f"{'holds' if doc['claim']['holds'] else 'does not hold'}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
