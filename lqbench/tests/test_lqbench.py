"""Tests for the lqdisc benchmark in lqbench/."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import lqdisc  # noqa: E402
import measure  # noqa: E402
import run as lqrun  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, MethodKind, Reference, Tally,  # noqa: E402
                       ValidateKind, references, write_models)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def short(monkeypatch):
    monkeypatch.setattr(measure, "WARMUP_S", 0.0)


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_metrics_match_benchmark_json():
    assert _names("end_to_end") == lqrun.END_TO_END
    assert _names("per_layer") == lqrun.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert SPEC["command"] == ["python3", "lqbench/run.py"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload, short):
    result, detail = lqrun.run(workload, seed=3, seconds=0.2, trace=False,
                               children=1)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == set(_names("end_to_end"))
    for name, metric in result["metrics"].items():
        assert metric["unit"] == lqrun.END_TO_END[name]
        assert metric["value"] > 0, name
    assert detail["environment"]["numpy"] == np.__version__


def test_traced_run_reports_every_per_layer_metric(short):
    result, detail = lqrun.run("paper_mimo", seed=3, seconds=0.4,
                               trace=True, children=1)
    assert result["correct"], detail["failures"]
    assert set(result["metrics"]) == set(_names("per_layer"))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["size.n_h"] == 36 and m["size.input_cols_nonzero"] == 6
    assert m["matcore.expm_calls"] == 3      # phi1, phi2, phi3; no G_c
    assert m["matcore.solve_calls"] > 0      # esdirk4 stage solves
    assert m["fixedstep.coeff_ms"] > 0 and m["exactdefs.oracle_ms"] == 0


def test_wrong_reference_counts_a_failed_op(tmp_path):
    paths = write_models("paper_mimo", 1, tmp_path / "models")
    refs = [references(p) for p in paths]
    good = refs[0]["expm"]
    arrays = dict(good.arrays, A=good.arrays["A"] + 1e-6)
    refs[0]["expm"] = Reference(arrays, good.limit)
    tally = Tally()
    kind = MethodKind("expm", "rk4", paths, refs, tmp_path)
    _, passed = kind(tally)
    assert (passed, tally.attempted, tally.failed) == (0, 1, 1)
    assert "A off by" in tally.messages[0]


def test_failed_validation_counts_each_system():
    report = lqdisc.benchcli.run_validation(0, count=9, steps=16)
    assert report.failures()      # rk4 at N=16 misses the pairwise limit
    tally = Tally()
    _, passed = ValidateKind()(tally, validate=lambda *a, **k: report)
    assert (passed, tally.attempted, tally.failed) == (0, 9, 9)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_composition_equals_build_discrete_lq(workload, tmp_path):
    spec = WORKLOADS[workload]
    paths = write_models(workload, 2, tmp_path / "models")[:1]
    kinds = [MethodKind(m, spec.scheme, paths, [references(paths[0])],
                        tmp_path) for m in spec.methods]
    tally = Tally()
    spans.composition_check(kinds, tally)
    assert (tally.attempted, tally.failed) == (3, 0), tally.messages


def test_instrumentation_is_restored():
    originals = [getattr(__import__(mod, fromlist=[attr]), attr)
                 for mod, attr, _ in spans.REBOUND]
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert lqdisc.vanloan.expm is not originals[1]
        lqdisc.vanloan.expm(np.eye(2))
    assert [s.name for s in tracer.spans] == ["matcore.expm"]
    assert originals == [getattr(__import__(mod, fromlist=[attr]), attr)
                         for mod, attr, _ in spans.REBOUND]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "lqbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "lqbench/run.py", "--workload", "paper_mimo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == "" and "src/lqdisc" in proc.stderr
