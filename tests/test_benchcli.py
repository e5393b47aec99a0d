"""Tests for the command-line interface and study helpers."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lqdisc.matcore import DomainError
from lqdisc.benchcli import (EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                             StudyConfig, fit_order, main)

MODELS = Path(__file__).resolve().parents[1] / "models"
MIMO = str(MODELS / "mimo_delayed.json")
SCALAR = str(MODELS / "scalar.json")


def test_discretize_writes_outputs(tmp_path):
    rc = main(["discretize", "--model", SCALAR, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "result.json").read_text())
    for key in ("provenance", "A", "B_o", "Q", "M", "A_aug", "stages"):
        assert key in doc
    assert doc["provenance"]["method"] == "expm"
    with open(tmp_path / "stages.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["k", "t_k", "rho_k", "q_norm"]
    assert len(rows) == 11  # header + N=10 stages


def test_discretize_verify_reports_small_errors(tmp_path, capsys):
    rc = main(["discretize", "--model", MIMO, "--method", "fixed",
               "--scheme", "rk4", "--steps", "1024", "--out", str(tmp_path),
               "--verify"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    errors = {}
    for line in out.splitlines():
        if line.startswith("e("):
            name, value = line.split(" = ")
            errors[name] = float(value)
    assert errors["e(Q)"] <= 1e-11
    assert errors["e(A)"] <= 1e-12


def test_missing_field_names_path(tmp_path, capsys):
    doc = json.loads(Path(MIMO).read_text())
    del doc["cost"]["Ts"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "cost.Ts" in capsys.readouterr().err


def test_missing_file_is_schema_error(tmp_path, capsys):
    rc = main(["discretize", "--model", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA


def test_singular_stage_is_numerical_error(tmp_path, capsys):
    doc = {
        "model": {"state_space": {"A_c": [[1.0]], "B_c": [[1.0]],
                                  "C_c": [[1.0]], "D_c": [[0.0]]}},
        "cost": {"Qc": [[1.0]], "mu": 0.0, "Ts": 1.0, "N": 1,
                 "zbar": [[0.0]]},
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    rc = main(["discretize", "--model", str(path), "--method", "fixed",
               "--scheme", "implicit-euler", "--steps", "1",
               "--out", str(tmp_path)])
    assert rc == EXIT_NUMERICAL
    assert "implicit-euler" in capsys.readouterr().err


def test_unknown_scheme_is_schema_error(tmp_path, capsys):
    rc = main(["discretize", "--model", SCALAR, "--method", "fixed",
               "--scheme", "rk5", "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "rk5" in capsys.readouterr().err


def test_bench_requires_enough_reps(tmp_path, capsys):
    rc = main(["bench", "--model", SCALAR, "--reps", "4",
               "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "reps" in capsys.readouterr().err


def _run_convergence(out_dir, extra=()):
    rc = main(["convergence", "--model", SCALAR,
               "--method", "fixed,doubling",
               "--scheme", "rk4,explicit-euler",
               "--steps", "16,32,64", "--out", str(out_dir), *extra])
    assert rc == EXIT_OK
    return (out_dir / "convergence.csv").read_bytes()


def test_convergence_output_is_reproducible(tmp_path):
    first = _run_convergence(tmp_path / "a")
    second = _run_convergence(tmp_path / "b")
    assert first == second
    assert b"\r\n" in first  # RFC 4180


def test_convergence_orders_and_meta(tmp_path):
    rc = main(["convergence", "--model", SCALAR, "--method", "fixed",
               "--scheme", "explicit-euler", "--steps", "16,32,64,128",
               "--out", str(tmp_path), "--verify"])
    assert rc == EXIT_OK
    with open(tmp_path / "orders.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert abs(float(rows[0]["order"]) - 1.0) < 0.1
    assert rows[0]["reference"] == "expm"
    meta = json.loads((tmp_path / "convergence_meta.json").read_text())
    assert meta["secondary_reference"]["evaluated"] is True
    assert meta["secondary_reference"]["max_gap"] < 1e-6


def test_convergence_rejects_expm_in_grid(tmp_path, capsys):
    rc = main(["convergence", "--model", SCALAR, "--method", "fixed,expm",
               "--steps", "16,32", "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "expm" in capsys.readouterr().err


def test_bench_expm_single_row(tmp_path):
    rc = main(["bench", "--model", SCALAR, "--method", "expm",
               "--reps", "5", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "bench.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["scheme"] == "-"
    assert rows[0]["N"] == "0"
    assert float(rows[0]["coeff_seconds"]) == 0.0
    assert float(rows[0]["e_A"]) == 0.0  # expm against itself
    meta = json.loads((tmp_path / "bench_meta.json").read_text())
    assert meta["reps"] == 5


def test_validate_small_run(capsys):
    rc = main(["validate", "--count", "3", "--steps", "512"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "validated 3 systems" in out
    assert "pairwise method gap" in out


def test_fit_order_recovers_synthetic_slope():
    steps = [16, 32, 64, 128]
    errors = [2.0 * n ** -3.0 for n in steps]
    order, points = fit_order(steps, errors)
    assert points == 4
    assert order == pytest.approx(3.0, abs=1e-10)


def test_fit_order_filters_floor():
    steps = [16, 32, 64]
    errors = [1e-3, 1e-15, 1e-16]  # last two below the fit floor
    order, points = fit_order(steps, errors)
    assert points == 1
    assert math.isnan(order)


def test_study_config_invariants():
    ok = StudyConfig(model_path="m.json", methods=("fixed",),
                     schemes=("rk4",), steps=(16, 32))
    assert ok.reference == "expm"
    with pytest.raises(DomainError, match="reps"):
        StudyConfig(model_path="m", methods=("fixed",), schemes=("rk4",),
                    steps=(16,), reps=0)
    with pytest.raises(DomainError, match="unknown method"):
        StudyConfig(model_path="m", methods=("euler",), schemes=("rk4",),
                    steps=(16,))
    with pytest.raises(DomainError, match="steps"):
        StudyConfig(model_path="m", methods=("fixed",), schemes=("rk4",),
                    steps=(0,))
    # doubling powers the seed for any N, not only powers of two
    mixed = StudyConfig(model_path="m", methods=("fixed", "doubling"),
                        schemes=("rk4",), steps=(48,))
    assert mixed.steps == (48,)
