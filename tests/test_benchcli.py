"""Tests for the command-line interface and study helpers."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lqdisc import (benchcli, build_coefficients, build_deq, exactdefs,
                    fixedstep, load_model, realize_plant, rww_expm)
from lqdisc.matcore import DimensionError, DomainError
from lqdisc.model import realize_delays
from lqdisc.benchcli import (EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                             OUTPUT_FILES, SystemCheck, ValidationReport,
                             bench_rows, convergence_rows, fit_order, main,
                             random_system, run_validation)

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


def test_non_finite_weight_is_schema_error(tmp_path, capsys):
    doc = json.loads(Path(SCALAR).read_text())
    doc["cost"]["Qc"] = [[math.nan]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "schema error: cost.Qc: non-finite entries" in \
        capsys.readouterr().err


@pytest.mark.parametrize("model,field,value,path", [
    (SCALAR, ("cost", "N"), 1e12, "cost.N"),
    (MIMO, ("model", "transfer", "channels", 1, "tau"), 1e9,
     "model.transfer.channels[1].tau"),
])
def test_horizon_or_delay_too_long_is_schema_error(tmp_path, capsys, model,
                                                   field, value, path):
    """A horizon or a delay whose arrays could not be allocated is named
    as a schema error before anything is allocated."""
    doc = json.loads(Path(model).read_text())
    section = doc
    for key in field[:-1]:
        section = section[key]
    section[field[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {path}: "), err
    assert "at most" in err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("model,field,path", [
    (SCALAR, ("cost", "N"), "cost.N"),
    (SCALAR, ("cost", "Qc", 0, 0), "cost.Qc"),
    (SCALAR, ("model", "state_space", "A_c", 0, 0), "model.state_space.A_c"),
    (MIMO, ("model", "transfer", "channels", 0, "num", 0),
     "model.transfer.channels[0].num"),
])
def test_integer_beyond_the_double_range_is_schema_error(tmp_path, capsys,
                                                         model, field, path):
    doc = json.loads(Path(model).read_text())
    section = doc
    for key in field[:-1]:
        section = section[key]
    section[field[-1]] = 10 ** 400
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(f"schema error: {path}")


def _edited_mimo(tmp_path, edit):
    doc = json.loads(Path(MIMO).read_text())
    edit(doc["model"]["transfer"]["channels"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize("key,value,path", [
    ("num", [1.0, math.nan], "model.transfer.channels[2].num"),
    ("den", [0.0, 0.0], "model.transfer.channels[2].den"),
    ("num", [1.0, 0.0, 0.0], "model.transfer.channels[2]"),   # improper
    ("i", 1.5, "model.transfer.channels[2].i"),
    ("j", 0, "model.transfer.channels[2].j"),
    ("tau", -0.5, "model.transfer.channels[2].tau"),
])
def test_channel_field_errors_name_the_model_file_path(tmp_path, capsys,
                                                       key, value, path):
    """A bad field of a transfer channel is named by its place in the
    model file, like every other field, and exits 2."""
    bad = _edited_mimo(tmp_path,
                       lambda channels: channels[2].update({key: value}))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {path}: "), err


@pytest.mark.parametrize("key,value,message", [
    ("A_c", [[-1.0, 0.0]], "must be square"),
    ("B_c", [[1.0], [2.0]], "expected (1, 1), got (2, 1)"),
    ("C_c", [[1.0, 2.0]], "expected (1, 1), got (1, 2)"),
    ("D_c", [[0.0, 0.0]], "expected (1, 1), got (1, 2)"),
    ("G_c", [[1.0], [1.0]], "expected 1 rows, got 2"),
    ("delays", [0.5, 0.5], "expected 1 entries, got 2"),
    ("delays", [-0.5], "delays must be finite and >= 0"),
    ("A_c", [[math.nan]], "non-finite entries"),
], ids=["A_c-square", "B_c-shape", "C_c-shape", "D_c-shape", "G_c-rows",
        "delays-count", "delays-sign", "non-finite"])
def test_state_space_field_errors_name_the_model_file_path(tmp_path, capsys,
                                                           key, value,
                                                           message):
    """A state-space field the plant refuses is named by its place in the
    model file, like every other field, and exits 2."""
    doc = json.loads(Path(SCALAR).read_text())
    doc["model"]["state_space"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        f"schema error: model.state_space.{key}: {message}\n")


@pytest.mark.parametrize("edit,path,message", [
    (lambda channels: channels.append(dict(channels[1])),
     "model.transfer.channels[4]", "duplicate channel (1, 2)"),
    (lambda channels: channels.pop(2),
     "model.transfer.channels", "missing channel (2, 1)"),
], ids=["duplicate", "missing"])
def test_channel_grid_errors_name_the_model_file_path(tmp_path, capsys,
                                                      edit, path, message):
    bad = _edited_mimo(tmp_path, edit)
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(
        f"schema error: {path}: {message}")


def _with_section(path, value):
    """scalar.json with the section at `path` replaced by `value`."""
    doc = json.loads(Path(SCALAR).read_text())
    if path == "model.transfer.channels[0]":
        doc["model"] = {"transfer": {"channels": [value]}}
    elif path == "model.transfer":
        doc["model"] = {"transfer": value}
    elif path == "model.state_space":
        doc["model"]["state_space"] = value
    else:
        doc[path] = value
    return doc


@pytest.mark.parametrize("path,value", [
    ("model", 5), ("model", []), ("model.state_space", 5),
    ("model.transfer", 5), ("model.transfer.channels[0]", 5),
    ("cost", 5), ("cost", []),
], ids=["model", "model-list", "state_space", "transfer", "channel", "cost",
        "cost-list"])
def test_section_that_is_not_an_object_is_schema_error(tmp_path, capsys,
                                                       path, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_section(path, value)))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert f"schema error: {path}: expected an object" in \
        capsys.readouterr().err


def test_model_file_that_is_not_utf8_is_schema_error(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + Path(SCALAR).read_text().encode("utf-16-le"))
    rc = main(["discretize", "--model", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "schema error: $: not UTF-8 text" in capsys.readouterr().err


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


def _first_order_model(tmp_path, mu: float) -> Path:
    """dx = -x + u, z = x, Ts = 1, at discount mu, as a model file."""
    doc = {
        "model": {"state_space": {"A_c": [[-1.0]], "B_c": [[1.0]],
                                  "C_c": [[1.0]], "D_c": [[0.0]]}},
        "cost": {"Qc": [[1.0]], "mu": mu, "Ts": 1.0, "N": 1,
                 "zbar": [[0.0]]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mu,scheme,steps,rc", [
    (2000.0, "explicit-euler", 256, EXIT_NUMERICAL),
    (2000.0, "rk4", 256, EXIT_NUMERICAL),
    (2000.0, "rk4", 1024, EXIT_OK),
    (1e5, "explicit-euler", 1024, EXIT_NUMERICAL),
])
def test_step_outside_the_stability_region_is_numerical_error(
        tmp_path, capsys, mu, scheme, steps, rc):
    # dt mu/2 = 3.9 at 256 steps is outside the real stability interval of
    # explicit Euler (2) and rk4 (2.79); 0.98 at 1024 steps is inside rk4's
    path = _first_order_model(tmp_path, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = main(["discretize", "--model", str(path), "--method", "fixed",
                    "--scheme", scheme, "--steps", str(steps),
                    "--out", str(tmp_path / "out")])
    assert got == rc
    err = capsys.readouterr().err
    if rc == EXIT_OK:
        Q = json.loads((tmp_path / "out" / "result.json").read_text())["Q"]
        assert np.isfinite(Q).all()
        return
    assert len(err.splitlines()) == 1
    for part in ("stability region", f"{scheme!r}", f"dt={1 / steps:.6g}",
                 "eigenvalue -1 "):
        assert part in err
    assert not (tmp_path / "out").exists()


def test_non_finite_result_is_numerical_error(tmp_path, capsys, monkeypatch):
    # a seed with an inf, or a NaN, entry in X_q: the fold leaves that
    # entry NaN in X_q, without factoring it, so Q is non-finite
    bad = []

    def bad_seed(*args):
        coeffs = build_coefficients(*args)
        X_q = coeffs.seed.X_q.copy()
        X_q[0, 0, 0] = bad[-1]
        return dataclasses.replace(coeffs, seed=coeffs.seed._replace(X_q=X_q))

    # some LAPACK builds return NaN for such input, others report that
    # eigh did not converge; the fold must not depend on which
    eigh = np.linalg.eigh

    def strict_eigh(a):
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(fixedstep, "build_coefficients", bad_seed)
    monkeypatch.setattr(np.linalg, "eigh", strict_eigh)
    path = _first_order_model(tmp_path, 0.2)
    for value in (math.inf, math.nan):
        bad.append(value)
        # the non-finite Q inside the core prints no RuntimeWarning, one line
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["discretize", "--model", str(path), "--method",
                       "fixed", "--scheme", "esdirk4", "--steps", "1024",
                       "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERICAL, value
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert "'fixed'" in err and "in Q" in err
        assert not (tmp_path / "out").exists()


def test_output_count_mismatch_is_schema_error(tmp_path, capsys,
                                              monkeypatch):
    doc = {
        "model": {"state_space": {"A_c": [[-1.0]], "B_c": [[1.0]],
                                  "C_c": [[1.0], [2.0]],
                                  "D_c": [[0.0], [0.0]]}},
        "cost": {"Qc": [[1.0]], "mu": 0.2, "Ts": 1.0, "N": 1,
                 "zbar": [[0.0]]},
    }
    path = tmp_path / "outputs.json"
    path.write_text(json.dumps(doc))
    rc = main(["discretize", "--model", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "cost.Qc" in capsys.readouterr().err

    # a mismatch the model boundary does not see is a schema error too
    def mismatch(*args, **kwargs):
        raise DimensionError("B_o has 3 columns, expected 2")
    monkeypatch.setattr(benchcli, "build_discrete_lq", mismatch)
    rc = main(["discretize", "--model", SCALAR, "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "B_o has 3 columns" in capsys.readouterr().err


def test_unknown_scheme_is_schema_error(tmp_path, capsys):
    rc = main(["discretize", "--model", SCALAR, "--method", "fixed",
               "--scheme", "rk5", "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "rk5" in capsys.readouterr().err


def test_tableau_file(tmp_path, capsys):
    euler = {"name": "my-euler", "a": [[0.0]], "b": [1.0], "c": [0.0],
             "kind": "explicit"}
    good = tmp_path / "euler.json"
    good.write_text(json.dumps(euler))
    rc = main(["discretize", "--model", SCALAR, "--method", "fixed",
               "--tableau", str(good), "--out", str(tmp_path / "ok")])
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "ok" / "result.json").read_text())
    assert doc["provenance"]["scheme"] == "my-euler"

    # a missing file, invalid JSON, a non-object, non-numeric and NaN
    # entries: each is a schema error naming the file, and nothing is written
    bad = (None, "{not json", "[1, 2]", json.dumps({**euler, "a": "zz"}),
           json.dumps({**euler, "a": [[math.nan]], "c": [math.nan]}))
    for k, text in enumerate(bad):
        path = tmp_path / f"bad{k}.json"
        if text is not None:
            path.write_text(text)
        rc = main(["discretize", "--model", SCALAR, "--method", "fixed",
                   "--tableau", str(path), "--out", str(tmp_path / "bad")])
        assert rc == EXIT_SCHEMA
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_scheme_and_tableau_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["discretize", "--model", SCALAR, "--scheme", "rk4",
              "--tableau", str(tmp_path / "t.json"), "--out", str(tmp_path)])
    assert exc.value.code == EXIT_SCHEMA
    assert "not allowed with" in capsys.readouterr().err


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
    head, *summary = capsys.readouterr().out.splitlines()
    assert head.startswith("validated 3 systems (seed=0, start=0, N=512) in ")
    gaps = [re.sub(r"\d\.\d{3}e[-+]\d\d ", "X ", line) for line in summary]
    assert gaps == [
        "pairwise method gap   X  (limit 1e-09)",
        "gap vs oracle         X  (limit 1e-08)",
        "Q, R_ww PSD           yes",
        "zero-delay pipeline   X  (limit 1e-12)",
        "transition split      X  (limit 1e-12)",
        "input-integral forms  X  (limit 1e-10)",
    ]


def test_validation_takes_r_ww_once_per_system(monkeypatch):
    """R_ww depends on the plant alone: build_deq takes it once, and the
    three methods read it off the system."""
    calls = []

    def counted(*args):
        calls.append(args)
        return rww_expm(*args)

    monkeypatch.setattr(exactdefs, "rww_expm", counted)
    report = run_validation(seed=1, count=9, steps=64)
    assert len(calls) == 9 == report.count     # every sweep plant has G_c


def test_validate_start_reruns_one_system_alone(capsys):
    """System i of a seed checked alone (start=i, count=1) gives the same
    SystemCheck as in the sweep from 0, and the CLI takes --start."""
    sweep = run_validation(seed=5, count=4, steps=256)
    for i, steps in ((0, 256), (3, np.int64(256))):
        alone = run_validation(seed=5, count=1, steps=steps, start=i)
        assert alone.checks == (sweep.checks[i],)
    assert run_validation(seed=5, count=2, steps=256,
                          start=0).checks == sweep.checks[:2]
    with pytest.raises(DomainError, match="start"):
        run_validation(seed=5, count=1, start=-1)
    assert main(["validate", "--seed", "5", "--start", "3", "--count", "1",
                 "--steps", "256"]) == EXIT_OK
    assert "validated 1 systems (seed=5, start=3, N=256)" in \
        capsys.readouterr().out


def test_realizations_that_differ_set_the_zero_delay_gap(monkeypatch):
    """The zero-delay gap reads the realizations of the plant without and
    with explicit zero delays: equal arrays give 0, and one entry changed
    in the second gives that change, which failures() reports with the
    system and its rerun command."""
    plant, cost, _ = random_system(np.random.default_rng(0), 0)
    plain = realize_delays(plant, cost.Ts)
    zero = realize_delays(dataclasses.replace(
        plant, delays=(0.0,) * plant.n_u), cost.Ts)
    for f in dataclasses.fields(plain):
        a, b = getattr(plain, f.name), getattr(zero, f.name)
        assert type(a) is type(b), f.name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    assert run_validation(seed=0, count=1).checks[0].zero_delay_gap == 0.0

    def shifted(model, Ts):
        out = realize_delays(model, Ts)
        if model.delays is None:
            return out
        B_c = out.B_c.copy()
        B_c[0, 0] += 1e-9
        return dataclasses.replace(out, B_c=B_c)

    monkeypatch.setattr(benchcli, "realize_delays", shifted)
    report = run_validation(seed=0, count=1)
    assert report.checks[0].zero_delay_gap == pytest.approx(1e-9, rel=1e-6)
    assert report.failures() == [
        f"zero-delay gap {report.checks[0].zero_delay_gap:.3e} > 1e-12 "
        "(system 0, none, mu=0, seed 0; rerun: lqdisc validate --seed 0 "
        "--start 0 --count 1 --steps 1024)"]


def _check(index, kind, mu, **worse):
    fields = dict(pairwise=1e-12, vs_oracle=1e-11, psd_ok=True,
                  zero_delay_gap=1e-15, gamma_gap=1e-15, bdot_gap=1e-13)
    fields.update(worse)
    return SystemCheck(index=index, kind=kind, mu=mu, **fields)


def test_validation_failures_name_the_worst_system():
    checks = (
        _check(0, "none", 0.0, pairwise=3e-9),
        _check(1, "none", 0.2, pairwise=5e-9, psd_ok=False),
        _check(2, "fractional", 1.0, vs_oracle=2e-8, bdot_gap=4e-10),
        _check(3, "integer", 0.0, psd_ok=False, gamma_gap=2e-12),
    )
    report = ValidationReport(seed=7, count=4, steps=1024, checks=checks,
                              elapsed=0.0)
    assert report.failures() == [
        "pairwise 5.000e-09 > 1e-09 (system 1, none, mu=0.2, seed 7; "
        "rerun: lqdisc validate --seed 7 --start 1 --count 1 "
        "--steps 1024)",
        "oracle 2.000e-08 > 1e-08 (system 2, fractional, mu=1, seed 7; "
        "rerun: lqdisc validate --seed 7 --start 2 --count 1 "
        "--steps 1024)",
        "gamma identity 2.000e-12 > 1e-12 (system 3, integer, mu=0, seed 7; "
        "rerun: lqdisc validate --seed 7 --start 3 --count 1 "
        "--steps 1024)",
        "B-form gap 4.000e-10 > 1e-10 (system 2, fractional, mu=1, seed 7; "
        "rerun: lqdisc validate --seed 7 --start 2 --count 1 "
        "--steps 1024)",
        "Q or R_ww not positive semidefinite (system 1, none, mu=0.2, "
        "seed 7; rerun: lqdisc validate --seed 7 --start 1 --count 1 "
        "--steps 1024)",
    ]
    clean = ValidationReport(seed=0, count=1, steps=1024, elapsed=0.0,
                             checks=(_check(0, "none", 0.0),))
    assert clean.failures() == []
    # a NaN gap is the worst value, wherever it sits among the systems
    for checks in ((_check(0, "none", 0.0, pairwise=math.nan),
                    _check(1, "integer", 1.0, pairwise=2e-9)),
                   (_check(1, "integer", 1.0, pairwise=2e-9),
                    _check(0, "none", 0.0, pairwise=math.nan))):
        report = ValidationReport(seed=3, count=2, steps=1024,
                                  checks=checks, elapsed=0.0)
        assert report.failures() == [
            "pairwise nan > 1e-09 (system 0, none, mu=0, seed 3; "
            "rerun: lqdisc validate --seed 3 --start 0 --count 1 "
            "--steps 1024)"]


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


def _never(*args, **kwargs):
    raise AssertionError("computed before the grid was checked")


def test_bench_rows_checks_the_grid(monkeypatch):
    """The study grid refuses an unknown method or scheme (also where only
    expm rows would run), an N below 1 and reps below 1 before it computes
    anything, the reference included; the convergence grid takes fixed and
    doubling only."""
    plant, cost = load_model(SCALAR)
    deq = build_deq(realize_plant(plant, cost.Ts), cost)
    with monkeypatch.context() as patch:
        for name in ("discretize_expm", "build_coefficients"):
            patch.setattr(benchcli, name, _never)
        for methods, steps, reps, match in (
                (("fixed",), (16,), 0, "reps"),
                (("fxied",), (16,), 1, "unknown method"),
                (("euler",), (16,), 9, "unknown method"),
                (("fixed",), (16, 0), 9, "steps")):
            with pytest.raises(DomainError, match=match):
                bench_rows(deq, methods, ("rk4",), steps, reps)
        for methods in (("fixed",), ("expm",)):
            with pytest.raises(DomainError, match="unknown scheme 'rk5'"):
                bench_rows(deq, methods, ("rk4", "rk5"), (16,), 1)
        with pytest.raises(DomainError, match="unknown scheme 'rk5'"):
            convergence_rows(deq, ("doubling",), ("rk5",), (16,))
        with pytest.raises(DomainError, match="'expm'"):
            convergence_rows(deq, ("fixed", "expm"), ("rk4",), (16,))
    # doubling powers the seed for any N, not only powers of two
    rows = bench_rows(deq, ("fixed", "doubling"), ("rk4",), (48,), reps=1)
    assert [(r["method"], r["N"]) for r in rows] == [("fixed", 48),
                                                     ("doubling", 48)]
    assert abs(rows[0]["e_Q"] - rows[1]["e_Q"]) <= 1e-12
    assert rows[1]["e_Q"] < 1e-6


@pytest.mark.parametrize("argv", [
    ["convergence", "--method", "fixed,expm", "--verify"],
    ["convergence", "--method", "fixed,euler", "--verify"],
    ["convergence", "--steps", "16,0", "--verify"],
    ["convergence", "--scheme", "rk4,rk5", "--verify"],
    ["bench", "--method", "fxied"],
    ["bench", "--steps", "0"],
    ["bench", "--method", "expm", "--scheme", "bogus"],
    ["discretize", "--method", "expm", "--scheme", "bogus"],
], ids=["convergence-expm", "convergence-unknown", "convergence-steps",
        "convergence-scheme", "bench-unknown", "bench-steps",
        "bench-expm-scheme", "discretize-expm-scheme"])
def test_grid_errors_fail_before_any_work(tmp_path, capsys, monkeypatch,
                                          argv):
    """Also an unknown scheme, even where only expm would run."""
    for name in ("discretize_expm", "oracle_quadrature", "build_coefficients",
                 "build_discrete_lq"):
        monkeypatch.setattr(benchcli, name, _never)
    rc = main([argv[0], "--model", SCALAR, *argv[1:],
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("invalid configuration: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["discretize"],
    ["convergence", "--method", "fixed", "--scheme", "rk4", "--steps", "16"],
    ["bench", "--method", "expm", "--reps", "5"],
], ids=["discretize", "convergence", "bench"])
def test_out_that_cannot_be_a_directory_is_schema_error(tmp_path, capsys,
                                                        argv):
    """--out naming a file, or a path below one, exits 2 naming the path,
    and nothing is written."""
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out in (taken, taken / "sub"):
        rc = main([argv[0], "--model", SCALAR, *argv[1:], "--out", str(out)])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: --out {out}: "), err
        assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("argv,name", [
    (["discretize"], name) for name in OUTPUT_FILES["discretize"]] + [
    (["convergence", "--method", "fixed", "--scheme", "rk4", "--steps", "16"],
     name) for name in OUTPUT_FILES["convergence"]] + [
    (["bench", "--method", "expm", "--reps", "5"], name)
    for name in OUTPUT_FILES["bench"]])
def test_output_file_that_is_a_directory_is_schema_error(
        tmp_path, capsys, monkeypatch, argv, name):
    """An output file whose path is an existing directory exits 2 naming
    that path, before any work, and nothing is written."""
    for fn in ("build_discrete_lq", "discretize_expm", "build_coefficients"):
        monkeypatch.setattr(benchcli, fn, _never)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    rc = main([argv[0], "--model", SCALAR, *argv[1:], "--out", str(out)])
    assert rc == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == (f"invalid configuration: --out {out}: {out / name} "
                   "is a directory\n")
    assert list(out.iterdir()) == [out / name]
    assert list((out / name).iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["discretize"],
    ["convergence", "--method", "fixed", "--scheme", "rk4", "--steps", "16"],
    ["bench", "--method", "expm", "--reps", "5"],
], ids=["discretize", "convergence", "bench"])
def test_each_command_writes_its_output_files(tmp_path, argv):
    out = tmp_path / "out"
    assert main([argv[0], "--model", SCALAR, *argv[1:], "--out", str(out)]) \
        == EXIT_OK
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(OUTPUT_FILES[argv[0]])


def _table(path):
    """The CSV file's fields, after checking every line ends in CRLF."""
    raw = path.read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[-1] == b"" and not any(b"\n" in line for line in lines)
    return [line.decode("ascii").split(",") for line in lines[:-1]]


def test_study_tables_keep_their_format(tmp_path):
    """convergence.csv, orders.csv and bench.csv: the exact header, CRLF,
    the reference id last, integers as plain digits and every float as its
    %.16e text, a NaN order (one point above the fit floor) included."""
    assert main(["convergence", "--model", SCALAR, "--method", "fixed",
                 "--scheme", "rk4,explicit-euler", "--steps", "16,1024",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert main(["bench", "--model", SCALAR, "--method", "doubling,expm",
                 "--steps", "16,32", "--reps", "5",
                 "--out", str(tmp_path)]) == EXIT_OK
    errors = ["e_A", "e_B_o", "e_M", "e_Q"]
    tables = {
        "convergence.csv": ["method", "scheme", "N", *errors, "reference"],
        "orders.csv": ["method", "scheme", "points", "order", "reference"],
        "bench.csv": ["method", "scheme", "N", "coeff_seconds",
                      "run_seconds", *errors, "reference"],
    }
    for name, header in tables.items():
        rows = _table(tmp_path / name)
        assert rows[0] == header, name
        assert len(rows) > 1
        for row in rows[1:]:
            assert len(row) == len(header) and row[-1] == "expm", row
            for column, field in zip(header[2:-1], row[2:-1]):
                if column in ("N", "points"):
                    assert field.isdigit() and field == str(int(field)), row
                else:
                    assert field == "%.16e" % float(field), row
    orders = {tuple(row[:2]): row[3]
              for row in _table(tmp_path / "orders.csv")[1:]}
    assert orders[("fixed", "rk4")] == "nan"
    assert float(orders[("fixed", "explicit-euler")]) > 0.9


CLI_SCRIPT = """
import json, sys
from lqdisc.benchcli import main
model, tableau, out = sys.argv[1:4]
runs = [["discretize", "--model", model, "--method", "expm", "--out", out]]
for method in ("fixed", "doubling"):
    for scheme in (["--scheme", "esdirk4"], ["--tableau", tableau]):
        runs.append(["discretize", "--model", model, "--method", method,
                     "--steps", "64", *scheme, "--out", out])
runs.append(["validate", "--count", "3"])
runs.append(["convergence", "--model", model, "--method", "doubling",
             "--scheme", "rk4", "--steps", "64,128", "--verify", "--out", out])
codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes, "scipy": sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy."))}))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    """discretize with every method (esdirk4, and a fully implicit tableau
    for the coupled-stage solve), validate and convergence --verify, in one
    fresh process: not one scipy module gets imported."""
    tableau = tmp_path / "gauss2.json"
    tableau.write_text(json.dumps(dict(
        name="gauss-legendre-2",
        a=[[0.25, 0.25 - math.sqrt(3) / 6], [0.25 + math.sqrt(3) / 6, 0.25]],
        b=[0.5, 0.5], c=[0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6],
        kind="implicit")))
    src = Path(benchcli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, MIMO, str(tableau),
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=600, check=False,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [EXIT_OK] * 7
    assert report["scipy"] == []
