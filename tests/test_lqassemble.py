"""Tests for the assembly layer: augmentation, stage costs, exporters.

The central check simulates the delayed continuous-time plant exactly
(piecewise integration between input breakpoints) and verifies that the
discretized core and the augmented recursion reproduce the sampled states
and outputs.
"""

import csv
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest
from scipy.integrate import simpson

from lqdisc.matcore import DimensionError, DomainError, expm, max_abs, solve
from lqdisc.model import (ContinuousStateSpace, CostSpec, DelayRealization,
                          ModelError)
from lqdisc.exactdefs import build_deq
from lqdisc.lqassemble import (JSON_VECTOR_MIN, DiscreteLQ,
                               assemble_augmented, build_discrete_lq,
                               discretize_core, expected_stage_cost,
                               export_result_json, export_stage_csv,
                               realize_plant, stage_costs)


def _intexp(A, h):
    """(e^{Ah}, int_0^h e^{Ar} dr) from one block exponential."""
    n = A.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = A
    blk[:n, n:] = np.eye(n)
    E = expm(blk * h)
    return E[:n, :n], E[:n, n:]


def _simulate_delayed(r, U, K, x0):
    """Sample the continuous plant exactly at t_k = k Ts.

    U maps step index k (from -m_bar on) to the held input vector over
    [k Ts, (k+1) Ts). Input column c carries u_j(t - tau) with
    tau = (m - v) Ts, which inside step k switches from U[k-m] to
    U[k-m+1] at s = (1 - v) Ts; between the sorted switch times every
    column sees a constant input, so the only error left is expm
    rounding.
    """
    Ts = r.Ts
    cuts = sorted({0.0, Ts} | {(1.0 - v) * Ts for v in r.col_v if v > 0})
    states = [x0]
    x = x0
    for k in range(K):
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            u = [U[k - m + (v > 0 and s0 >= (1.0 - v) * Ts)][j]
                 for j, m, v in zip(r.col_input, r.col_m, r.col_v)]
            Phi, J = _intexp(r.A_c, s1 - s0)
            x = Phi @ x + J @ r.B_c @ u
        states.append(x)
    return np.array(states)


def test_core_and_augmented_match_exact_simulation(mimo_model,
                                                   mimo_realization):
    plant, cost = mimo_model
    r = mimo_realization
    dlq = build_discrete_lq(plant, cost, method="expm")
    K = 5
    rng = np.random.default_rng(42)
    U = {k: rng.normal(size=r.n_u) for k in range(-r.m_bar, K)}
    x0 = rng.normal(size=r.n_x)
    states = _simulate_delayed(r, U, K, x0)

    # core recursion on the lifted input reproduces the sampled states
    x = x0.copy()
    for k in range(K):
        u_lift = np.concatenate([U[k - r.m_bar + p]
                                 for p in range(r.m_bar + 1)])
        x = dlq.A @ x + dlq.B_o @ u_lift
        assert max_abs(x - states[k + 1]) < 1e-12

    # augmented recursion carries the held window and maps the outputs
    xa = np.concatenate([x0] + [U[k] for k in range(-r.m_bar, 0)])
    for k in range(K):
        z_direct = r.C_c @ states[k]
        for (i, j), d in np.ndenumerate(r.D_c):
            z_direct[i] += d * U[k - r.m[i, j]][j]
        z_aug = dlq.C_aug @ xa + dlq.D_aug @ U[k]
        assert max_abs(z_aug - z_direct) < 1e-12
        xa = dlq.A_aug @ xa + dlq.B_aug @ U[k]
        assert max_abs(xa[:r.n_x] - states[k + 1]) < 1e-12


def test_assemble_passthrough_without_delays(scalar_model, scalar_deq):
    plant, cost = scalar_model
    core = discretize_core(scalar_deq, "expm")
    r = realize_plant(plant, cost.Ts)
    assert r.m_bar == 0
    A_aug, B_aug, C_aug, D_aug = assemble_augmented(core, r)
    assert A_aug is core.A
    assert B_aug is core.B_o
    assert np.array_equal(C_aug, plant.C_c)
    assert np.array_equal(D_aug, plant.D_c)


def test_assemble_rejects_mismatched_inputs(scalar_deq, mimo_realization):
    core = discretize_core(scalar_deq, "expm")
    with pytest.raises(DimensionError, match="columns"):
        assemble_augmented(core, mimo_realization)
    with pytest.raises(DimensionError, match="str"):
        assemble_augmented(core, "not a realization")


def test_augmented_shapes(mimo_model):
    plant, cost = mimo_model
    dlq = build_discrete_lq(plant, cost, method="expm")
    n_x, n_u, m_bar = 6, 2, 2
    n_aug = n_x + m_bar * n_u
    assert dlq.A_aug.shape == (n_aug, n_aug)
    assert dlq.B_aug.shape == (n_aug, n_u)
    assert dlq.C_aug.shape == (2, n_aug)
    assert dlq.D_aug.shape == (2, n_u)


def test_stage_costs_discount_telescoping(mimo_model):
    plant, cost = mimo_model
    dlq = build_discrete_lq(plant, cost, method="expm")
    st = dlq.stages
    zb = np.array([1.0, 0.5])
    gain = -math.expm1(-0.2) / 0.4
    assert st.rho_k[0] == pytest.approx(gain * float(zb @ cost.Q_c @ zb),
                                        abs=1e-15)
    # constant reference: every stage ratio is exactly the discount factor
    ratios = st.rho_k[1:] / st.rho_k[:-1]
    assert np.allclose(ratios, math.exp(-0.2), rtol=1e-13, atol=0.0)
    for k in (0, 7, 19):
        assert max_abs(st.q_k[k] - st.scale[k] * (dlq.M @ zb)) < 1e-15


@pytest.mark.parametrize("mu", [0.0, 1e-9, 0.2, 2.0])
def test_rho_matches_quadrature(mu):
    cost = CostSpec(Q_c=[[1.0, 0.0], [0.0, 2.0]], mu=mu, Ts=1.0, N=6,
                    zbar=[[1.0, 0.5]])
    st = stage_costs(np.zeros((3, 3)), np.zeros((3, 2)), cost)
    zb = np.array([1.0, 0.5])
    c = float(zb @ cost.Q_c @ zb)
    s = np.linspace(0.0, cost.Ts, 4097)
    for k in (0, 3):
        integral = simpson(np.exp(-mu * (st.t_k[k] + s)) * 0.5 * c, x=s)
        assert abs(st.rho_k[k] - integral) < 1e-10


def test_rho_zero_discount_branch():
    cost = CostSpec(Q_c=[[2.0]], mu=0.0, Ts=0.5, N=3, zbar=[[3.0]])
    st = stage_costs(np.zeros((2, 2)), np.zeros((2, 1)), cost)
    # mu = 0: rho_k = (Ts/2) zbar'Q_c zbar at every stage
    assert np.all(st.rho_k == 0.25 * 18.0)
    assert np.all(st.scale == 1.0)


def test_stage_reference_held_last():
    cost = CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=4,
                    zbar=[[1.0], [2.0]])
    M = np.array([[1.0], [0.5]])
    st = stage_costs(np.zeros((2, 2)), M, cost)
    assert max_abs(st.q_k[0] - M[:, 0]) == 0.0
    for k in (1, 2, 3):
        assert max_abs(st.q_k[k] - 2.0 * M[:, 0]) == 0.0

    # fewer, exactly N and more reference rows than stages, and N = 1: the
    # array form equals the per-stage formulas
    rng = np.random.default_rng(11)
    W = rng.normal(size=(2, 2))
    Q_c = W.T @ W + 0.1 * np.eye(2)
    M = rng.normal(size=(3, 2))
    mu, Ts = 0.3, 0.5
    gain = -math.expm1(-mu * Ts) / (2.0 * mu)
    for rows, N in ((3, 7), (7, 7), (9, 7), (1, 1), (4, 1)):
        cost = CostSpec(Q_c=Q_c, mu=mu, Ts=Ts, N=N,
                        zbar=rng.normal(size=(rows, 2)))
        st = stage_costs(np.zeros((3, 3)), M, cost)
        assert st.q_k.shape == (N, 3) and st.rho_k.shape == (N,)
        for k in range(N):
            zb = cost.zbar[min(k, rows - 1)]
            disc = math.exp(-mu * (k * Ts))
            q_want = disc * (M @ zb)
            rho_want = disc * gain * float(zb @ Q_c @ zb)
            assert max_abs(st.q_k[k] - q_want) <= 1e-15 * max_abs(q_want)
            assert abs(st.rho_k[k] - rho_want) <= 1e-15 * abs(rho_want)


def test_expected_stage_cost_hand_value():
    Q_k = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]])
    q_k = np.array([1.0, 0.0, -1.0])
    x = np.array([1.0, 2.0])
    u = np.array([0.5])
    P = np.array([[0.1, 0.0], [0.0, 0.2]])
    R_ww = np.array([[0.3, 0.0], [0.0, 0.1]])
    C_c = np.array([[1.0, 0.0], [0.0, 2.0]])
    got = expected_stage_cost(Q_k, q_k, 0.25, x, u, P_k=P, R_ww=R_ww,
                              C_c=C_c)
    # 1/2 w'Qw = 1 + 4 + 0.5 = 5.5; q'w = 0.5; rho = 0.25
    assert got.deterministic == pytest.approx(6.25, abs=1e-15)
    assert got.trace_state == pytest.approx(2.0 * 0.1 + 2.0 * 0.2, abs=1e-15)
    assert got.trace_noise == pytest.approx(0.3 + 4.0 * 0.1, abs=1e-15)


def test_expected_stage_cost_validation():
    Q_k = np.eye(3)
    with pytest.raises(DimensionError):
        expected_stage_cost(Q_k, np.zeros(3), 0.0, [1.0, 2.0, 3.0], [0.0])
    bad_p = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DomainError):
        expected_stage_cost(Q_k, np.zeros(3), 0.0, [1.0, 2.0], [0.0],
                            P_k=bad_p)


def test_expected_stage_cost_checks_the_shapes_of_its_covariances():
    """P_k is square over the entries of x_mean; R_ww and C_c come together
    and conform. None of these is read off in part or broadcast."""
    Q_k, q_k, x, u = np.eye(3), np.zeros(3), [1.0, 2.0], [0.0]
    with pytest.raises(DimensionError, match=r"P_k is \(1, 1\) for 2"):
        expected_stage_cost(Q_k, q_k, 0.0, x, u, P_k=np.eye(1))
    with pytest.raises(DimensionError, match="needs both"):
        expected_stage_cost(Q_k, q_k, 0.0, x, u, R_ww=np.eye(2))
    with pytest.raises(DimensionError, match="needs both"):
        expected_stage_cost(Q_k, q_k, 0.0, x, u, C_c=np.eye(2))
    with pytest.raises(DimensionError, match="do not conform"):
        expected_stage_cost(Q_k, q_k, 0.0, x, u, R_ww=np.eye(2),
                            C_c=np.ones((1, 3)))
    got = expected_stage_cost(Q_k, q_k, 0.0, x, u, R_ww=np.eye(2),
                              C_c=np.ones((1, 2)))
    assert got.trace_noise == 2.0


def test_minimizer_invariant_across_methods(mimo_model):
    """The one-step minimizer over u_k is stable across methods.

    Only the current input is free; the state and the held past inputs
    are fixed, so the relevant block is the trailing n_u-by-n_u corner.
    """
    plant, cost = mimo_model
    n_u = 2
    w_fixed = np.random.default_rng(9).normal(size=12 - n_u)
    mins = []
    for method in ("fixed", "expm"):
        dlq = build_discrete_lq(plant, cost, method=method, scheme="rk4",
                                steps=1024)
        Q_k, q_k = dlq.stages.scale[2] * dlq.Q, dlq.stages.q_k[2]
        Quu = Q_k[-n_u:, -n_u:]
        Qux = Q_k[-n_u:, :-n_u]
        qu = q_k[-n_u:]
        mins.append(solve(Quu, -(Qux @ w_fixed + qu).reshape(-1, 1)))
    assert max_abs(mins[0] - mins[1]) < 1e-9


_EXPORTED = ("A", "B_o", "Q", "M", "R_ww", "A_aug", "B_aug", "C_aug",
             "D_aug")


def _noisy_delayed_lq(N, mu=0.2, seed=3):
    """A delayed two-input plant with process noise (so R_ww is set) and a
    seeded reference per stage."""
    plant = ContinuousStateSpace(
        A_c=[[-0.6, 0.3], [0.0, -1.1]], B_c=[[1.0, 0.2], [0.0, 0.8]],
        C_c=[[1.0, 1.0], [0.0, 1.0]], D_c=[[0.0, 0.0], [0.0, 0.0]],
        G_c=[[0.5, 0.0], [0.1, 0.3]], delays=(0.4, 1.3))
    zbar = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(N, 2))
    cost = CostSpec(Q_c=[[1.0, 0.0], [0.0, 2.0]], mu=mu, Ts=1.0, N=N,
                    zbar=zbar)
    return build_discrete_lq(plant, cost, method="expm")


def _reprs(x):
    """Nested lists with every float replaced by its repr."""
    if isinstance(x, list):
        return [_reprs(v) for v in x]
    return repr(x) if isinstance(x, float) else x


def test_export_json_roundtrip(tmp_path, mimo_model):
    plant, cost = mimo_model
    noisy = _noisy_delayed_lq(N=7)
    assert noisy.R_ww is not None
    # 3000 discounted stages: the stage arrays take the vectorized writer,
    # with q_k down to about 1e-260
    long = _noisy_delayed_lq(N=3000)
    assert long.stages.q_k.size >= JSON_VECTOR_MIN
    assert 0 < np.abs(long.stages.q_k[-1]).max() < 1e-250
    path = tmp_path / "result.json"
    for dlq in (build_discrete_lq(plant, cost, method="expm"), noisy, long):
        export_result_json(dlq, os.devnull)     # not a regular file
        export_result_json(dlq, path)
        text = path.read_text()
        doc = json.loads(text)
        st = dlq.stages
        arrays = {name: getattr(dlq, name) for name in _EXPORTED}
        stages = {"t_k": st.t_k, "rho_k": st.rho_k, "q_k": st.q_k}

        # every array reads back bit for bit
        for name, value in arrays.items():
            if value is None:
                assert doc[name] is None, name
            else:
                assert np.array_equal(np.array(doc[name]), value), name
        for name, value in stages.items():
            back = np.array(doc["stages"][name])
            assert back.shape == value.shape, name
            assert np.array_equal(back, value), name
        assert doc["provenance"] == dlq.provenance

        # every number token is the shortest round-trip text of its value
        ref = {"provenance": dlq.provenance,
               **{name: None if value is None else value.tolist()
                  for name, value in arrays.items()},
               "stages": {name: value.tolist()
                          for name, value in stages.items()}}
        tokens = json.loads(text, parse_float=str)
        for name in _EXPORTED:
            assert tokens[name] == _reprs(ref[name]), name
        for name in stages:
            assert tokens["stages"][name] == _reprs(ref["stages"][name]), name

        # only whitespace differs from the indented encoding
        assert doc == json.loads(json.dumps(ref, indent=2))
        assert list(doc) == list(ref)

        # one top-level key per line
        lines = text.split("\n")
        assert lines[0] == "{" and lines[-2:] == ["}", ""]
        assert [line.split(":")[0] for line in lines[1:-2]] == [
            f'  "{key}"' for key in ref]


def _reference_csv(dlq, path):
    """The stage table as csv.writer writes it, norm computed per row."""
    st = dlq.stages
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "t_k", "rho_k", "q_norm"])
        for k in range(st.t_k.size):
            writer.writerow([k, f"{st.t_k[k]:.16e}", f"{st.rho_k[k]:.16e}",
                             f"{np.linalg.norm(st.q_k[k]):.16e}"])


def test_export_csv_format(tmp_path, mimo_model):
    plant, cost = mimo_model
    dlq = build_discrete_lq(plant, cost, method="expm")
    path = tmp_path / "stages.csv"
    export_stage_csv(dlq, path)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == cost.N + 1  # RFC 4180 line endings
    assert b"\n" not in raw.replace(b"\r\n", b"")
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["k", "t_k", "rho_k", "q_norm"]
    assert len(rows) == cost.N + 1
    assert float(rows[1][2]) == dlq.stages.rho_k[0]
    # full-precision scientific notation
    assert "e" in rows[1][2]

    # byte for byte what csv.writer writes, down to the last stage of a
    # long discounted horizon where the values are near 1e-260
    for dlq in (dlq, _noisy_delayed_lq(N=1), _noisy_delayed_lq(N=3000)):
        export_stage_csv(dlq, path)
        _reference_csv(dlq, tmp_path / "reference.csv")
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        export_stage_csv(dlq, os.devnull)       # not a regular file
    last = path.read_bytes().split(b"\r\n")[-2].split(b",")
    assert last[0] == b"2999" and 1e-300 < float(last[2]) < 1e-250


def test_export_csv_norm_is_numpy_norm(tmp_path):
    """q_norm is the exact np.linalg.norm of each row, over rows whose
    norms run from 1 down to 1e-300, for tables below the crossover (301
    rows) and above it (1001 rows), with rows of 2 to 12 entries."""
    dlq = _noisy_delayed_lq(N=1)
    rng = np.random.default_rng(4)
    for rows, width in ((301, 12), (1001, 12), (1001, 2), (1001, 7)):
        q_k = rng.normal(size=(rows, width)) * np.logspace(
            0, -300, rows)[:, None]
        st = dataclasses.replace(dlq.stages, t_k=np.arange(float(rows)),
                                 rho_k=np.ones(rows), q_k=q_k)
        export_stage_csv(dataclasses.replace(dlq, stages=st),
                         tmp_path / "stages.csv")
        with open(tmp_path / "stages.csv", newline="",
                  encoding="utf-8") as f:
            got = [float(row[3]) for row in list(csv.reader(f))[1:]]
        assert np.array_equal(got, [np.linalg.norm(q) for q in q_k]), \
            (rows, width)


@pytest.mark.parametrize("rows", [JSON_VECTOR_MIN // 3,
                                  JSON_VECTOR_MIN // 3 + 1])
def test_export_csv_at_the_crossover(tmp_path, monkeypatch, rows):
    """Either side of the table size (3 values a row) where the export
    switches to floattext.csv_chunks: the same bytes as csv.writer."""
    from lqdisc import floattext
    calls = []
    csv_chunks = floattext.csv_chunks
    monkeypatch.setattr(floattext, "csv_chunks",
                        lambda a: calls.append(a.size) or csv_chunks(a))
    dlq = _noisy_delayed_lq(N=rows)
    export_stage_csv(dlq, tmp_path / "stages.csv")
    _reference_csv(dlq, tmp_path / "reference.csv")
    assert (tmp_path / "stages.csv").read_bytes() == \
        (tmp_path / "reference.csv").read_bytes()
    assert calls == ([3 * rows] if 3 * rows >= JSON_VECTOR_MIN else [])


def test_streamed_exports_at_chunk_seams(tmp_path, monkeypatch, mimo_model):
    """Both files are written a chunk at a time. On horizons whose q_k (in
    result.json) or whose table (in stages.csv, 3 values a row) ends one
    row before, on and one row after the end of a floattext chunk, they
    equal, byte for byte, json.dumps of each top-level value and
    csv.writer; no piece handed to the file is longer than one chunk's
    text. Two plants: one with R_ww, and the bundled MIMO model, whose
    q_k rows also straddle chunks."""
    from lqdisc import floattext, lqassemble
    step = floattext._CHUNK
    plant, cost = mimo_model

    def mimo_lq(N):
        zbar = np.random.default_rng(N).uniform(-1.0, 1.0, size=(N, 2))
        return build_discrete_lq(plant, dataclasses.replace(
            cost, N=N, zbar=zbar), method="expm")

    pieces = {}
    overwrite = lqassemble._overwrite

    def spy(path, parts):
        sizes = []
        pieces.setdefault(os.path.basename(path), []).append(sizes)
        overwrite(path, (sizes.append(len(part)) or part for part in parts))

    monkeypatch.setattr(lqassemble, "_overwrite", spy)
    widths = []
    for build in (_noisy_delayed_lq, mimo_lq):
        width = build(1).stages.q_k.shape[1]
        widths.append(width)
        seams = (step // math.gcd(step, width), step // 3)
        for N in [seam + d for seam in seams for d in (-1, 0, 1)]:
            dlq = build(N)
            export_result_json(dlq, tmp_path / "result.json")
            st = dlq.stages
            doc = {"provenance": dlq.provenance,
                   **{name: None if getattr(dlq, name) is None
                      else getattr(dlq, name).tolist()
                      for name in _EXPORTED},
                   "stages": {"t_k": st.t_k.tolist(),
                              "rho_k": st.rho_k.tolist(),
                              "q_k": st.q_k.tolist()}}
            want = "{\n" + ",\n".join(f'  "{k}": {json.dumps(v)}'
                                      for k, v in doc.items()) + "\n}\n"
            assert (tmp_path / "result.json").read_bytes() == \
                want.encode(), (width, N)
            export_stage_csv(dlq, tmp_path / "stages.csv")
            _reference_csv(dlq, tmp_path / "reference.csv")
            assert (tmp_path / "stages.csv").read_bytes() == \
                (tmp_path / "reference.csv").read_bytes(), (width, N)
    assert any(step % width for width in widths)
    # a value is at most 24 characters ("-1.2345678901234567e-308") with
    # ", " and a bracket on either side; a CSV line here at most 4 digits
    # of index, 3 values with their commas and CRLF
    for name, limit in (("result.json", step * 28),
                        ("stages.csv", step // 3 * (4 + 3 * 25 + 2))):
        assert max(max(sizes) for sizes in pieces[name]) <= limit, name
    # the header and two chunks of rows, from seam + 1 rows on
    assert [len(sizes) for sizes in pieces["stages.csv"][-3:]] == [2, 2, 3]


def test_build_discrete_lq_provenance_and_errors(scalar_model, mimo_model):
    plant, cost = scalar_model
    dlq = build_discrete_lq(plant, cost, method="doubling", steps=1024)
    assert dlq.provenance["doublings"] == 10
    assert dlq.provenance["steps"] == 1024
    with pytest.raises(DomainError, match="unknown method"):
        build_discrete_lq(plant, cost, method="magic")
    # any N: 9 squarings and 5 more composes reach 1000 = 0b1111101000
    for plant, cost in (scalar_model, mimo_model):
        doubled = build_discrete_lq(plant, cost, method="doubling",
                                    steps=1000)
        fixed = build_discrete_lq(plant, cost, method="fixed", steps=1000)
        assert doubled.provenance["steps"] == 1000
        assert doubled.provenance["doublings"] == 9
        for name in ("A", "B_o", "Q", "M"):
            gap = max_abs(getattr(doubled, name) - getattr(fixed, name))
            assert gap <= 1e-12, (name, gap)


@pytest.mark.parametrize("method", ["fixed", "doubling", "expm"])
def test_numpy_integer_steps(tmp_path, mimo_model, method):
    plant, cost = mimo_model
    want = build_discrete_lq(plant, cost, method=method, steps=64)
    got = build_discrete_lq(plant, cost, method=method, steps=np.int64(64))
    assert got.provenance == want.provenance
    for name in ("A", "B_o", "Q", "M", "A_aug", "B_aug"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    export_result_json(got, tmp_path / "result.json")
    doc = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert doc["provenance"] == want.provenance


@pytest.mark.parametrize("steps", [64.0, "64", None])
def test_non_integral_steps_is_domain_error(mimo_model, steps):
    plant, cost = mimo_model
    message = f"steps must be an integer, got {steps!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        build_discrete_lq(plant, cost, method="fixed", steps=steps)


def test_realize_plant_dispatch(mimo_model, scalar_model):
    mimo_plant, cost = mimo_model
    r = realize_plant(mimo_plant, cost.Ts)
    assert r.m_bar == 2
    assert realize_plant(r, cost.Ts) is r
    # a plain plant is realized too, with one input slot and no delay
    scalar_plant, _ = scalar_model
    plain = realize_plant(scalar_plant, 1.0)
    assert isinstance(plain, DelayRealization)
    assert (plain.m_bar, plain.n_slots) == (0, 1)
    assert np.array_equal(plain.B_c, scalar_plant.B_c)
    assert (plain.col_m.tolist(), plain.col_v.tolist()) == ([0], [0.0])
    delayed = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                   delays=(0.25,))
    assert realize_plant(delayed, 1.0).m_bar == 1
    with pytest.raises(ModelError):
        realize_plant(42, 1.0)


def test_delayed_state_space_simulation_roundtrip():
    """Same simulation check on a state-space plant with mixed delays."""
    plant = ContinuousStateSpace(
        A_c=[[-0.6, 0.3], [0.0, -1.1]],
        B_c=[[1.0, 0.2], [0.0, 0.8]],
        C_c=[[1.0, 1.0]],
        D_c=[[0.0, 0.0]],
        delays=(0.4, 1.3),
    )
    cost = CostSpec(Q_c=[[1.0]], mu=0.1, Ts=1.0, N=4, zbar=[[0.0]])
    r = realize_plant(plant, cost.Ts)
    dlq = build_discrete_lq(plant, cost, method="expm")
    K = 6
    rng = np.random.default_rng(17)
    U = {k: rng.normal(size=2) for k in range(-r.m_bar, K)}

    # exact simulation of the original two-state plant
    x = np.zeros(2)
    A_c, B_c, Ts = np.asarray(plant.A_c), np.asarray(plant.B_c), cost.Ts
    truth = [x.copy()]
    for k in range(K):
        # both inputs switch inside the step: collect the breakpoints
        times = sorted({0.0, (1.0 - 0.6) * Ts, (1.0 - 0.7) * Ts, Ts})
        for s0, s1 in zip(times[:-1], times[1:]):
            u = np.array([
                U[k - 1 + (s0 >= (1.0 - 0.6) * Ts)][0],
                U[k - 2 + (s0 >= (1.0 - 0.7) * Ts)][1],
            ])
            Phi, J = _intexp(A_c, s1 - s0)
            x = Phi @ x + J @ B_c @ u
        truth.append(x.copy())

    xd = np.zeros(r.n_x)
    for k in range(K):
        u_lift = np.concatenate([U[k - r.m_bar + p]
                                 for p in range(r.m_bar + 1)])
        xd = dlq.A @ xd + dlq.B_o @ u_lift
        # the discrete state is the plant's own
        assert max_abs(xd - truth[k + 1]) < 1e-12
