"""Tests for model parsing, delay splitting, and plant realization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lqdisc.matcore import DomainError, max_abs
from lqdisc.model import (ContinuousStateSpace, CostSpec, DelayedTransferModel,
                          ModelError, TransferChannel, channel_response,
                          load_model, parse_model, realize_channel,
                          realize_delays, slot_selector, split_delay,
                          ss_response)

MODELS = Path(__file__).resolve().parents[1] / "models"

S_POINTS = (0.3j, 1 + 0.7j, 2 - 1.3j, 0.05 + 2.2j)

# The bundled 2x2 example: (i, j, num, den) in descending powers of s.
MIMO_CHANNELS = (
    (1, 1, (1.0,), (4.5, 4.5, 1.0)),
    (1, 2, (-4.0, -2.0), (3.4, 1.0)),
    (2, 1, (-0.5,), (2.3, 1.0)),
    (2, 2, (2.4,), (1.53, 2.6, 1.0)),
)


def test_split_delay_fraction_and_count():
    assert split_delay(0.1, 1.0) == (1, pytest.approx(0.9))
    assert split_delay(1.6, 1.0) == (2, pytest.approx(0.4))
    assert split_delay(0.9, 1.0) == (1, pytest.approx(0.1))
    assert split_delay(2.0, 1.0) == (2, 0.0)
    assert split_delay(0.0, 1.0) == (0, 0.0)


def test_split_delay_snaps_near_integer():
    # a delay a few ulps above 2 Ts still counts as exactly 2 steps
    assert split_delay(2.0 + 4e-13, 1.0) == (2, 0.0)


def test_split_delay_domain_errors():
    with pytest.raises(DomainError):
        split_delay(-0.1, 1.0)
    with pytest.raises(DomainError):
        split_delay(1.0, 0.0)


def test_realize_channel_matches_frequency_response():
    cases = MIMO_CHANNELS + ((0, 0, (2.0, 1.0, 3.0), (1.0, 4.0, 5.0)),)
    for _, _, num, den in cases:
        A, B, C, D = realize_channel(num, den)
        for s in S_POINTS:
            want = channel_response(num, den, s)
            got = ss_response(A, B, C, D, s)[0, 0]
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_realize_channel_constant_gain():
    A, B, C, D = realize_channel((2.0,), (4.0,))
    assert A.shape == (0, 0)
    assert B.shape == (0, 1)
    assert C.shape == (1, 0)
    assert D == pytest.approx(0.5)


def test_realize_channel_rejects_improper():
    with pytest.raises(ModelError):
        realize_channel((1.0, 0.0, 0.0), (1.0, 1.0))


def test_transfer_channel_validation():
    ch = TransferChannel(1, 1, (2.0,), (2.0, 4.0), tau=0.0)
    assert ch.den == (1.0, 2.0)  # normalized monic
    assert ch.num == (1.0,)
    with pytest.raises(ModelError, match="improper"):
        TransferChannel(1, 1, (1.0, 0.0, 0.0), (2.0, 1.0), tau=0.0)
    with pytest.raises(ModelError, match="delay"):
        TransferChannel(1, 1, (1.0,), (1.0, 1.0), tau=-0.5)


def _mimo_channels():
    return tuple(TransferChannel(i, j, num, den, tau)
                 for (i, j, num, den), tau in
                 zip(MIMO_CHANNELS, (0.1, 1.6, 2.0, 0.9)))


def test_transfer_model_requires_full_grid():
    chans = _mimo_channels()
    with pytest.raises(ModelError, match="duplicate"):
        DelayedTransferModel(chans + (chans[0],))
    with pytest.raises(ModelError, match="missing"):
        DelayedTransferModel(chans[:3])


def test_mimo_realization_dimensions(mimo_realization):
    r = mimo_realization
    assert r.n_x == 6
    assert r.n_u == 2
    assert r.n_z == 2
    assert r.m_bar == 2
    assert r.n_slots == 6
    assert np.array_equal(r.m, [[1, 2], [2, 1]])
    assert max_abs(r.v - [[0.9, 0.4], [0.0, 0.1]]) < 1e-12
    assert r.G_c is None


def test_mimo_slot_placement(mimo_realization):
    """Each channel writes B into the slot holding u_{k-m} (and the next)."""
    r = mimo_realization
    want_d = np.zeros_like(r.D_o)
    row = 0
    for ch in r.channels:
        n = ch.A.shape[0]
        rows = slice(row, row + n)
        col1 = (r.m_bar - ch.m) * r.n_u + (ch.j - 1)
        col2 = col1 + r.n_u if ch.m > 0 else col1
        assert max_abs(r.B_1c[rows, col1:col1 + 1] - ch.B) < 1e-15
        assert max_abs(r.B_2c[rows, col2:col2 + 1] - ch.B) < 1e-15
        other1 = np.delete(r.B_1c[rows], col1, axis=1)
        other2 = np.delete(r.B_2c[rows], col2, axis=1)
        assert max_abs(other1) == 0.0
        assert max_abs(other2) == 0.0
        assert r.V[rows, rows].diagonal() == pytest.approx(ch.v)
        want_d[ch.i - 1, col1] += ch.D
        row += n
    assert row == r.n_x
    # the one biproper channel (1,2) contributes its static gain
    assert want_d[0, 1] == pytest.approx(-4.0 / 3.4)
    assert max_abs(r.D_o - want_d) < 1e-15


def test_slot_selector_places_identity():
    S = slot_selector(2, m_bar=2, n_u=2)
    assert S.shape == (6, 2)
    assert np.array_equal(S[2:4], np.eye(2))
    assert max_abs(np.delete(S, [2, 3], axis=0)) == 0.0
    with pytest.raises(DomainError):
        slot_selector(0, 2, 2)
    with pytest.raises(DomainError):
        slot_selector(4, 2, 2)


def test_held_window_shift(mimo_realization):
    """I_A drops the oldest held input, I_B appends the newest."""
    r = mimo_realization
    window = np.array([1.0, 2.0, 3.0, 4.0])  # [u_{k-2}; u_{k-1}]
    new = np.array([5.0, 6.0])
    shifted = r.I_A @ window + r.I_B @ new
    assert np.array_equal(shifted, [3.0, 4.0, 5.0, 6.0])


def _delayed_ss(delays):
    return ContinuousStateSpace(
        A_c=[[-1.0, 0.4], [0.0, -2.0]],
        B_c=[[1.0, 0.0], [0.5, 1.0]],
        C_c=[[1.0, 0.0]],
        D_c=[[0.0, 0.2]],
        G_c=[[0.3], [0.1]],
        delays=delays,
    )


def test_state_space_uniform_fraction_single_block():
    r = realize_delays(_delayed_ss((0.5, 1.5)), Ts=1.0)
    assert r.n_x == 2  # no replication when all v agree
    assert max_abs(r.V - 0.5 * np.eye(2)) < 1e-15
    assert r.m_bar == 2
    # columns: input 1 has m=1 -> slot col (2-1)*2+0 = 2; input 2 m=2 -> col 1
    assert max_abs(r.B_1c[:, 2] - [1.0, 0.5]) < 1e-15
    assert max_abs(r.B_1c[:, 1] - [0.0, 1.0]) < 1e-15
    assert max_abs(r.B_2c[:, 4] - [1.0, 0.5]) < 1e-15
    assert max_abs(r.B_2c[:, 3] - [0.0, 1.0]) < 1e-15
    assert r.D_o[0, 1] == pytest.approx(0.2)


def test_state_space_distinct_fractions_replicates():
    r = realize_delays(_delayed_ss((0.3, 0.6)), Ts=1.0)
    assert r.n_x == 4  # one copy of the plant per input
    assert r.m_bar == 1
    assert r.n_slots == 4
    assert max_abs(r.V - np.diag([0.7, 0.7, 0.4, 0.4])) < 1e-15
    # replica j only sees input j (both inputs have m=1, slots 0 and 1)
    want_b1 = np.zeros((4, 4))
    want_b1[0:2, 0] = [1.0, 0.5]
    want_b1[2:4, 1] = [0.0, 1.0]
    assert max_abs(r.B_1c - want_b1) < 1e-15
    want_b2 = np.zeros((4, 4))
    want_b2[0:2, 2] = [1.0, 0.5]
    want_b2[2:4, 3] = [0.0, 1.0]
    assert max_abs(r.B_2c - want_b2) < 1e-15
    # noise enters the first replica only, so its covariance is not doubled
    assert max_abs(r.G_c[0:2] - [[0.3], [0.1]]) < 1e-15
    assert max_abs(r.G_c[2:4]) == 0.0
    # outputs sum the replicas; the static gain rides the input-2 slot
    assert max_abs(r.C_c - [[1.0, 0.0, 1.0, 0.0]]) < 1e-15
    assert r.D_o[0, 1] == pytest.approx(0.2)


def test_state_space_validation_paths():
    with pytest.raises(ModelError, match="state_space.delays"):
        ContinuousStateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]],
                             delays=(0.1, 0.2))
    with pytest.raises(ModelError, match="state_space.B_c"):
        ContinuousStateSpace([[0.0]], [[1.0], [2.0]], [[1.0]], [[0.0]])


def test_cost_spec_reference_held_last():
    cost = CostSpec(Q_c=np.eye(2), mu=0.0, Ts=1.0, N=5,
                    zbar=[[1.0, 0.0], [0.5, 0.5]])
    assert np.array_equal(cost.zbar_at(0), [1.0, 0.0])
    assert np.array_equal(cost.zbar_at(1), [0.5, 0.5])
    assert np.array_equal(cost.zbar_at(4), [0.5, 0.5])


def test_cost_spec_from_weight_root():
    W = np.array([[1.0, 2.0], [0.0, 3.0]])
    cost = CostSpec.from_weight_root(W, mu=0.0, Ts=1.0, N=1, zbar=[[0.0, 0.0]])
    assert max_abs(cost.Q_c - W.T @ W) < 1e-15


@pytest.mark.parametrize("field,kw", [
    ("cost.Ts", dict(Ts=0.0)),
    ("cost.mu", dict(mu=-0.1)),
    ("cost.N", dict(N=0)),
    ("cost.zbar", dict(zbar=[[1.0]])),
    ("cost.N", dict(N=2.7)),
    ("cost.mu", dict(mu=math.nan)),
    ("cost.Ts", dict(Ts=math.inf)),
])
def test_cost_spec_error_paths(field, kw):
    base = dict(Q_c=np.eye(2), mu=0.2, Ts=1.0, N=3, zbar=[[1.0, 0.5]])
    base.update(kw)
    with pytest.raises(ModelError) as exc:
        CostSpec(**base)
    assert exc.value.path == field


def test_cost_spec_rejects_indefinite_weight():
    with pytest.raises(ModelError) as exc:
        CostSpec(Q_c=[[1.0, 2.0], [2.0, 1.0]], mu=0.0, Ts=1.0, N=1,
                 zbar=[[0.0, 0.0]])
    assert exc.value.path == "cost.Qc"


def _mimo_doc():
    return json.loads((MODELS / "mimo_delayed.json").read_text())


def test_parse_model_paths():
    doc = _mimo_doc()
    plant, cost = parse_model(doc)
    assert isinstance(plant, DelayedTransferModel)
    assert cost.N == 20

    bad = _mimo_doc()
    bad["cost"]["gamma"] = 1.0
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.path == "cost.gamma"

    bad = _mimo_doc()
    del bad["cost"]["Ts"]
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.path == "cost.Ts"

    bad = _mimo_doc()
    bad["model"]["state_space"] = {"A_c": [[0.0]], "B_c": [[1.0]],
                                   "C_c": [[1.0]], "D_c": [[0.0]]}
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.path == "model"

    bad = _mimo_doc()
    bad["cost"]["Wz"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.path == "cost"

    # JSON that parses (NaN and Infinity literals included) but is not a
    # valid cost: no truncation, no silent non-finite value
    for key, value in (("N", 2.7), ("mu", math.nan), ("Ts", math.inf)):
        bad = _mimo_doc()
        bad["cost"][key] = value
        with pytest.raises(ModelError) as exc:
            parse_model(json.loads(json.dumps(bad)))
        assert exc.value.path == f"cost.{key}"


def test_parse_model_state_space_form():
    doc = json.loads((MODELS / "scalar.json").read_text())
    plant, cost = parse_model(doc)
    assert isinstance(plant, ContinuousStateSpace)
    assert plant.A_c[0, 0] == -1.0
    assert cost.mu == pytest.approx(0.2)

    doc["model"]["state_space"]["A_c"] = [1.0]  # not a nested array
    with pytest.raises(ModelError) as exc:
        parse_model(doc)
    assert exc.value.path == "model.state_space.A_c"


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelError) as exc:
        load_model(path)
    assert exc.value.path == "$"
