"""Tests for model parsing, delay splitting, and plant realization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lqdisc.matcore import DomainError, max_abs
from lqdisc.model import (MAX_DELAY_SAMPLES, MAX_STAGES, ContinuousStateSpace,
                          CostSpec, DelayedTransferModel, ModelError,
                          TransferChannel, load_model, parse_model,
                          realize_channel, realize_delays, split_delay)

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
    # a delay or sampling time that is negative, zero (Ts), NaN or infinite,
    # and a ratio that overflows: none may end in round()'s or ceil()'s error
    # or in a silent (0, 0.0)
    for tau, Ts in ((-0.1, 1.0), (1.0, 0.0), (math.inf, 1.0),
                    (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
                    (1e300, 1e-300)):
        with pytest.raises(DomainError):
            split_delay(tau, Ts)
    plant = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                 delays=(0.5,))
    for Ts in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            realize_delays(plant, Ts)


def channel_response(num, den, s: complex) -> complex:
    """Evaluate num(s)/den(s)."""
    return complex(np.polyval(np.asarray(num, float), s)
                   / np.polyval(np.asarray(den, float), s))


def ss_response(A, B, C, D, s: complex):
    """Transfer function C (sI - A)^-1 B + D at one frequency point."""
    n = A.shape[0]
    if n == 0:
        return np.atleast_2d(np.asarray(D, dtype=complex))
    X = np.linalg.solve(s * np.eye(n) - A, np.asarray(B, dtype=complex))
    return np.asarray(C, dtype=complex) @ X + np.asarray(D, dtype=complex)


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


@pytest.mark.parametrize("num, den, path, message", (
    ([math.nan], [1.0, 1.0], "channel.num", "non-finite coefficients"),
    ([1.0], [1.0, math.inf], "channel.den", "non-finite coefficients"),
    ([[1.0]], [1.0, 1.0], "channel.num", "expected a list of numbers")))
def test_realize_channel_checks_its_coefficients(num, den, path, message):
    with pytest.raises(ModelError) as exc:
        realize_channel(num, den)
    assert (exc.value.path, exc.value.message) == (path, message)


def test_leading_zero_coefficients_are_trimmed():
    ch = TransferChannel(1, 1, (0.0, 0.0, 2.0), (0.0, 2.0, 4.0), tau=0.0)
    assert ch.num == (1.0,) and ch.den == (1.0, 2.0)
    assert TransferChannel(1, 1, (0.0, 0.0), (1.0, 1.0), tau=0.0).num == ()
    padded = realize_channel((0.0, 2.0, 1.0), (0.0, 0.0, 1.0, 4.0, 5.0))
    for got, want in zip(padded, realize_channel((2.0, 1.0), (1.0, 4.0, 5.0))):
        assert np.array_equal(got, want)
    with pytest.raises(ModelError, match="denominator is zero"):
        TransferChannel(1, 1, (1.0,), (0.0, 0.0), tau=0.0)
    with pytest.raises(ModelError, match="denominator is zero"):
        realize_channel((1.0,), (0.0,))


def test_transfer_channel_validation():
    ch = TransferChannel(1, 1, (2.0,), (2.0, 4.0), tau=0.0)
    assert ch.den == (1.0, 2.0)  # normalized monic
    assert ch.num == (1.0,)
    with pytest.raises(ModelError, match="improper"):
        TransferChannel(1, 1, (1.0, 0.0, 0.0), (2.0, 1.0), tau=0.0)
    with pytest.raises(ModelError, match="delay"):
        TransferChannel(1, 1, (1.0,), (1.0, 1.0), tau=-0.5)
    # a non-integral index, a non-finite or non-numeric value: named by field
    for field, kw in (("num", dict(num=(math.nan,))),
                      ("den", dict(den=(1.0, math.nan))),
                      ("num", dict(num="1.0")),
                      ("i", dict(i=1.5)),
                      ("j", dict(j=0)),
                      ("tau", dict(tau=math.nan)),
                      ("tau", dict(tau=math.inf))):
        args = dict(i=1, j=2, num=(1.0,), den=(1.0, 1.0), tau=0.0)
        args.update(kw)
        with pytest.raises(ModelError) as exc:
            TransferChannel(**args)
        assert exc.value.path == f"channel({args['i']:g},{args['j']:g}).{field}"


def _mimo_channels():
    return tuple(TransferChannel(i, j, num, den, tau)
                 for (i, j, num, den), tau in
                 zip(MIMO_CHANNELS, (0.1, 1.6, 2.0, 0.9)))


def test_transfer_model_requires_full_grid():
    chans = _mimo_channels()
    for match, bad in (("duplicate", chans + (chans[0],)),
                       ("missing", chans[:3]),
                       ("at least one", ())):
        with pytest.raises(ModelError, match=match):
            DelayedTransferModel(bad)


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
    """One input column per channel, input index outer, in the rows of the
    channel's block: b is the channel's B, with its input and its delay.
    Each gain D_ij sits in D_o's slot of u_{k-m_ij}."""
    r = mimo_realization
    channels = sorted(zip(MIMO_CHANNELS, (0.1, 1.6, 2.0, 0.9)),
                      key=lambda ch: (ch[0][1], ch[0][0]))
    assert r.B_c.shape == (r.n_x, len(channels))
    want_d = np.zeros_like(r.D_o)
    row = 0
    for col, ((i, j, num, den), tau) in enumerate(channels):
        A, B, _, D = realize_channel(num, den)
        rows = np.arange(row, row + A.shape[0])
        m, v = split_delay(tau, 1.0)
        assert (r.col_input[col], r.col_m[col], r.col_v[col]) == (j - 1, m, v)
        assert np.array_equal(r.A_c[np.ix_(rows, rows)], A)
        assert np.array_equal(r.B_c[rows, col], B[:, 0])
        assert not np.delete(r.B_c[:, col], rows).any()
        want_d[i - 1, (r.m_bar - m) * r.n_u + j - 1] += D
        row += A.shape[0]
    assert row == r.n_x
    # the one biproper channel (1,2) contributes its static gain
    assert want_d[0, 1] == pytest.approx(-4.0 / 3.4)
    assert max_abs(r.D_o - want_d) < 1e-15


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
    plant = _delayed_ss((0.5, 1.5))
    r = realize_delays(plant, Ts=1.0)
    assert r.A_c is plant.A_c and r.B_c is plant.B_c
    assert r.m_bar == 2
    assert np.array_equal(r.col_input, [0, 1])
    assert np.array_equal(r.col_m, [1, 2])
    assert np.array_equal(r.col_v, [0.5, 0.5])
    # input 2 has m = 2: its gain sits in the slot of u_{k-2}, column 1
    assert r.D_o[0, 1] == pytest.approx(0.2)


def test_state_space_distinct_fractions_keep_the_physical_state():
    """Inputs with different fractional parts drive the one plant: one
    input column per input, each with its own delay."""
    plant = _delayed_ss((0.3, 0.6))
    r = realize_delays(plant, Ts=1.0)
    assert r.n_x == 2
    assert r.m_bar == 1
    assert r.n_slots == 4
    for name in ("A_c", "B_c", "C_c", "D_c", "G_c"):
        assert getattr(r, name) is getattr(plant, name), name
    assert np.array_equal(r.col_m, [1, 1])
    assert max_abs(r.col_v - [0.7, 0.4]) < 1e-15
    # the static gain rides the input-2 slot of u_{k-1}
    assert max_abs(r.D_o - [[0, 0.2, 0, 0]]) == 0.0


def _assert_realization(r, **want):
    for name, value in want.items():
        got = getattr(r, name)
        assert np.shape(got) == np.shape(value), name
        assert max_abs(np.asarray(got, dtype=float) - value) < 1e-15, name


def test_stacked_state_space_columns_by_hand():
    """Delays (0.4, 1.7) Ts: m = (1, 2), v = (0.6, 0.3) on the plant's own
    two states, slots of u_{k-2}, u_{k-1} and u_k two columns each."""
    r = realize_delays(_delayed_ss((0.2, 0.85)), Ts=0.5)
    assert (r.m_bar, r.n_u, r.Ts) == (2, 2, 0.5)
    _assert_realization(
        r,
        A_c=[[-1.0, 0.4], [0.0, -2.0]],
        B_c=[[1.0, 0.0], [0.5, 1.0]],
        col_input=[0, 1], col_m=[1, 2], col_v=[0.6, 0.3],
        C_c=[[1.0, 0.0]],
        D_c=[[0.0, 0.2]],
        # input 2 (m = 2) reads column 1, the slot of u_{k-2}
        D_o=[[0, 0.2, 0, 0, 0, 0]],
        G_c=[[0.3], [0.1]],
        m=[[1, 2]], v=[[0.6, 0.3]])


def test_stacked_transfer_pure_gain_by_hand():
    """A 2x2 transfer plant whose channel (1,2) is a pure gain: no state
    block and no input column, but its D in the slot of u_{k-2}."""
    r = realize_delays(DelayedTransferModel((
        TransferChannel(1, 1, (1.0, 3.0), (1.0, 1.0), tau=0.5),
        TransferChannel(2, 1, (1.0,), (1.0, 2.0), tau=0.0),
        TransferChannel(1, 2, (3.0,), (1.0,), tau=2.0),
        TransferChannel(2, 2, (1.0,), (1.0, 4.0), tau=1.25))), Ts=1.0)
    assert (r.m_bar, r.n_u) == (2, 2)
    # states and columns: (1,1), (2,1), (2,2); (s+3)/(s+1) = 1 + 2/(s+1)
    _assert_realization(
        r,
        A_c=np.diag([-1.0, -2.0, -4.0]),
        B_c=np.diag([2.0, 1.0, 1.0]),
        col_input=[0, 0, 1], col_m=[1, 0, 2], col_v=[0.5, 0.0, 0.75],
        C_c=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
        D_c=[[1.0, 3.0], [0.0, 0.0]],
        D_o=[[0, 3.0, 1.0, 0, 0, 0], [0, 0, 0, 0, 0, 0]],
        m=[[1, 2], [0, 2]], v=[[0.5, 0.0], [0.0, 0.75]])
    assert r.G_c is None


def test_plants_without_inputs_or_outputs_realize():
    r = realize_delays(ContinuousStateSpace(
        [[-1.0]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0))), Ts=1.0)
    assert (r.m_bar, r.n_slots) == (0, 0)
    assert r.B_c.shape == (1, 0) and r.col_m.shape == (0,)
    assert r.D_o.shape == r.m.shape == (1, 0)
    r = realize_delays(ContinuousStateSpace(
        [[-1.0]], [[1.0, 2.0]], np.zeros((0, 1)), np.zeros((0, 2)),
        delays=(0.5, 1.0)), Ts=1.0)
    assert (r.m_bar, r.n_slots, r.n_x) == (1, 4, 1)
    assert r.C_c.shape == (0, 1) and r.D_o.shape == (0, 4)
    assert r.m.shape == r.v.shape == (0, 2)


def test_state_space_validation_paths():
    with pytest.raises(ModelError, match="state_space.delays"):
        ContinuousStateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]],
                             delays=(0.1, 0.2))
    with pytest.raises(ModelError, match="state_space.B_c"):
        ContinuousStateSpace([[0.0]], [[1.0], [2.0]], [[1.0]], [[0.0]])
    for field, kw in (("delays", dict(delays=(math.nan,))),
                      ("delays", dict(delays=(math.inf,))),
                      ("G_c", dict(G_c=[[math.inf]]))):
        with pytest.raises(ModelError) as exc:
            ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]], **kw)
        assert exc.value.path == f"state_space.{field}"


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
    ("cost.zbar", dict(zbar=[[1.0, math.nan]])),
])
def test_cost_spec_error_paths(field, kw):
    base = dict(Q_c=np.eye(2), mu=0.2, Ts=1.0, N=3, zbar=[[1.0, 0.5]])
    base.update(kw)
    with pytest.raises(ModelError) as exc:
        CostSpec(**base)
    assert exc.value.path == field


def test_horizon_and_delay_limits():
    """The longest horizon and delay are accepted, one step more is not."""
    base = dict(Q_c=np.eye(1), mu=0.2, Ts=0.5, zbar=[[1.0]])
    assert CostSpec(N=MAX_STAGES, **base).N == MAX_STAGES
    with pytest.raises(ModelError) as exc:
        CostSpec(N=MAX_STAGES + 1, **base)
    assert exc.value.path == "cost.N"
    assert split_delay(0.5 * MAX_DELAY_SAMPLES, 0.5) == (MAX_DELAY_SAMPLES,
                                                         0.0)
    with pytest.raises(DomainError, match="at most"):
        split_delay(0.5 * MAX_DELAY_SAMPLES + 1e-6, 0.5)
    doc = {"model": {"state_space": {
        "A_c": [[-1.0]], "B_c": [[1.0, 1.0]], "C_c": [[1.0]],
        "D_c": [[0.0, 0.0]], "delays": [0.0, 600.0]}},
        "cost": {"Qc": [[1.0]], "mu": 0.0, "Ts": 0.5, "N": 1,
                 "zbar": [[0.0]]}}
    with pytest.raises(ModelError) as exc:
        parse_model(doc)
    assert exc.value.path == "model.state_space.delays[1]"


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

    # x0 and P0 are not part of the cost: rejected like any unknown key
    for key, value in (("gamma", 1.0), ("x0", [0.0, 0.0]),
                       ("P0", [[1.0, 0.0], [0.0, 1.0]])):
        bad = _mimo_doc()
        bad["cost"][key] = value
        with pytest.raises(ModelError) as exc:
            parse_model(bad)
        assert exc.value.path == f"cost.{key}"

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

    # the cost weights as many outputs as the plant has
    bad = _mimo_doc()
    bad["cost"].update(Qc=[[1.0]], zbar=[[0.0]])
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.path == "cost.Qc"
    bad = _mimo_doc()
    del bad["cost"]["Qc"]
    bad["cost"].update(Wz=[[1.0, 0.0, 0.0]], zbar=[[0.0, 0.0, 0.0]])
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.path == "cost.Wz"
    bad = _mimo_doc()
    bad["model"] = {"state_space": {"A_c": [[-1.0]], "B_c": [[1.0]],
                                    "C_c": [[1.0], [2.0], [3.0]],
                                    "D_c": [[0.0], [0.0], [0.0]]}}
    with pytest.raises(ModelError) as exc:
        parse_model(bad)
    assert exc.value.path == "cost.Qc"

    # JSON that parses (NaN and Infinity literals included) but is not a
    # valid cost: no truncation, no silent non-finite value
    for key, value in (("N", 2.7), ("mu", math.nan), ("Ts", math.inf),
                       ("zbar", [[1.0, math.nan]])):
        bad = _mimo_doc()
        bad["cost"][key] = value
        with pytest.raises(ModelError) as exc:
            parse_model(json.loads(json.dumps(bad)))
        assert exc.value.path == f"cost.{key}"
    # a NaN weight fails as non-finite, not as asymmetric (NaN != NaN)
    for value in ([[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.inf],
                                                   [math.inf, 1.0]]):
        bad = _mimo_doc()
        bad["cost"]["Qc"] = value
        with pytest.raises(ModelError,
                           match="^cost.Qc: non-finite entries$"):
            parse_model(json.loads(json.dumps(bad)))

    # channel fields: no truncated index, no non-finite coefficient or
    # delay; named by their place in the model file
    for key, value, field in (
            ("i", 1.5, "model.transfer.channels[0].i"),
            ("j", 0, "model.transfer.channels[0].j"),
            ("num", [math.nan], "model.transfer.channels[0].num"),
            ("den", [4.5, math.nan, 1.0], "model.transfer.channels[0].den"),
            ("tau", math.nan, "model.transfer.channels[0].tau"),
            ("tau", math.inf, "model.transfer.channels[0].tau")):
        bad = _mimo_doc()
        bad["model"]["transfer"]["channels"][0][key] = value
        with pytest.raises(ModelError) as exc:
            parse_model(json.loads(json.dumps(bad)))
        assert exc.value.path == field


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

    for key, value, field in (("delays", [math.nan],
                               "model.state_space.delays"),
                              ("G_c", [[math.inf]], "model.state_space.G_c")):
        doc = json.loads((MODELS / "scalar.json").read_text())
        doc["model"]["state_space"][key] = value
        with pytest.raises(ModelError) as exc:
            parse_model(json.loads(json.dumps(doc)))
        assert exc.value.path == field


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelError) as exc:
        load_model(path)
    assert exc.value.path == "$"
