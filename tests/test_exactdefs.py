"""Tests for the assembled generators and the quadrature oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lqdisc import (SCHEME_NAMES, discretize_core, exactdefs, fixedstep,
                    realize_plant, rww_expm, stepdouble, vanloan)
from lqdisc.benchcli import _gamma_identity_gap, random_system
from lqdisc.matcore import DomainError, expm, is_psd, max_abs, symmetrize
from lqdisc.model import (ContinuousStateSpace, CostSpec, DelayedTransferModel,
                          TransferChannel, realize_delays)
from lqdisc.exactdefs import (DeqSystem, b_alternative, build_deq,
                              oracle_quadrature)


def _scalar_sys(mu=0.2):
    plant = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                 G_c=[[1.0]])
    cost = CostSpec(Q_c=[[1.0]], mu=mu, Ts=1.0, N=4, zbar=[[1.0]])
    return build_deq(plant, cost)


def _integrator_sys(q_c=2.0):
    plant = ContinuousStateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    cost = CostSpec(Q_c=[[q_c]], mu=0.0, Ts=1.0, N=4, zbar=[[0.0]])
    return build_deq(plant, cost)


def _ie(a):
    """(1 - e^-a)/a, the first exponential moment."""
    return -math.expm1(-a) / a


def test_oracle_integrator_hand_integrals():
    """For dx = u, z = x the weights integrate to polynomials in t."""
    q_c = 2.0
    sys = _integrator_sys(q_c)
    got = oracle_quadrature(sys, panels=64)
    assert max_abs(got.A - [[1.0]]) < 1e-14
    assert max_abs(got.B_o - [[1.0]]) < 1e-14
    want_q = q_c * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    want_m = -q_c * np.array([[1.0], [0.5]])
    assert max_abs(got.Q - want_q) < 1e-14
    assert max_abs(got.M - want_m) < 1e-14


def test_oracle_scalar_discounted_closed_forms():
    """dx = -x + u with discount mu has elementary moment integrals."""
    mu = 0.2
    sys = _scalar_sys(mu)
    got = oracle_quadrature(sys, panels=2048)
    want_q = np.array([
        [_ie(mu + 2.0), _ie(mu + 1.0) - _ie(mu + 2.0)],
        [_ie(mu + 1.0) - _ie(mu + 2.0),
         _ie(mu) - 2.0 * _ie(mu + 1.0) + _ie(mu + 2.0)],
    ])
    want_m = -np.array([[_ie(mu + 1.0)], [_ie(mu) - _ie(mu + 1.0)]])
    assert max_abs(got.A - [[math.exp(-1.0)]]) < 1e-13
    assert max_abs(got.B_o - [[-math.expm1(-1.0)]]) < 1e-13
    assert max_abs(got.Q - want_q) < 1e-13
    assert max_abs(got.M - want_m) < 1e-13
    # R_ww = (1 - e^-2)/2 for unit diffusion
    assert got.R_ww[0, 0] == pytest.approx(-math.expm1(-2.0) / 2.0, abs=1e-13)


def _mixed_state_space():
    """A two-state plant whose inputs have different fractional delays,
    (0.4, 1.7) Ts, with a feedthrough and a diffusion matrix."""
    plant = ContinuousStateSpace([[-1.0, 0.4], [0.0, -2.0]],
                                 [[1.0, 0.0], [0.5, 1.0]], [[1.0, 0.0]],
                                 [[0.0, 0.2]], G_c=[[0.3], [0.1]],
                                 delays=(0.2, 0.85))
    return plant, CostSpec(Q_c=[[1.0]], mu=0.3, Ts=0.5, N=1, zbar=[[1.0]])


def test_gamma_identity_and_structure(mimo_model, mimo_realization,
                                      mimo_deq):
    """The paper's three-block transition, formed by the validation from
    the realization (one state copy per distinct fractional part), splits
    into its three exponentials, keeps [0 I] in its bottom rows and at Ts
    maps to the product of the span transitions: on mimo_delayed.json and
    on a state-space plant whose inputs have different fractional parts.
    A wrong switch time in the spans shows in the gap."""
    plant, cost = _mixed_state_space()
    real = realize_delays(plant, cost.Ts)
    mixed = build_deq(real, cost)
    for r, sys in ((mimo_realization, mimo_deq), (real, mixed)):
        split, bottom, product = _gamma_identity_gap(r, sys)
        assert split < 1e-12
        # bottom rows stay [0 I]: held inputs are constant over the step
        assert bottom < 1e-13
        assert product < 1e-12
    late = dataclasses.replace(real, col_v=real.col_v + [0.0, 0.05])
    assert max(_gamma_identity_gap(late, mixed)) > 1e-3


def test_discount_shift_factors(mimo_deq):
    """G_p - mu/2 I and G_p - mu I shift every span's transition by
    e^{-mu t/2} and e^{-mu t}, and so do the exact seed's omega_q and
    omega_m."""
    sys = mimo_deq
    eye = np.eye(sys.n_xu)
    for t in (0.25, 0.7, 1.0):
        gam = expm(sys.G_p * t)
        gamma_q = expm((sys.G_p - sys.mu / 2.0 * eye) * t)
        gamma_m = expm((sys.G_p - sys.mu * eye) * t)
        assert max_abs(gamma_q - math.exp(-sys.mu * t / 2.0) * gam) < 1e-12
        assert max_abs(gamma_m - math.exp(-sys.mu * t) * gam) < 1e-12
        seed = vanloan.exact_seed(sys, t)
        assert max_abs(seed.omega_q - gamma_q) < 1e-12
        assert max_abs(seed.omega_m - gamma_m) < 1e-12


def test_build_deq_rejects_a_realization_at_another_ts():
    plant = ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                                 delays=(0.5,))
    cost = CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=1, zbar=[[0.0]])
    with pytest.raises(DomainError, match="Ts=0.5.*Ts=1.0"):
        build_deq(realize_delays(plant, 0.5), cost)


def _same_system(a: DeqSystem, b: DeqSystem) -> bool:
    """Every field of two DeqSystems carries the same bits."""
    for f in dataclasses.fields(DeqSystem):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.shape == y.shape and x.tobytes() == y.tobytes()):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("plant,cost", [
    (ContinuousStateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]],
                          delays=(0.6,)),
     CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=1, zbar=[[0.0]])),
    (ContinuousStateSpace([[-1.0, 0.4], [0.0, -2.0]],
                          [[1.0, 0.0], [0.5, 1.0]], [[1.0, 0.0]],
                          [[0.0, 0.2]], G_c=[[0.3], [0.1]],
                          delays=(0.3, 1.0)),
     CostSpec(Q_c=[[1.0]], mu=1.0, Ts=0.5, N=1, zbar=[[1.0]])),
    (DelayedTransferModel((TransferChannel(1, 1, (1.0,), (2.0, 1.0), 1.5),)),
     CostSpec(Q_c=[[2.0]], mu=0.2, Ts=1.0, N=1, zbar=[[0.0]])),
], ids=["fractional", "mixed", "transfer"])
def test_build_deq_realizes_a_delayed_plant(plant, cost):
    """A delayed plant goes through realize_delays at cost.Ts inside
    build_deq: the same system, bit for bit, as realizing it first."""
    assert _same_system(build_deq(plant, cost),
                        build_deq(realize_delays(plant, cost.Ts), cost))


def test_compose_carries_the_earlier_input_integral_forward():
    """dx = -x + u held at 1 over 0.3 Ts, then at 2 over 0.7 Ts: x(Ts) from
    x(0) = 0 is e^{-0.7} (1 - e^{-0.3}) + 2 (1 - e^{-0.7}). Spans with
    different inputs compose "a then b", like the transitions."""
    cost = CostSpec(Q_c=[[1.0]], mu=0.2, Ts=1.0, N=1, zbar=[[0.0]])
    a, b = (vanloan.exact_seed(build_deq(ContinuousStateSpace(
        [[-1.0]], [[gain]], [[1.0]], [[0.0]]), cost), h)
        for gain, h in ((1.0, 0.3), (2.0, 0.7)))
    want = math.exp(-0.7) * -math.expm1(-0.3) - 2.0 * math.expm1(-0.7)
    (A, B), _ = exactdefs.compose(a, b).T[0]       # [[A, B], [0, 1]]
    assert B == pytest.approx(want, rel=1e-15)
    assert A == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_oracle_self_convergence_is_fourth_order(mimo_deq):
    ref = oracle_quadrature(mimo_deq, panels=8192)
    errs = []
    for panels in (128, 256):
        got = oracle_quadrature(mimo_deq, panels=panels)
        errs.append(max(max_abs(got.Q - ref.Q), max_abs(got.M - ref.M)))
    order = math.log2(errs[0] / errs[1])
    assert 3.7 < order < 4.3


def _long_delay(m_bar):
    """The long_delay benchmark plant's form: a stable 4-state, 2-input
    state-space plant with diffusion and delays (m_bar - 0.3, 0.6) Ts."""
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4))
    A -= (max(np.linalg.eigvals(A).real) + 0.5) * np.eye(4)
    plant = ContinuousStateSpace(
        A, rng.normal(size=(4, 2)), rng.normal(size=(2, 4)), np.zeros((2, 2)),
        G_c=0.5 * rng.normal(size=(4, 4)), delays=(m_bar - 0.3, 0.6))
    return plant, CostSpec(Q_c=[[1.0, 0.0], [0.0, 2.0]], mu=0.2, Ts=1.0,
                           N=1, zbar=[[0.0, 0.0]])


@pytest.mark.parametrize("m_bar", [1, 9, 21, 41])
def test_long_delays_keep_the_span_stack_narrow(m_bar):
    """Each delayed input feeds two slots, u_{k-m} and u_{k-m+1}, so the
    spans are 4 states and 4 slots wide at every m_bar. Every method's
    B_o columns and Q and M rows of the other slots are exact zeros."""
    sys = build_deq(*_long_delay(m_bar))
    assert sys.n_xu == 8
    assert sys.n_in == 2 * (m_bar + 1)
    # input 1 (m = m_bar) in slots 0 and 2, input 2 (m = 1) in the last two
    assert np.array_equal(sys.slots, sorted({0, 2, 2 * m_bar - 1,
                                             2 * m_bar + 1}))
    dropped = np.setdiff1d(np.arange(sys.n_in), sys.slots)
    rows = sys.n_x + dropped
    tb = fixedstep.named_tableau("rk4")
    for core in (vanloan.discretize_expm(sys),
                 fixedstep.discretize_fixed(sys, tb, 64),
                 stepdouble.discretize_step_doubling(sys, tb, 6),
                 oracle_quadrature(sys, panels=64)):
        assert core.B_o.shape == (4, sys.n_in)
        assert core.Q.shape == (4 + sys.n_in,) * 2
        assert core.M.shape == (4 + sys.n_in, 2)
        assert not core.B_o[:, dropped].any(), core.method
        assert not core.Q[rows].any() and not core.Q[:, rows].any()
        assert not core.M[rows].any(), core.method
        assert core.B_o[:, sys.slots].all(), core.method


def test_oracle_rejects_odd_panels(mimo_deq):
    with pytest.raises(DomainError):
        oracle_quadrature(mimo_deq, panels=63)
    with pytest.raises(DomainError):
        oracle_quadrature(mimo_deq, panels=0)


def _first(sys: DeqSystem, t: float) -> DeqSystem:
    """`sys` over [0, t] only: the spans that start before t, the last one
    cut at t."""
    starts = sys.Ts * np.append(0.0, sys.span_ends[:-1])
    k = int(np.count_nonzero(starts < t))
    ends = np.append(sys.Ts * sys.span_ends[:k - 1], t) / t
    return dataclasses.replace(sys, Ts=t, span_ends=ends, G_p=sys.G_p[:k],
                               Qbar_p=sys.Qbar_p[:k], Mbar_p=sys.Mbar_p[:k])


def test_oracle_weight_grows_monotonically(mimo_deq):
    """Q(t2) - Q(t1) is PSD for t2 > t1: the integrand is PSD."""
    prev = np.zeros((mimo_deq.n_xu, mimo_deq.n_xu))
    for t in (0.25, 0.5, 0.6, 0.75, 1.0):
        cur = oracle_quadrature(_first(mimo_deq, t), panels=512).Q
        assert is_psd(cur - prev)
        prev = cur


def test_b_alternative_matches_integral():
    got = b_alternative(np.array([[-1.0]]), np.array([[1.0]]), 1.0, 256)
    assert abs(got[0, 0] - (-math.expm1(-1.0))) < 1e-11


def test_b_alternative_rejects_empty_grid():
    with pytest.raises(DomainError):
        b_alternative(np.eye(1), np.eye(1), 1.0, 0)


def test_deq_dimensions(mimo_deq, scalar_deq):
    assert mimo_deq.n_x == 6
    assert mimo_deq.n_in == 6
    assert mimo_deq.n_xu == 12
    assert mimo_deq.n_h == 36
    assert np.array_equal(mimo_deq.slots, np.arange(6))
    # delays 0.1, 1.6 and 0.9 Ts switch at 0.1, 0.6 and 0.9 Ts; 2 Ts does not
    assert max_abs(mimo_deq.span_ends - [0.1, 0.6, 0.9, 1.0]) <= 1e-15
    assert mimo_deq.G_p.shape == (4, 12, 12)
    assert mimo_deq.Qbar_p.shape == (4, 12, 12)
    assert mimo_deq.Mbar_p.shape == (4, 12, 2)
    assert scalar_deq.n_h == scalar_deq.n_xu == 2
    # a fractional delay on a static gain alone splits the spans but no
    # B^(p): the lifted generator keeps its single block
    gain = DelayedTransferModel((
        TransferChannel(1, 1, (1.0,), (1.0, 1.0), 0.0),
        TransferChannel(1, 2, (2.0,), (1.0,), 0.5)))
    sys = build_deq(gain, CostSpec(Q_c=[[1.0]], mu=0.0, Ts=1.0, N=1,
                                   zbar=[[0.0]]))
    assert len(sys.span_ends) == 2
    assert sys.n_h == sys.n_x + sys.n_in == 1 + 4
    # plain plants have one span
    assert np.array_equal(scalar_deq.span_ends, [1.0])
    assert np.array_equal(scalar_deq.G_p, [[[-1.0, 1.0], [0.0, 0.0]]])


def _spans_by_hand(real, sys):
    """Each span's [[A_c, B^(p)], [0, 0]] and [C_c, D^(p)] over all lifted
    slots, from the realization's paths one by one: the slot of u_{k-m},
    and the next one from the switch time (1 - v) Ts on."""
    n_x, n_u, n_in = real.n_x, real.n_u, real.n_slots
    out = []
    for start in np.append(0.0, sys.span_ends[:-1]):
        def slot(j, m, v):
            late = v > 0 and start >= 1.0 - v
            return (real.m_bar - m + late) * n_u + j
        G = np.zeros((n_x + n_in, n_x + n_in))
        G[:n_x, :n_x] = real.A_c
        for b, j, m, v in zip(real.B_c.T, real.col_input, real.col_m,
                              real.col_v):
            G[:n_x, n_x + slot(j, m, v)] += b
        CD = np.hstack([real.C_c, np.zeros((real.n_z, n_in))])
        for (i, j), d in np.ndenumerate(real.D_c):
            CD[i, n_x + slot(j, real.m[i, j], real.v[i, j])] += d
        out.append((G, CD))
    return out


def test_generators_equal_their_block_assembly(mimo_model, mimo_realization,
                                               mimo_deq, scalar_model,
                                               scalar_deq):
    """Each span's generator and output map carry the bits of the lifted
    ones assembled path by path, on the slots the spans use; no span
    uses any other slot."""
    mixed = _mixed_state_space()
    real = realize_delays(mixed[0], mixed[1].Ts)
    for r, sys, cost in (
            (realize_plant(scalar_model[0], 1.0), scalar_deq, scalar_model[1]),
            (mimo_realization, mimo_deq, mimo_model[1]),
            (real, build_deq(real, mixed[1]), mixed[1])):
        keep = np.append(np.arange(sys.n_x), sys.n_x + sys.slots)
        for p, (G, CD) in enumerate(_spans_by_hand(r, sys)):
            assert not np.delete(G, keep, axis=1).any()
            assert not np.delete(CD, keep, axis=1).any()
            assert sys.G_p[p].tobytes() == G[np.ix_(keep, keep)].tobytes(), p
            assert np.array_equal(sys.Mbar_p[p], -CD[:, keep].T @ cost.Q_c)
    # inputs 1 and 2 of the mixed plant: u_{k-1} then u_k, u_{k-2} then
    # u_{k-1}: four of the six slots
    assert np.array_equal(build_deq(real, mixed[1]).slots, [1, 2, 3, 4])


def _whole_sample_plants():
    """The integer-kind systems among the first 27 of seed 0, a transfer
    plant with integer delays and a state-space one with delays (1, 2) Ts
    and a diffusion matrix."""
    rng = np.random.default_rng(0)
    out = []
    for i in range(27):
        plant, cost, kind = random_system(rng, i)
        if kind == "integer":
            out.append(pytest.param(plant, cost, id=f"sweep{i}"))
    channels = ((1, 1, (1.0,), (4.5, 4.5, 1.0), 1.0),
                (1, 2, (-4.0, -2.0), (3.4, 1.0), 2.0),
                (2, 1, (-0.5,), (2.3, 1.0), 0.0),
                (2, 2, (2.4,), (1.53, 2.6, 1.0), 1.0))
    out.append(pytest.param(
        DelayedTransferModel(tuple(TransferChannel(*ch) for ch in channels)),
        CostSpec(Q_c=np.eye(2), mu=0.2, Ts=1.0, N=1, zbar=[[1.0, 0.5]]),
        id="transfer"))
    out.append(pytest.param(
        ContinuousStateSpace([[-1.0, 0.4], [0.0, -2.0]],
                             [[1.0, 0.0], [0.5, 1.0]], [[1.0, 0.0]],
                             [[0.0, 0.2]], G_c=[[0.3], [0.1]],
                             delays=(0.5, 1.0)),
        CostSpec(Q_c=[[1.0]], mu=1.0, Ts=0.5, N=1, zbar=[[1.0]]),
        id="state_space"))
    return out


@pytest.mark.parametrize("plant,cost", _whole_sample_plants())
def test_whole_sample_delays_take_the_single_block(plant, cost):
    """A delay of whole samples only moves its input to an older slot: one
    span, whose generator [[A_c, B^(0)], [0, 0]] and output map [C_c, D^(0)]
    are those assembled path by path over the lifted input, on the slots
    the paths use, one per path. Every method's transition is that lifted
    generator's, and B_o is zero on every other slot."""
    real = realize_delays(plant, cost.Ts)
    sys = build_deq(real, cost)
    assert sys.n_h == sys.n_x + sys.n_in
    assert np.array_equal(sys.span_ends, [1.0])
    used = np.unique(np.append((real.m_bar - real.col_m) * real.n_u
                               + real.col_input,
                               (real.m_bar - real.m) * real.n_u
                               + np.arange(real.n_u)))
    assert np.array_equal(sys.slots, used)
    n_x = sys.n_x
    keep = np.append(np.arange(n_x), n_x + used)
    [(G, CD)] = _spans_by_hand(real, sys)
    assert np.array_equal(sys.G_p[0], G[np.ix_(keep, keep)])
    assert np.array_equal(sys.Mbar_p[0], -CD[:, keep].T @ cost.Q_c)
    full = expm(G * cost.Ts)
    tb = fixedstep.named_tableau("rk4")
    for got, tol in ((fixedstep.discretize_fixed(sys, tb, 256), 1e-10),
                     (stepdouble.discretize_step_doubling(sys, tb, 8), 1e-10),
                     (vanloan.discretize_expm(sys), 1e-13)):
        for q, want in (("A", full[:n_x, :n_x]), ("B_o", full[:n_x, n_x:])):
            scale = max_abs(want)
            assert max_abs(getattr(got, q) - want) <= tol * scale, q


def _random_deq(seed, n_x, n_u, kind, mu, diffusion):
    """A random stable plant (no, fractional or integer delays) and cost."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n_x, n_x))
    A -= (max(np.linalg.eigvals(A).real) + rng.uniform(0.3, 1.0)) * np.eye(n_x)
    delays = {"none": None,
              "fractional": tuple(rng.uniform(0.1, 1.9, size=n_u)),
              "integer": tuple(float(d) for d in rng.integers(0, 3, size=n_u)),
              }[kind]
    plant = ContinuousStateSpace(
        A, rng.normal(size=(n_x, n_u)), rng.normal(size=(1, n_x)),
        rng.normal(size=(1, n_u)),
        G_c=rng.normal(size=(n_x, 1)) if diffusion else None, delays=delays)
    cost = CostSpec(Q_c=[[1.5]], mu=mu, Ts=1.0, N=1, zbar=[[0.0]])
    if delays is not None:
        plant = realize_delays(plant, cost.Ts)
    return build_deq(plant, cost)


def _node_by_node_simpson(sys, panels):
    """Composite Simpson on every span with every node exponential taken
    on its own, each node's transition the span's times those of the
    spans before."""
    n_x = sys.n_x
    R = None if sys.G_c is None else np.zeros((n_x, n_x))
    Q = np.zeros((sys.n_xu, sys.n_xu))
    M = np.zeros((sys.n_xu, sys.n_z))
    Phi, t0 = np.eye(sys.n_xu), 0.0
    for G, Qbar, Mbar, h_p in zip(sys.G_p, sys.Qbar_p, sys.Mbar_p, sys.h_p):
        h = h_p / panels
        for k in range(panels + 1):
            s = k * h
            w = (h / 3.0) * (1 if k in (0, panels) else 4 if k % 2 else 2)
            T = expm(G * s) @ Phi
            Q += w * math.exp(-sys.mu * (t0 + s)) * T.T @ Qbar @ T
            M += w * math.exp(-sys.mu * (t0 + s)) * T.T @ Mbar
            if R is not None:
                XA = T[:n_x, :n_x]
                R += w * XA @ sys.G_c @ sys.G_c.T @ XA.T
        Phi, t0 = T, t0 + h_p
    # scattered into the lifted input
    rows = np.append(np.arange(n_x), n_x + sys.slots)
    Q_l = np.zeros((n_x + sys.n_in,) * 2)
    Q_l[np.ix_(rows, rows)] = symmetrize(Q)
    M_l = np.zeros((n_x + sys.n_in, sys.n_z))
    M_l[rows] = M
    return dict(A=Phi[:n_x, :n_x], B_o=sys.lifted(Phi[:n_x, n_x:]), Q=Q_l,
                M=M_l, R_ww=None if R is None else symmetrize(R))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(1, 3),
       n_u=st.integers(1, 2),
       kind=st.sampled_from(("none", "fractional", "integer")),
       mu=st.sampled_from((0.0, 0.2, 1.0)), diffusion=st.booleans(),
       panels=st.integers(1, 150).map(lambda p: 2 * p))
# node counts around the 64-node chunk: 63, 65, 127 and 129
@example(seed=1, n_x=2, n_u=2, kind="fractional", mu=0.2, diffusion=True,
         panels=62)
@example(seed=2, n_x=3, n_u=1, kind="integer", mu=1.0, diffusion=False,
         panels=64)
@example(seed=3, n_x=1, n_u=2, kind="none", mu=0.0, diffusion=True,
         panels=126)
@example(seed=4, n_x=2, n_u=1, kind="fractional", mu=0.0, diffusion=False,
         panels=128)
# ... and around the 4096-node block of chunk bases: 4095, 4097 and 4223
@example(seed=5, n_x=1, n_u=1, kind="fractional", mu=0.2, diffusion=True,
         panels=4094)
@example(seed=6, n_x=2, n_u=1, kind="none", mu=1.0, diffusion=True,
         panels=4096)
@example(seed=7, n_x=1, n_u=1, kind="integer", mu=0.0, diffusion=False,
         panels=4222)
# ... and two whole blocks, whose last node sits on the third block base
@example(seed=8, n_x=1, n_u=1, kind="fractional", mu=0.2, diffusion=True,
         panels=8192)
def test_chunked_oracle_matches_node_by_node_simpson(seed, n_x, n_u, kind, mu,
                                                     diffusion, panels):
    sys = _random_deq(seed, n_x, n_u, kind, mu, diffusion)
    got = oracle_quadrature(sys, panels=panels)
    want = _node_by_node_simpson(sys, panels)
    assert (got.R_ww is None) == (want["R_ww"] is None)
    for q, ref in want.items():
        if ref is not None:
            gap = max_abs(getattr(got, q) - ref)
            assert gap <= 1e-12 * max(max_abs(ref), 1.0), (q, gap)


def test_oracle_memory_does_not_grow_with_panels(mimo_deq):
    """The oracle holds stacks of C = 64 matrices per span, never one per
    node or per chunk: at 65536 panels on mimo_delayed (four spans of
    n_xu = 12) it peaks below 12 MB."""
    tracemalloc.start()
    try:
        oracle_quadrature(mimo_deq, panels=65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


def _rk4_loop(A_c, B_c, Ts, N):
    h = Ts / N
    B = np.zeros_like(B_c)
    for _ in range(N):
        k1 = A_c @ B + B_c
        k2 = A_c @ (B + 0.5 * h * k1) + B_c
        k3 = A_c @ (B + 0.5 * h * k2) + B_c
        k4 = A_c @ (B + h * k3) + B_c
        B = B + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return B


# one chunk of 64 steps, two levels up to 4096 steps, three beyond
@pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 2048, 4095, 4096, 4097,
                               8257])
def test_b_alternative_equals_stepwise_rk4(N):
    rng = np.random.default_rng(N)
    for n_x in (1, 3, 6):
        A = rng.normal(size=(n_x, n_x)) - 1.5 * np.eye(n_x)
        B_c = rng.normal(size=(n_x, 2))
        want = _rk4_loop(A, B_c, 1.3, N)
        gap = max_abs(b_alternative(A, B_c, 1.3, N) - want)
        assert gap <= 1e-12 * max(max_abs(want), 1.0), (n_x, gap)


def test_references_stay_independent_of_the_methods(monkeypatch, mimo_deq,
                                                    scalar_deq):
    """The oracle and b_alternative reach none of the methods' code: one
    stacked node exponential for the oracle, no exponential for
    b_alternative."""
    def forbidden(*args, **kwargs):
        raise AssertionError("reference reached a discretization method")

    for module, name in ((exactdefs, "compose"), (exactdefs, "power"),
                         (vanloan, "exact_seed"),
                         (fixedstep, "build_coefficients"),
                         (fixedstep, "integrate")):
        monkeypatch.setattr(module, name, forbidden)
    calls = []

    def counted(X):
        calls.append(X.shape)
        return expm(X)

    monkeypatch.setattr(exactdefs, "expm", counted)
    for sys in (mimo_deq, scalar_deq):
        calls.clear()
        oracle_quadrature(sys, panels=256)
        assert calls == [sys.G_p.shape]
        calls.clear()
        b_alternative(sys.A_c, sys.B_1c, sys.Ts, 2048)
        assert calls == []


@pytest.mark.parametrize("size", [1e-3, 0.5])
def test_powers_match_repeated_products(size):
    """The stack P^i - I (i < 64) and P^64 - I from `_powers` match plain
    repeated products of P = I + D to a few ulps per power, for P near I
    and for P far from it."""
    rng = np.random.default_rng(2)
    D = rng.normal(size=(5, 5))
    D *= size / np.linalg.norm(D, 2)
    stack, last = exactdefs._powers(D)
    assert stack.shape == (exactdefs._CHUNK, 5, 5)
    eye = np.eye(5)
    P, Pi = eye + D, eye.copy()
    ulp = np.finfo(float).eps
    for i in range(exactdefs._CHUNK + 1):
        got = stack[i] if i < exactdefs._CHUNK else last
        # repeated products of P carry an error of an ulp of 1 per power
        assert max_abs(got - (Pi - eye)) <= 2 * max(i, 1) * ulp * \
            max(max_abs(Pi), 1.0), i
        Pi = Pi @ P
    assert not stack[0].any()
    # a shorter stack is the same stack, cut: P^C - I is not formed
    short, none = exactdefs._powers(D, 17)
    assert np.array_equal(short, stack[:17]) and none is None


@pytest.mark.parametrize("m,k,n", [(64, 64, 288), (64, 64, 4),
                                   (5, 3, 7), (3, 300, 1000)])
def test_slab_matmul_keeps_every_product_on_one_thread(monkeypatch, m, k, n):
    """Every product `_slab_matmul` issues has m k n <= 2^18 (or a single
    row, where one row is larger), and the slabs give the plain product."""
    rng = np.random.default_rng(m + k + n)
    a = rng.normal(size=(3, k, m)).swapaxes(1, 2)   # a transposed operand
    b = rng.normal(size=(3, k, n))
    sizes = []
    matmul = np.matmul

    def counted(x, y, **kwargs):
        sizes.append((x.shape[-2], x.shape[-1], y.shape[-1]))
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    got = exactdefs._slab_matmul(a, b)
    monkeypatch.undo()
    assert sum(rows for rows, _, _ in sizes) == m
    for rows, kk, nn in sizes:
        assert (kk, nn) == (k, n)
        assert rows * kk * nn <= 2 ** 18 or rows == 1
    assert np.allclose(got, a @ b, rtol=1e-14, atol=1e-13)


def test_oracle_builds_only_the_chunk_bases_it_needs(monkeypatch, mimo_deq):
    """1024 panels are 1025 nodes, 17 chunks of 64: the oracle builds 17
    chunk bases, not 64; 4096 panels need all 64 and the block step."""
    counts = []
    powers = exactdefs._powers

    def counted(D, count=exactdefs._CHUNK):
        counts.append(count)
        return powers(D, count)

    monkeypatch.setattr(exactdefs, "_powers", counted)
    for panels, want in ((1024, [64, 17]), (4096, [64, 64])):
        counts.clear()
        oracle_quadrature(mimo_deq, panels=panels)
        assert counts == want, panels


def _noisy_systems():
    """scalar.json's plant and the seed-0 sweep systems 0-26 with a G_c."""
    out = [pytest.param("scalar", None, id="scalar")]
    rng = np.random.default_rng(0)
    for i in range(27):
        plant, cost, _ = random_system(rng, i)
        if plant.G_c is not None:
            out.append(pytest.param(plant, cost, id=f"sweep{i}"))
    return out


@pytest.mark.parametrize("plant,cost", _noisy_systems())
def test_every_method_and_scheme_takes_r_ww_from_rww_expm(scalar_deq, plant,
                                                          cost):
    """R_ww depends on the plant alone: expm, and fixed and doubling with
    every bundled scheme, give the bits of one rww_expm over Ts."""
    sys = scalar_deq if plant == "scalar" else build_deq(
        realize_plant(plant, cost.Ts), cost)
    want = rww_expm(sys.A_c, sys.G_c, sys.Ts)
    runs = [discretize_core(sys, "expm")] + [
        discretize_core(sys, method, scheme=scheme, steps=16)
        for method in ("fixed", "doubling") for scheme in SCHEME_NAMES]
    for core in runs:
        assert np.array_equal(core.R_ww, want), (core.method, core.scheme)
