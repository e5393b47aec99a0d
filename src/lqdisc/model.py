"""Continuous-time model and cost ingestion.

Accepts either a state-space plant (optionally with per-input delays) or a
MIMO transfer-function model with per-channel delays, plus the cost
specification, and realizes the delayed system into the stacked block
structure used by the discretization pipeline: block-diagonal A_c, split
input matrices B_1c/B_2c over (m_bar+1) input slots, the fractional-delay
scaling V, and the shift/injector blocks of the augmented system.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .matcore import DomainError, Mat, asmat, is_psd, is_symmetric, max_abs

# |tau/Ts - round(tau/Ts)| below this counts as an integer delay (v = 0).
INTEGER_DELAY_TOL = 1e-12
# Two fractional parts closer than this share one state block.
UNIFORM_V_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model or cost input; `path` names the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True, eq=False)
class ContinuousStateSpace:
    """Plant dx = A_c x + B_c u, z = C_c x + D_c u, optional diffusion G_c.

    `delays` optionally gives one input delay per column of B_c; None means
    an undelayed plant.
    """

    A_c: Mat
    B_c: Mat
    C_c: Mat
    D_c: Mat
    G_c: Mat | None = None
    delays: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "A_c", asmat(self.A_c))
        object.__setattr__(self, "B_c", asmat(self.B_c))
        object.__setattr__(self, "C_c", asmat(self.C_c))
        object.__setattr__(self, "D_c", asmat(self.D_c))
        n_x = self.A_c.shape[0]
        if self.A_c.shape != (n_x, n_x):
            raise ModelError("state_space.A_c", "must be square")
        for name, m, shape in (
            ("B_c", self.B_c, (n_x, self.B_c.shape[1])),
            ("C_c", self.C_c, (self.C_c.shape[0], n_x)),
            ("D_c", self.D_c, (self.C_c.shape[0], self.B_c.shape[1])),
        ):
            if m.shape != shape:
                raise ModelError(f"state_space.{name}", f"expected {shape}, got {m.shape}")
        if self.G_c is not None:
            g = asmat(self.G_c)
            if g.shape[0] != n_x:
                raise ModelError("state_space.G_c", f"expected {n_x} rows, got {g.shape[0]}")
            object.__setattr__(self, "G_c", g)
        for name in ("A_c", "B_c", "C_c", "D_c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ModelError(f"state_space.{name}", "non-finite entries")
        if self.delays is not None:
            d = tuple(float(t) for t in self.delays)
            if len(d) != self.n_u:
                raise ModelError("state_space.delays",
                                 f"expected {self.n_u} entries, got {len(d)}")
            if any(t < 0 for t in d):
                raise ModelError("state_space.delays", "delays must be >= 0")
            object.__setattr__(self, "delays", d)

    @property
    def n_x(self):
        return self.A_c.shape[0]

    @property
    def n_u(self):
        return self.B_c.shape[1]

    @property
    def n_z(self):
        return self.C_c.shape[0]


@dataclass(frozen=True)
class TransferChannel:
    """One proper rational channel num(s)/den(s) with input delay tau.

    Coefficients are in descending powers of s; the denominator is
    normalized monic on construction.
    """

    i: int
    j: int
    num: tuple[float, ...]
    den: tuple[float, ...]
    tau: float

    def __post_init__(self):
        path = f"channel({self.i},{self.j})"
        num = np.trim_zeros(np.asarray(self.num, dtype=float), "f")
        den = np.trim_zeros(np.asarray(self.den, dtype=float), "f")
        if den.size == 0:
            raise ModelError(path, "denominator is zero")
        if num.size > den.size:
            raise ModelError(path, "improper channel (deg num > deg den)")
        if self.tau < 0:
            raise ModelError(path, "delay must be >= 0")
        num = num / den[0]
        den = den / den[0]
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True)
class DelayedTransferModel:
    """n_z x n_u grid of TransferChannels, one per (i, j), indices 1-based."""

    channels: tuple[TransferChannel, ...]

    def __post_init__(self):
        seen = {}
        for ch in self.channels:
            if (ch.i, ch.j) in seen:
                raise ModelError(f"channel({ch.i},{ch.j})", "duplicate channel")
            seen[(ch.i, ch.j)] = ch
        n_z = max(ch.i for ch in self.channels)
        n_u = max(ch.j for ch in self.channels)
        for i in range(1, n_z + 1):
            for j in range(1, n_u + 1):
                if (i, j) not in seen:
                    raise ModelError(f"channel({i},{j})", "missing channel")

    @property
    def n_z(self):
        return max(ch.i for ch in self.channels)

    @property
    def n_u(self):
        return max(ch.j for ch in self.channels)

    def channel(self, i, j) -> TransferChannel:
        for ch in self.channels:
            if ch.i == i and ch.j == j:
                return ch
        raise KeyError((i, j))


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Discounted quadratic cost: weight Q_c, discount mu, sampling Ts,
    horizon N stages, output references zbar (held last when short)."""

    Q_c: Mat
    mu: float
    Ts: float
    N: int
    zbar: Mat
    x0: Mat | None = None
    P0: Mat | None = None

    def __post_init__(self):
        q = asmat(self.Q_c)
        if q.shape[0] != q.shape[1]:
            raise ModelError("cost.Qc", "must be square")
        if not is_symmetric(q):
            raise ModelError("cost.Qc", "must be symmetric")
        if not is_psd(q):
            raise ModelError("cost.Qc", "must be positive semidefinite")
        object.__setattr__(self, "Q_c", q)
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ModelError("cost.mu", f"discount must be finite and >= 0, "
                                        f"got {self.mu}")
        if not (math.isfinite(self.Ts) and self.Ts > 0):
            raise ModelError("cost.Ts", f"sampling time must be finite and "
                                        f"> 0, got {self.Ts}")
        if not float(self.N).is_integer():
            raise ModelError("cost.N", f"horizon must be an integer, "
                                       f"got {self.N}")
        if self.N < 1:
            raise ModelError("cost.N", "horizon must be >= 1")
        zbar = np.atleast_2d(np.asarray(self.zbar, dtype=float))
        if zbar.shape[1] != q.shape[0]:
            raise ModelError("cost.zbar",
                             f"rows must have length n_z={q.shape[0]}, got {zbar.shape[1]}")
        if zbar.shape[0] < 1:
            raise ModelError("cost.zbar", "at least one reference row required")
        object.__setattr__(self, "zbar", zbar)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "Ts", float(self.Ts))
        object.__setattr__(self, "N", int(self.N))
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))
        if self.P0 is not None:
            p = asmat(self.P0)
            if not (is_symmetric(p) and is_psd(p)):
                raise ModelError("cost.P0", "must be symmetric positive semidefinite")
            object.__setattr__(self, "P0", p)

    @classmethod
    def from_weight_root(cls, W_z, **kw):
        """Build with Q_c = W_z' W_z."""
        w = asmat(W_z)
        return cls(Q_c=w.T @ w, **kw)

    @property
    def n_z(self):
        return self.Q_c.shape[0]

    def zbar_at(self, k: int) -> Mat:
        """Reference at stage k (last row held beyond the supplied rows)."""
        idx = min(k, self.zbar.shape[0] - 1)
        return self.zbar[idx]


@dataclass(frozen=True)
class ChannelRealization:
    """SISO realization of one delayed channel, for verification."""

    i: int
    j: int
    A: Mat
    B: Mat
    C: Mat
    D: float
    tau: float
    m: int
    v: float


@dataclass(frozen=True, eq=False)
class DelayRealization:
    """Stacked realization of a delayed plant over (m_bar+1) input slots.

    The lifted input is u_tilde_k = [u_{k-m_bar}; ...; u_{k-1}; u_k]; slot p
    (1-based) holds u_{k-(m_bar+1)+p}. B_1c carries the coefficient slot of
    u_{k-m_ij}, B_2c the slot of u_{k-m_ij+1}, and V holds the fractional
    parts v_ij per state block.
    """

    A_c: Mat
    B_1c: Mat
    B_2c: Mat
    V: Mat
    C_c: Mat
    D_o: Mat
    m_bar: int
    n_u: int
    m: Mat
    v: Mat
    Ts: float
    G_c: Mat | None = None
    channels: tuple[ChannelRealization, ...] = field(default=())

    @property
    def n_x(self):
        return self.A_c.shape[0]

    @property
    def n_z(self):
        return self.C_c.shape[0]

    @property
    def n_slots(self):
        return (self.m_bar + 1) * self.n_u

    @property
    def B_2c_bar(self) -> Mat:
        """V (B_2c - B_1c), the effective fractional-crossing input matrix."""
        return self.V @ (self.B_2c - self.B_1c)

    @property
    def I_A(self) -> Mat:
        """Shift block: drops u_{k-m_bar} from the held-input window."""
        n = self.m_bar * self.n_u
        out = np.zeros((n, n))
        if self.m_bar > 1:
            out[: n - self.n_u, self.n_u:] = np.eye(n - self.n_u)
        return out

    @property
    def I_B(self) -> Mat:
        """Injector: appends u_k at the end of the held-input window."""
        out = np.zeros((self.m_bar * self.n_u, self.n_u))
        if self.m_bar > 0:
            out[-self.n_u:, :] = np.eye(self.n_u)
        return out


def slot_selector(p: int, m_bar: int, n_u: int) -> Mat:
    """Matrix mapping an n_u vector into slot p (1-based) of the lifted input."""
    if not 1 <= p <= m_bar + 1:
        raise DomainError(f"slot {p} outside 1..{m_bar + 1}")
    out = np.zeros(((m_bar + 1) * n_u, n_u))
    out[(p - 1) * n_u: p * n_u, :] = np.eye(n_u)
    return out


def split_delay(tau: float, Ts: float) -> tuple[int, float]:
    """Split tau/Ts = m - v with integer m >= 0 and 0 <= v < 1.

    Ratios within 1e-12 of an integer are treated as exact (v = 0);
    otherwise m = ceil(tau/Ts).
    """
    if tau < 0:
        raise DomainError(f"negative delay {tau}")
    if Ts <= 0:
        raise DomainError(f"sampling time must be > 0, got {Ts}")
    ratio = tau / Ts
    nearest = round(ratio)
    if abs(ratio - nearest) <= INTEGER_DELAY_TOL:
        return int(nearest), 0.0
    m = math.ceil(ratio)
    return m, float(m - ratio)


def realize_channel(num, den) -> tuple[Mat, Mat, Mat, float]:
    """Observable-canonical realization of a proper rational channel.

    Parameters
    ----------
    num, den : sequence of float
        Polynomial coefficients in descending powers of s.

    Returns
    -------
    (A, B, C, D) with A n-by-n for n = deg den; n = 0 gives empty A, B, C
    and the constant gain in D.
    """
    num = np.trim_zeros(np.asarray(num, dtype=float), "f")
    den = np.trim_zeros(np.asarray(den, dtype=float), "f")
    if den.size == 0:
        raise ModelError("channel", "denominator is zero")
    if num.size > den.size:
        raise ModelError("channel", "improper channel (deg num > deg den)")
    num = num / den[0]
    den = den / den[0]
    n = den.size - 1
    num_full = np.concatenate([np.zeros(den.size - num.size), num])
    D = num_full[0]
    beta = num_full[1:] - D * den[1:]  # strictly proper remainder
    alpha = den[1:]
    # observable canonical: -alpha down the first column, identity superdiagonal
    A = np.zeros((n, n))
    C = np.zeros((1, n))
    if n > 0:
        A[:-1, 1:] += np.eye(n - 1)
        A[:, 0] = -alpha
        C[0, 0] = 1.0
    return A, beta.reshape(n, 1), C, float(D)


def channel_response(num, den, s: complex) -> complex:
    """Evaluate num(s)/den(s)."""
    return complex(np.polyval(np.asarray(num, float), s)
                   / np.polyval(np.asarray(den, float), s))


def ss_response(A: Mat, B: Mat, C: Mat, D, s: complex):
    """Transfer function C (sI - A)^-1 B + D at one frequency point."""
    A = asmat(A)
    n = A.shape[0]
    if n == 0:
        return np.atleast_2d(np.asarray(D, dtype=complex))
    X = np.linalg.solve(s * np.eye(n) - A, np.asarray(B, dtype=complex))
    return np.asarray(C, dtype=complex) @ X + np.asarray(D, dtype=complex)


def _realize_transfer(model: DelayedTransferModel, Ts: float) -> DelayRealization:
    n_z, n_u = model.n_z, model.n_u
    recs = []
    # stacking order: input index outer, output index inner, so each
    # input's channel blocks sit together and share one delay column
    for j in range(1, n_u + 1):
        for i in range(1, n_z + 1):
            ch = model.channel(i, j)
            A, B, C, D = realize_channel(ch.num, ch.den)
            m, v = split_delay(ch.tau, Ts)
            recs.append(ChannelRealization(i, j, A, B, C, D, ch.tau, m, v))
    m_bar = max(r.m for r in recs)
    n_x = sum(r.A.shape[0] for r in recs)
    n_slots = (m_bar + 1) * n_u
    A_c = np.zeros((n_x, n_x))
    V = np.zeros((n_x, n_x))
    B_1c = np.zeros((n_x, n_slots))
    B_2c = np.zeros((n_x, n_slots))
    C_c = np.zeros((n_z, n_x))
    D_o = np.zeros((n_z, n_slots))
    m_grid = np.zeros((n_z, n_u), dtype=int)
    v_grid = np.zeros((n_z, n_u))
    row = 0
    for r in recs:
        n = r.A.shape[0]
        sl = slice(row, row + n)
        A_c[sl, sl] = r.A
        V[sl, sl] = r.v * np.eye(n)
        col1 = (m_bar - r.m) * n_u + (r.j - 1)                       # slot m_bar+1-m
        col2 = (m_bar - r.m + 1) * n_u + (r.j - 1) if r.m > 0 else col1
        B_1c[sl, col1] = r.B[:, 0]
        B_2c[sl, col2] = r.B[:, 0]
        C_c[r.i - 1, sl] = r.C[0, :]
        D_o[r.i - 1, col1] += r.D
        m_grid[r.i - 1, r.j - 1] = r.m
        v_grid[r.i - 1, r.j - 1] = r.v
        row += n
    return DelayRealization(A_c=A_c, B_1c=B_1c, B_2c=B_2c, V=V, C_c=C_c,
                            D_o=D_o, m_bar=m_bar, n_u=n_u, m=m_grid, v=v_grid,
                            Ts=Ts, G_c=None, channels=tuple(recs))


def _realize_state_space(ss: ContinuousStateSpace, Ts: float) -> DelayRealization:
    delays = ss.delays if ss.delays is not None else (0.0,) * ss.n_u
    splits = [split_delay(t, Ts) for t in delays]
    ms = [m for m, _ in splits]
    vs = [v for _, v in splits]
    m_bar = max(ms)
    n_u, n_z = ss.n_u, ss.n_z
    n_slots = (m_bar + 1) * n_u
    uniform = max(vs) - min(vs) <= UNIFORM_V_TOL
    if uniform:
        blocks = [(None, ss.B_c, vs[0])]  # one shared block, all inputs
        n_x = ss.n_x
    else:
        # one replica of the plant per input so each block has a scalar v
        blocks = []
        for j in range(n_u):
            bj = np.zeros((ss.n_x, n_u))
            bj[:, j] = ss.B_c[:, j]
            blocks.append((j, bj, vs[j]))
        n_x = ss.n_x * n_u
    A_c = np.zeros((n_x, n_x))
    V = np.zeros((n_x, n_x))
    B_1c = np.zeros((n_x, n_slots))
    B_2c = np.zeros((n_x, n_slots))
    C_c = np.zeros((n_z, n_x))
    G_c = None
    if ss.G_c is not None:
        G_c = np.zeros((n_x, ss.G_c.shape[1]))
        G_c[: ss.n_x, :] = ss.G_c  # noise enters the first block only
    D_o = np.zeros((n_z, n_slots))
    for bi, (jsel, bj, v) in enumerate(blocks):
        sl = slice(bi * ss.n_x, (bi + 1) * ss.n_x)
        A_c[sl, sl] = ss.A_c
        V[sl, sl] = v * np.eye(ss.n_x)
        C_c[:, sl] = ss.C_c
        cols = range(n_u) if jsel is None else [jsel]
        for j in cols:
            m = ms[j]
            col1 = (m_bar - m) * n_u + j
            col2 = (m_bar - m + 1) * n_u + j if m > 0 else col1
            B_1c[sl, col1] = bj[:, j]
            B_2c[sl, col2] = bj[:, j]
    for j in range(n_u):
        col1 = (m_bar - ms[j]) * n_u + j
        D_o[:, col1] = ss.D_c[:, j]
    m_grid = np.tile(np.asarray(ms, dtype=int), (n_z, 1))
    v_grid = np.tile(np.asarray(vs, dtype=float), (n_z, 1))
    return DelayRealization(A_c=A_c, B_1c=B_1c, B_2c=B_2c, V=V, C_c=C_c,
                            D_o=D_o, m_bar=m_bar, n_u=n_u, m=m_grid, v=v_grid,
                            Ts=Ts, G_c=G_c, channels=())


def realize_delays(model, Ts: float) -> DelayRealization:
    """Realize a delayed model into the stacked slot structure.

    Transfer models are realized channel-by-channel in observable canonical
    form and stacked block-diagonally (input index outer). State-space models
    with uniform fractional parts keep one state block; non-uniform fractional
    parts replicate the plant per input so each block has a scalar v.
    """
    if Ts <= 0:
        raise DomainError(f"sampling time must be > 0, got {Ts}")
    if isinstance(model, DelayedTransferModel):
        return _realize_transfer(model, Ts)
    if isinstance(model, ContinuousStateSpace):
        return _realize_state_space(model, Ts)
    raise ModelError("model", f"cannot realize {type(model).__name__}")


# ---------------------------------------------------------------------------
# model-file parsing

_TOP_KEYS = {"model", "cost"}
_MODEL_KEYS = {"state_space", "transfer"}
_SS_KEYS = {"A_c", "B_c", "C_c", "D_c", "G_c", "delays"}
_TF_KEYS = {"channels"}
_CH_KEYS = {"i", "j", "num", "den", "tau"}
_COST_KEYS = {"Qc", "Wz", "mu", "Ts", "N", "zbar", "x0", "P0"}


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ModelError(f"{path}.{key}", "missing required key")
    return d[key]


def _reject_unknown(d: dict, allowed: set, path: str):
    for key in d:
        if key not in allowed:
            raise ModelError(f"{path}.{key}", "unknown key")


def _matrix(value, path: str) -> Mat:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(path, f"not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise ModelError(path, f"expected a nested (row-major) array, got ndim={arr.ndim}")
    return arr


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(path, "expected a number")
    return float(value)


def parse_model(doc: dict):
    """Parse a model-file dict into (plant, CostSpec). Unknown keys rejected."""
    if not isinstance(doc, dict):
        raise ModelError("$", "top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "$")
    model_doc = _require(doc, "model", "$")
    cost_doc = _require(doc, "cost", "$")
    _reject_unknown(model_doc, _MODEL_KEYS, "model")
    if ("state_space" in model_doc) == ("transfer" in model_doc):
        raise ModelError("model", "exactly one of state_space/transfer required")

    if "state_space" in model_doc:
        ssd = model_doc["state_space"]
        _reject_unknown(ssd, _SS_KEYS, "model.state_space")
        kwargs = {}
        for key in ("A_c", "B_c", "C_c", "D_c"):
            kwargs[key] = _matrix(_require(ssd, key, "model.state_space"),
                                  f"model.state_space.{key}")
        if "G_c" in ssd:
            kwargs["G_c"] = _matrix(ssd["G_c"], "model.state_space.G_c")
        if "delays" in ssd:
            if not isinstance(ssd["delays"], list):
                raise ModelError("model.state_space.delays", "expected a list")
            kwargs["delays"] = tuple(
                _number(t, f"model.state_space.delays[{k}]")
                for k, t in enumerate(ssd["delays"]))
        plant = ContinuousStateSpace(**kwargs)
    else:
        tfd = model_doc["transfer"]
        _reject_unknown(tfd, _TF_KEYS, "model.transfer")
        chs = _require(tfd, "channels", "model.transfer")
        if not isinstance(chs, list) or not chs:
            raise ModelError("model.transfer.channels", "expected a non-empty list")
        channels = []
        for k, chd in enumerate(chs):
            path = f"model.transfer.channels[{k}]"
            _reject_unknown(chd, _CH_KEYS, path)
            channels.append(TransferChannel(
                i=int(_number(_require(chd, "i", path), f"{path}.i")),
                j=int(_number(_require(chd, "j", path), f"{path}.j")),
                num=tuple(_require(chd, "num", path)),
                den=tuple(_require(chd, "den", path)),
                tau=_number(_require(chd, "tau", path), f"{path}.tau"),
            ))
        plant = DelayedTransferModel(tuple(channels))

    _reject_unknown(cost_doc, _COST_KEYS, "cost")
    if ("Qc" in cost_doc) == ("Wz" in cost_doc):
        raise ModelError("cost", "exactly one of Qc/Wz required")
    kw = dict(
        mu=_number(_require(cost_doc, "mu", "cost"), "cost.mu"),
        Ts=_number(_require(cost_doc, "Ts", "cost"), "cost.Ts"),
        N=_number(_require(cost_doc, "N", "cost"), "cost.N"),
        zbar=_matrix(_require(cost_doc, "zbar", "cost"), "cost.zbar"),
    )
    if "x0" in cost_doc:
        kw["x0"] = np.asarray(cost_doc["x0"], dtype=float)
    if "P0" in cost_doc:
        kw["P0"] = _matrix(cost_doc["P0"], "cost.P0")
    if "Qc" in cost_doc:
        cost = CostSpec(Q_c=_matrix(cost_doc["Qc"], "cost.Qc"), **kw)
    else:
        cost = CostSpec.from_weight_root(_matrix(cost_doc["Wz"], "cost.Wz"), **kw)
    return plant, cost


def load_model(path):
    """Load and parse a JSON model file; returns (plant, CostSpec)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError("$", f"invalid JSON: {exc}") from None
    return parse_model(doc)
