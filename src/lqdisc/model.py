"""Continuous-time model and cost ingestion.

Accepts either a state-space plant (optionally with per-input delays) or a
MIMO transfer-function model with per-channel delays, plus the cost
specification, and realizes every plant, delayed or not, into the stacked
block structure used by the discretization pipeline: block-diagonal A_c,
split input matrices B_1c/B_2c over (m_bar+1) input slots, the
fractional-delay scaling V, and the shift/injector blocks of the augmented
system. An undelayed plant has m_bar = 0.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .matcore import DomainError, Mat, asmat, is_psd, is_symmetric

# |tau/Ts - round(tau/Ts)| below this counts as an integer delay (v = 0).
INTEGER_DELAY_TOL = 1e-12
# Two fractional parts closer than this share one state block.
UNIFORM_V_TOL = 1e-12
# The longest horizon: every stage stores t_k, e^{-mu t_k}, rho_k and the
# n_x + n_u entries of q_k, and both exports write a line or an array
# row per stage.
MAX_STAGES = 10 ** 6
# The longest input delay, in sampling periods. Each period of delay adds
# n_u held inputs to the lifted state, n_h = n_x + (m_bar + 1) n_u, and the
# methods work on dense blocks of that size.
MAX_DELAY_SAMPLES = 1000


class ModelError(ValueError):
    """Invalid model or cost input; `path` names the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@contextlib.contextmanager
def _named(label, path):
    """Report a ModelError raised inside the block, whose path starts with
    `label` (how an object names itself), under the model-file `path`."""
    try:
        yield
    except ModelError as exc:
        if not exc.path.startswith(label):
            raise
        raise ModelError(path + exc.path[len(label):], exc.message) from None


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
        for name in ("A_c", "B_c", "C_c", "D_c", "G_c"):
            m = getattr(self, name)
            if m is not None and not np.all(np.isfinite(m)):
                raise ModelError(f"state_space.{name}", "non-finite entries")
        if self.delays is not None:
            d = tuple(float(t) for t in self.delays)
            if len(d) != self.n_u:
                raise ModelError("state_space.delays",
                                 f"expected {self.n_u} entries, got {len(d)}")
            if not all(math.isfinite(t) and t >= 0 for t in d):
                raise ModelError("state_space.delays",
                                 "delays must be finite and >= 0")
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


def _coefficients(value, path: str) -> np.ndarray:
    """Finite polynomial coefficients as a float vector."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(path, "expected a list of numbers") from None
    if arr.ndim != 1:
        raise ModelError(path, "expected a list of numbers")
    if not np.all(np.isfinite(arr)):
        raise ModelError(path, "non-finite coefficients")
    return arr


def _trim_leading(c: np.ndarray) -> np.ndarray:
    """A coefficient vector without its leading zeros (empty if all zero)."""
    nonzero = np.flatnonzero(c)
    return c[nonzero[0]:] if nonzero.size else c[:0]


def _proper(num, den, path: str) -> tuple[np.ndarray, np.ndarray]:
    """A proper channel's coefficients, trimmed, over a monic denominator;
    errors name `path`.num, `path`.den or `path` (an improper channel)."""
    num = _trim_leading(_coefficients(num, f"{path}.num"))
    den = _trim_leading(_coefficients(den, f"{path}.den"))
    if den.size == 0:
        raise ModelError(f"{path}.den", "denominator is zero")
    if num.size > den.size:
        raise ModelError(path, "improper channel (deg num > deg den)")
    return num / den[0], den / den[0]


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
        path = self._label(self.i, self.j)
        for name in ("i", "j"):
            index = getattr(self, name)
            if not (float(index).is_integer() and index >= 1):
                raise ModelError(f"{path}.{name}", "index must be an integer >= 1")
            object.__setattr__(self, name, int(index))
        num, den = _proper(self.num, self.den, path)
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ModelError(f"{path}.tau", "delay must be finite and >= 0")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))
        object.__setattr__(self, "tau", float(self.tau))

    @staticmethod
    def _label(i, j) -> str:
        """How a channel names itself in its errors: channel(i,j)."""
        return f"channel({i:g},{j:g})"


@dataclass(frozen=True)
class DelayedTransferModel:
    """n_z x n_u grid of TransferChannels, one per (i, j), indices 1-based.

    Errors name the entry of `channels` at fault (channels[k]), or
    `channels` for a channel that is missing.
    """

    channels: tuple[TransferChannel, ...]

    def __post_init__(self):
        if not self.channels:
            raise ModelError("channels", "at least one channel required")
        seen = {}
        for k, ch in enumerate(self.channels):
            if (ch.i, ch.j) in seen:
                raise ModelError(f"channels[{k}]",
                                 f"duplicate channel ({ch.i}, {ch.j})")
            seen[(ch.i, ch.j)] = ch
        n_z = max(ch.i for ch in self.channels)
        n_u = max(ch.j for ch in self.channels)
        for i in range(1, n_z + 1):
            for j in range(1, n_u + 1):
                if (i, j) not in seen:
                    raise ModelError("channels", f"missing channel ({i}, {j})")

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

    def __post_init__(self):
        q = asmat(self.Q_c)
        if q.shape[0] != q.shape[1]:
            raise ModelError("cost.Qc", "must be square")
        if not np.all(np.isfinite(q)):
            raise ModelError("cost.Qc", "non-finite entries")
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
        if self.N > MAX_STAGES:
            raise ModelError("cost.N", f"horizon must be at most "
                                       f"{MAX_STAGES} stages, got {self.N:g}")
        zbar = np.atleast_2d(np.asarray(self.zbar, dtype=float))
        if zbar.shape[1] != q.shape[0]:
            raise ModelError("cost.zbar",
                             f"rows must have length n_z={q.shape[0]}, got {zbar.shape[1]}")
        if zbar.shape[0] < 1:
            raise ModelError("cost.zbar", "at least one reference row required")
        if not np.all(np.isfinite(zbar)):
            raise ModelError("cost.zbar", "non-finite entries")
        object.__setattr__(self, "zbar", zbar)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "Ts", float(self.Ts))
        object.__setattr__(self, "N", int(self.N))

    @classmethod
    def from_weight_root(cls, W_z, **kw):
        """Build with Q_c = W_z' W_z."""
        w = asmat(W_z)
        return cls(Q_c=w.T @ w, **kw)

    @property
    def n_z(self):
        return self.Q_c.shape[0]

    def zbar_at(self, k) -> Mat:
        """Reference at stage k, or one row per stage for an array of k
        (last row held beyond the supplied rows)."""
        return self.zbar[np.minimum(k, self.zbar.shape[0] - 1)]


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
    """Stacked realization of a plant over (m_bar+1) input slots.

    The lifted input is u_tilde_k = [u_{k-m_bar}; ...; u_{k-1}; u_k]; slot p
    (1-based) holds u_{k-(m_bar+1)+p}. B_1c carries the coefficient slot of
    u_{k-m_ij}, B_2c the slot of u_{k-m_ij+1}, and V holds the fractional
    parts v_ij per state block. V = 0 when every delay is a whole number of
    samples (none at all included: m_bar = 0).
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


def split_delay(tau: float, Ts: float) -> tuple[int, float]:
    """Split tau/Ts = m - v with integer m >= 0 and 0 <= v < 1.

    Ratios within 1e-12 of an integer are treated as exact (v = 0);
    otherwise m = ceil(tau/Ts). A ratio above MAX_DELAY_SAMPLES is a
    DomainError.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise DomainError(f"delay must be finite and >= 0, got {tau}")
    if not (math.isfinite(Ts) and Ts > 0):
        raise DomainError(f"sampling time must be finite and > 0, got {Ts}")
    ratio = tau / Ts
    if not ratio <= MAX_DELAY_SAMPLES:
        raise DomainError(f"delay {tau} is {ratio:g} sampling periods of "
                          f"{Ts}; at most {MAX_DELAY_SAMPLES} are supported")
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
    and the constant gain in D. Raises ModelError as TransferChannel does,
    naming channel.num, channel.den or channel.
    """
    num, den = _proper(num, den, "channel")
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


def _stack(blocks, D: Mat, m: Mat, v: Mat, Ts: float, G_c: Mat | None = None,
           channels: tuple[ChannelRealization, ...] = ()) -> DelayRealization:
    """Stack state blocks block-diagonally over the (m_bar+1) input slots.

    Each block is (A, B, C, inputs, delays, v_b): its dynamics, its input
    columns B for the given 0-based inputs with their whole-sample delays,
    its n_z-row output matrix and its fractional part. Column j of B enters
    B_1c at the slot of u_{k-m} and B_2c at the next one (the same slot when
    m = 0). D, m and v are the n_z x n_u feedthrough, whole and fractional
    delay grids; D_ij enters D_o at the slot of u_{k-m_ij}. G_c drives the
    first rows.
    """
    n_z, n_u = D.shape
    m_bar = max(max(delays, default=0) for *_, delays, _ in blocks)
    n_x = sum(A.shape[0] for A, *_ in blocks)
    n_slots = (m_bar + 1) * n_u
    A_c = np.zeros((n_x, n_x))
    B_1c = np.zeros((n_x, n_slots))
    B_2c = np.zeros((n_x, n_slots))
    C_c = np.zeros((n_z, n_x))
    v_x = []                                  # the diagonal of V
    row = 0
    for A, B, C, inputs, delays, v_b in blocks:
        n = A.shape[0]
        sl = slice(row, row + n)
        A_c[sl, sl] = A
        v_x += [v_b] * n
        C_c[:, sl] = C
        for b, j, m_j in zip(B.T, inputs, delays):
            col1 = (m_bar - m_j) * n_u + j            # slot m_bar+1-m
            B_1c[sl, col1] = b
            B_2c[sl, col1 + n_u if m_j > 0 else col1] = b
        row += n
    D_o = np.zeros((n_z, n_slots))
    D_o[np.arange(n_z)[:, None], (m_bar - m) * n_u + np.arange(n_u)] = D
    if G_c is not None:
        G_c = np.concatenate([G_c, np.zeros((n_x - len(G_c), G_c.shape[1]))])
    return DelayRealization(A_c=A_c, B_1c=B_1c, B_2c=B_2c, V=np.diag(v_x),
                            C_c=C_c, D_o=D_o, m_bar=m_bar, n_u=n_u, m=m, v=v,
                            Ts=Ts, G_c=G_c, channels=channels)


def _realize_transfer(model: DelayedTransferModel, Ts: float) -> DelayRealization:
    n_z, n_u = model.n_z, model.n_u
    recs, blocks = [], []
    D = np.zeros((n_z, n_u))
    m = np.zeros((n_z, n_u), dtype=int)
    v = np.zeros((n_z, n_u))
    # stacking order: input index outer, output index inner, so each
    # input's channel blocks sit together
    for j in range(1, n_u + 1):
        for i in range(1, n_z + 1):
            ch = model.channel(i, j)
            A, B, C, d = realize_channel(ch.num, ch.den)
            r = ChannelRealization(i, j, A, B, C, d, ch.tau,
                                   *split_delay(ch.tau, Ts))
            recs.append(r)
            D[i - 1, j - 1], m[i - 1, j - 1], v[i - 1, j - 1] = d, r.m, r.v
            C_i = np.zeros((n_z, A.shape[0]))
            C_i[i - 1] = C[0]
            blocks.append((A, B, C_i, [j - 1], [r.m], r.v))
    return _stack(blocks, D, m, v, Ts, channels=tuple(recs))


def _realize_state_space(ss: ContinuousStateSpace, Ts: float) -> DelayRealization:
    delays = ss.delays if ss.delays is not None else (0.0,) * ss.n_u
    splits = [split_delay(t, Ts) for t in delays]
    ms = [m for m, _ in splits]
    vs = [v for _, v in splits]
    inputs = range(ss.n_u)
    if max(vs, default=0.0) - min(vs, default=0.0) <= UNIFORM_V_TOL:
        # one shared block, all inputs (if any)
        blocks = [(ss.A_c, ss.B_c, ss.C_c, inputs, ms, vs[0] if vs else 0.0)]
    else:
        # one replica of the plant per input so each block has a scalar v;
        # the noise enters the first replica only
        blocks = [(ss.A_c, ss.B_c[:, [j]], ss.C_c, [j], [ms[j]], vs[j])
                  for j in inputs]
    m = np.repeat(np.array([ms], dtype=int), ss.n_z, axis=0)
    v = np.repeat(np.array([vs], dtype=float), ss.n_z, axis=0)
    return _stack(blocks, ss.D_c, m, v, Ts, G_c=ss.G_c)


def realize_delays(model, Ts: float) -> DelayRealization:
    """Realize a plant, delayed or not, into the stacked slot structure.

    An undelayed plant gets m_bar = 0: one slot, B_1c = B_2c = B_c, V = 0.
    Transfer models are realized channel-by-channel in observable canonical
    form and stacked block-diagonally (input index outer). State-space models
    with uniform fractional parts keep one state block; non-uniform fractional
    parts replicate the plant per input so each block has a scalar v.
    """
    if isinstance(model, DelayedTransferModel):
        return _realize_transfer(model, Ts)
    if isinstance(model, ContinuousStateSpace):
        return _realize_state_space(model, Ts)
    raise ModelError("model", f"cannot realize {type(model).__name__}")


def realize_plant(plant, Ts: float) -> DelayRealization:
    """Return the DelayRealization the ODE system is built from.

    Every plant is realized, an undelayed one with m_bar = 0; a
    realization passes through.
    """
    if isinstance(plant, DelayRealization):
        return plant
    return realize_delays(plant, Ts)


# ---------------------------------------------------------------------------
# model-file parsing

_TOP_KEYS = {"model", "cost"}
_MODEL_KEYS = {"state_space", "transfer"}
_SS_KEYS = {"A_c", "B_c", "C_c", "D_c", "G_c", "delays"}
_TF_KEYS = {"channels"}
_CH_KEYS = {"i", "j", "num", "den", "tau"}
_COST_KEYS = {"Qc", "Wz", "mu", "Ts", "N", "zbar"}


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ModelError(f"{path}.{key}", "missing required key")
    return d[key]


def _reject_unknown(d: dict, allowed: set, path: str):
    if not isinstance(d, dict):
        raise ModelError(path, "expected an object")
    for key in d:
        if key not in allowed:
            raise ModelError(f"{path}.{key}", "unknown key")


def _matrix(value, path: str) -> Mat:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(path, f"not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise ModelError(path, f"expected a nested (row-major) array, got ndim={arr.ndim}")
    return arr


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(path, "expected a number")
    try:
        return float(value)
    except OverflowError:       # a JSON integer beyond the double range
        raise ModelError(path, "number out of range") from None


def parse_model(doc: dict):
    """Parse a model-file dict into (plant, CostSpec). Unknown keys rejected."""
    _reject_unknown(doc, _TOP_KEYS, "$")
    model_doc = _require(doc, "model", "$")
    cost_doc = _require(doc, "cost", "$")
    _reject_unknown(model_doc, _MODEL_KEYS, "model")
    if ("state_space" in model_doc) == ("transfer" in model_doc):
        raise ModelError("model", "exactly one of state_space/transfer required")

    delays = []                 # (field path, delay) of every input delay
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
            delays = [(f"model.state_space.delays[{k}]", t)
                      for k, t in enumerate(kwargs["delays"])]
        with _named("state_space", "model.state_space"):
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
            i = _number(_require(chd, "i", path), f"{path}.i")
            j = _number(_require(chd, "j", path), f"{path}.j")
            num = _require(chd, "num", path)
            den = _require(chd, "den", path)
            tau = _number(_require(chd, "tau", path), f"{path}.tau")
            with _named(TransferChannel._label(i, j), path):
                channels.append(TransferChannel(i, j, num, den, tau))
            delays.append((f"{path}.tau", channels[-1].tau))
        with _named("channels", "model.transfer.channels"):
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
    if "Qc" in cost_doc:
        cost = CostSpec(Q_c=_matrix(cost_doc["Qc"], "cost.Qc"), **kw)
    else:
        cost = CostSpec.from_weight_root(_matrix(cost_doc["Wz"], "cost.Wz"), **kw)
    if cost.n_z != plant.n_z:
        key = "Qc" if "Qc" in cost_doc else "Wz"
        raise ModelError(f"cost.{key}", f"has {cost.n_z} columns, the "
                                        f"plant has {plant.n_z} outputs")
    for path, tau in delays:
        try:
            split_delay(tau, cost.Ts)
        except DomainError as exc:
            raise ModelError(path, str(exc)) from None
    return plant, cost


def load_model(path):
    """Load and parse a JSON model file; returns (plant, CostSpec)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelError("$", f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelError("$", f"invalid JSON: {exc}") from None
    return parse_model(doc)
