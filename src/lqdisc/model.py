"""Continuous-time model and cost ingestion.

Accepts either a state-space plant (optionally with per-input delays) or a
MIMO transfer-function model with per-channel delays, plus the cost
specification, and realizes every plant, delayed or not, over its physical
state: A_c, C_c, G_c, a list of input columns (b, input j, m, v) and the
feedthrough entries (i, j, D_ij, m, v), each path delayed by (m - v) Ts.
A state-space plant is one block; a transfer model has one
observable-canonical block per channel on the diagonal of A_c. The held
input window of the augmented system (shift and injector blocks) spans
m_bar + 1 input slots; an undelayed plant has m_bar = 0.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .matcore import DomainError, Mat, asmat, is_psd, is_symmetric

# |tau/Ts - round(tau/Ts)| below this counts as an integer delay (v = 0).
INTEGER_DELAY_TOL = 1e-12
# The longest horizon: every stage stores t_k, e^{-mu t_k}, rho_k and the
# n_x + (m_bar + 1) n_u entries of q_k, and both exports write a line or
# an array row per stage.
MAX_STAGES = 10 ** 6
# The longest input delay, in sampling periods. It bounds the size of the
# output only: each period of delay adds n_u held inputs to the lifted
# input, so B_o, Q and M have n_x + (m_bar + 1) n_u columns, and the
# augmented state m_bar n_u more rows. The methods work over the state
# and the at most two slots each delayed path uses, whatever the delay.
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


@dataclass(frozen=True, eq=False)
class DelayRealization:
    """A plant over its physical state, with its delayed input paths.

    The lifted input is u_tilde_k = [u_{k-m_bar}; ...; u_{k-1}; u_k]; slot
    p (1-based) holds u_{k-(m_bar+1)+p}. Column c of B_c is an input
    column b: input col_input[c] (0-based) drives the state through it
    with the delay (col_m[c] - col_v[c]) Ts, m whole and 0 <= v < 1. The
    feedthrough entries are the n_z x n_u grids D_c, m and v: the gain
    D_ij with the delay (m_ij - v_ij) Ts. A path of delay (m - v) Ts reads
    the slot of u_{k-m}, and from the switch time (1 - v) Ts the next one.
    """

    A_c: Mat
    B_c: Mat
    col_input: np.ndarray
    col_m: np.ndarray
    col_v: np.ndarray
    C_c: Mat
    D_c: Mat
    m: Mat
    v: Mat
    Ts: float
    G_c: Mat | None = None

    @property
    def n_x(self):
        return self.A_c.shape[0]

    @property
    def n_u(self):
        return self.D_c.shape[1]

    @property
    def n_z(self):
        return self.C_c.shape[0]

    @cached_property
    def m_bar(self) -> int:
        """The longest whole delay, in samples, of any path."""
        return int(max(self.col_m.max(initial=0), self.m.max(initial=0)))

    @property
    def n_slots(self):
        return (self.m_bar + 1) * self.n_u

    @cached_property
    def D_o(self) -> Mat:
        """The feedthrough over the lifted input: D_ij in the slot of
        u_{k-m_ij}."""
        out = np.zeros((self.n_z, self.n_slots))
        out[np.arange(self.n_z)[:, None],
            (self.m_bar - self.m) * self.n_u + np.arange(self.n_u)] = self.D_c
        return out

    @property
    def I_A(self) -> Mat:
        """Shift block: drops u_{k-m_bar} from the held-input window."""
        return np.eye(self.m_bar * self.n_u, k=self.n_u)

    @property
    def I_B(self) -> Mat:
        """Injector: appends u_k at the end of the held-input window."""
        n = self.m_bar * self.n_u
        return np.eye(n, self.n_u, k=self.n_u - n)


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
    return _observable(*_proper(num, den, "channel"))


def _observable(num, den) -> tuple[Mat, Mat, Mat, float]:
    """`realize_channel` of coefficients that are trimmed and over a monic
    denominator, as `_proper` leaves them and TransferChannel holds them."""
    den = np.asarray(den, dtype=float)
    n = den.size - 1
    num_full = np.zeros(n + 1)
    num_full[n + 1 - len(num):] = num
    D = num_full[0]
    beta = num_full[1:] - D * den[1:]  # strictly proper remainder
    # observable canonical: -den[1:] down the first column, identity
    # superdiagonal
    A = np.eye(n, k=1)
    C = np.zeros((1, n))
    if n > 0:
        A[:, 0] = -den[1:]
        C[0, 0] = 1.0
    return A, beta.reshape(n, 1), C, float(D)


def _realize_transfer(model: DelayedTransferModel, Ts: float) -> DelayRealization:
    n_z, n_u = model.n_z, model.n_u
    D = np.zeros((n_z, n_u))
    m = np.zeros((n_z, n_u), dtype=int)
    v = np.zeros((n_z, n_u))
    blocks = []                 # (A, b, c, i, j) of each channel with states
    # input index outer, output index inner, so each input's channel
    # blocks sit together
    for j in range(n_u):
        for i in range(n_z):
            ch = model.channel(i + 1, j + 1)
            A, b, c, D[i, j] = _observable(ch.num, ch.den)
            m[i, j], v[i, j] = split_delay(ch.tau, Ts)
            if A.size:
                blocks.append((A, b, c, i, j))
    n_x = sum(A.shape[0] for A, *_ in blocks)
    A_c, B_c = np.zeros((n_x, n_x)), np.zeros((n_x, len(blocks)))
    C_c = np.zeros((n_z, n_x))
    row = 0
    for col, (A, b, c, i, _) in enumerate(blocks):
        sl = slice(row, row + A.shape[0])
        A_c[sl, sl], B_c[sl, col], C_c[i, sl] = A, b[:, 0], c[0]
        row = sl.stop
    i, j = np.array([blk[3:] for blk in blocks], dtype=int).reshape(-1, 2).T
    return DelayRealization(A_c=A_c, B_c=B_c, col_input=j, col_m=m[i, j],
                            col_v=v[i, j], C_c=C_c, D_c=D, m=m, v=v, Ts=Ts)


def _realize_state_space(ss: ContinuousStateSpace, Ts: float) -> DelayRealization:
    delays = ss.delays or (0.0,) * ss.n_u
    m, v = np.array([split_delay(t, Ts) for t in delays]).reshape(-1, 2).T
    m = m.astype(int)
    return DelayRealization(
        A_c=ss.A_c, B_c=ss.B_c, col_input=np.arange(ss.n_u), col_m=m,
        col_v=v, C_c=ss.C_c, D_c=ss.D_c,
        m=np.repeat(m[None], ss.n_z, axis=0),
        v=np.repeat(v[None], ss.n_z, axis=0), Ts=Ts, G_c=ss.G_c)


def realize_delays(model, Ts: float) -> DelayRealization:
    """Realize a plant, delayed or not, over its physical state.

    A state-space plant keeps its matrices, with one input column per
    input, whatever the delays. Transfer models are realized
    channel-by-channel in observable canonical form and stacked
    block-diagonally (input index outer), one input column per channel
    with states. An undelayed plant gets m_bar = 0, one slot.
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
