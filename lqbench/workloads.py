"""Workload inputs, the benchmark op, and the per-op correctness checks.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` so
the benchmark always measures the sources next to it, never an installed
copy of ``lqdisc``.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIMO_MODEL = ROOT / "models" / "mimo_delayed.json"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from lqdisc import (CoreResult, assemble_augmented, build_deq,  # noqa: E402
                    build_discrete_lq, discretize_expm, export_result_json,
                    export_stage_csv, load_model, oracle_quadrature,
                    realize_plant, stage_costs)
from lqdisc.benchcli import (VALIDATION_LIMITS, random_system,  # noqa: E402
                             run_validation)

STEPS = 1024
# Simpson panels for the expm reference. The oracle error falls as
# panels^-4; at 1024 panels its gap to expm is at most 3e-12 on the
# workload models, over three orders inside VALIDATION_LIMITS["oracle"].
ORACLE_PANELS = 1024
VALIDATE_COUNT = 9          # one full delay-kind x mu cycle of random_system
LONG_DELAY_TAUS = (21 - 0.3, 0.6)   # in units of Ts: m_bar = 21
LONG_HORIZON_STAGES = 3000
# The matrices of a DiscreteLQ that result.json carries.
MATRICES = ("A", "B_o", "Q", "M", "R_ww", "A_aug", "B_aug", "C_aug", "D_aug")


@dataclass(frozen=True)
class Workload:
    """What one workload runs; `methods[0]` is the cold first result.

    Why each workload was chosen is in README.md and BENCHMARK.json.
    """

    name: str
    scheme: str
    methods: tuple
    validate: bool = False
    shares: dict = field(default_factory=dict)   # loop-time weight per kind


WORKLOADS = {w.name: w for w in (
    Workload("paper_mimo", "esdirk4", ("doubling", "fixed", "expm")),
    # threaded expm times scatter with a CV near 0.4 here, so expm gets
    # the samples to pin its median
    Workload("long_delay", "rk4", ("doubling", "fixed", "expm"),
             shares={"expm": 2.0}),
    # three quarters of the loop validate, so ops_per_s rests on several
    # calls
    Workload("validate_sweep", "rk4", ("doubling", "fixed", "expm"),
             validate=True, shares={"validate": 9.0}),
    Workload("long_horizon", "rk4", ("expm", "doubling", "fixed")),
)}


# ---------------------------------------------------------------------------
# inputs

def _seeded_zbar(rng, rows: int, n_z: int) -> list:
    return rng.uniform(-1.0, 1.0, size=(rows, n_z)).tolist()


def _long_delay_doc(rng) -> dict:
    """Stable 4-state 2-input plant with diffusion, delays (20.7, 0.6) Ts.

    A and the columns of B are scaled to a fixed 1-norm so every seed
    gives the exponential the same scaling-and-squaring work.
    """
    n_x, n_u, n_z = 4, 2, 2
    A = rng.normal(size=(n_x, n_x))
    A -= (max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n_x)
    A *= 2.0 / np.abs(A).sum(axis=0).max()
    B = rng.normal(size=(n_x, n_u))
    B /= np.abs(B).sum(axis=0)
    ss = {"A_c": A.tolist(), "B_c": B.tolist(),
          "C_c": rng.normal(size=(n_z, n_x)).tolist(),
          "D_c": np.zeros((n_z, n_u)).tolist(),
          "G_c": (0.5 * rng.normal(size=(n_x, n_x))).tolist(),
          "delays": [float(t) for t in LONG_DELAY_TAUS]}
    cost = {"Qc": [[1.0, 0.0], [0.0, 2.0]], "mu": 0.2, "Ts": 1.0, "N": 20,
            "zbar": _seeded_zbar(rng, 20, n_z)}
    return {"model": {"state_space": ss}, "cost": cost}


def _sweep_doc(plant, cost, rng) -> dict:
    """A random_system plant as a model file, with a seeded zbar."""
    ss = {"A_c": plant.A_c.tolist(), "B_c": plant.B_c.tolist(),
          "C_c": plant.C_c.tolist(), "D_c": plant.D_c.tolist(),
          "G_c": plant.G_c.tolist()}
    if plant.delays is not None:
        ss["delays"] = list(plant.delays)
    doc = {"Qc": cost.Q_c.tolist(), "mu": cost.mu, "Ts": cost.Ts,
           "N": cost.N, "zbar": _seeded_zbar(rng, cost.N, cost.n_z)}
    return {"model": {"state_space": ss}, "cost": doc}


def model_docs(workload: str, seed: int) -> list[dict]:
    """The workload's model files as documents; the seed sets only values,
    never sizes, so every seed does the same amount of work."""
    rng = np.random.default_rng([seed, 0x6c71])
    if workload == "paper_mimo":
        doc = json.loads(MIMO_MODEL.read_text(encoding="utf-8"))
        doc["cost"]["zbar"] = _seeded_zbar(rng, doc["cost"]["N"], 2)
        return [doc]
    if workload == "long_delay":
        return [_long_delay_doc(rng)]
    if workload == "validate_sweep":
        sys_rng = np.random.default_rng(0)
        docs = []
        for i in range(VALIDATE_COUNT):
            plant, cost, _ = random_system(sys_rng, i)
            docs.append(_sweep_doc(plant, cost, rng))
        return docs
    if workload == "long_horizon":
        doc = json.loads(MIMO_MODEL.read_text(encoding="utf-8"))
        doc["cost"]["N"] = LONG_HORIZON_STAGES
        doc["cost"]["zbar"] = _seeded_zbar(rng, LONG_HORIZON_STAGES, 2)
        return [doc]
    raise KeyError(workload)


def write_models(workload: str, seed: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(model_docs(workload, seed)):
        path = directory / f"model{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def sizes(path: Path) -> dict:
    """n_h, n_in and the count of input columns that are not all zero."""
    plant, cost = load_model(path)
    deq = build_deq(realize_plant(plant, cost.Ts), cost)
    inputs = np.vstack([deq.B_1c, deq.B_2c_bar])
    return {"n_h": deq.n_h, "n_in": deq.n_in,
            "input_cols_nonzero": int(np.count_nonzero(
                np.abs(inputs).sum(axis=0)))}


# ---------------------------------------------------------------------------
# the op and its references

def run_op(path: Path, method: str, scheme: str, out_dir: Path):
    """One full op: model file to written result.json and stages.csv."""
    plant, cost = load_model(path)
    dlq = build_discrete_lq(plant, cost, method=method, scheme=scheme,
                            steps=STEPS)
    export_result_json(dlq, out_dir / "result.json")
    export_stage_csv(dlq, out_dir / "stages.csv")
    return dlq


def _expected(core, realization, cost) -> dict:
    """The arrays an op must reproduce, built from a reference core."""
    A_aug, B_aug, C_aug, D_aug = assemble_augmented(core, realization)
    stages = stage_costs(core.Q, core.M, cost)
    return {"A": core.A, "B_o": core.B_o, "Q": core.Q, "M": core.M,
            "R_ww": core.R_ww, "A_aug": A_aug, "B_aug": B_aug,
            "C_aug": C_aug, "D_aug": D_aug,
            "q_k": np.array(stages.q_k), "rho_k": stages.rho_k}


@dataclass
class Reference:
    """Expected arrays and the tolerance for one (model, method)."""

    arrays: dict
    limit: float


def references(path: Path) -> dict:
    """Per-method references, each from a route independent of the method:
    fixed and doubling against expm, expm against the Simpson oracle."""
    plant, cost = load_model(path)
    realization = realize_plant(plant, cost.Ts)
    deq = build_deq(realization, cost)
    exact = _expected(discretize_expm(deq), realization, cost)
    t = oracle_quadrature(deq, panels=ORACLE_PANELS)
    oracle = _expected(CoreResult(A=t.A, B_o=t.B_o, Q=t.Q, M=t.M,
                                  R_ww=t.R_ww, method="oracle"),
                       realization, cost)
    return {"fixed": Reference(exact, VALIDATION_LIMITS["pairwise"]),
            "doubling": Reference(exact, VALIDATION_LIMITS["pairwise"]),
            "expm": Reference(oracle, VALIDATION_LIMITS["oracle"])}


def _arrays_of(dlq) -> dict:
    return {**{name: getattr(dlq, name) for name in MATRICES},
            "q_k": np.array(dlq.stages.q_k), "rho_k": dlq.stages.rho_k}


def _gap(name, got, want) -> float:
    if (got is None) != (want is None):
        raise ValueError(f"{name}: present in only one of result/reference")
    if got is None:
        return 0.0
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        raise ValueError(f"{name}: shape {got.shape} != {want.shape}")
    return float(np.max(np.abs(got - want), initial=0.0))


def compare(arrays: dict, ref: Reference) -> list[str]:
    """Names of the arrays farther from the reference than its limit."""
    misses = []
    for name, want in ref.arrays.items():
        try:
            gap = _gap(name, arrays.get(name), want)
        except ValueError as exc:
            misses.append(str(exc))
            continue
        if not gap <= ref.limit:       # NaN fails too
            misses.append(f"{name} off by {gap:.3e} > {ref.limit:.0e}")
    return misses


def read_back(out_dir: Path) -> dict:
    """The arrays of an op's exported files, as written."""
    doc = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    arrays = {k: None if doc[k] is None else np.array(doc[k], float)
              for k in MATRICES}
    arrays["q_k"] = np.array(doc["stages"]["q_k"], float)
    arrays["rho_k"] = np.array(doc["stages"]["rho_k"], float)
    arrays["t_k"] = np.array(doc["stages"]["t_k"], float)
    with open(out_dir / "stages.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    arrays["csv_header"] = rows[0]
    arrays["csv"] = np.array([[float(x) for x in r] for r in rows[1:]])
    return arrays


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, np.asarray(b))


def check_files(dlq, out_dir: Path) -> list[str]:
    """The exported files must hold exactly the in-memory result."""
    back = read_back(out_dir)
    st = dlq.stages
    want = dict(_arrays_of(dlq), t_k=st.t_k, csv=np.column_stack(
        [np.arange(st.t_k.size), st.t_k, st.rho_k,
         [np.linalg.norm(q) for q in st.q_k]]))
    misses = [f"exported {name} differs from memory"
              for name, value in want.items() if not _same(back[name], value)]
    if back["csv_header"] != ["k", "t_k", "rho_k", "q_norm"]:
        misses.append("stages.csv header")
    return misses


def check_op(dlq, out_dir: Path, ref: Reference) -> list[str]:
    return compare(_arrays_of(dlq), ref) + check_files(dlq, out_dir)


def check_written(out_dir: Path, ref: Reference) -> list[str]:
    """Check files written by another process against the reference."""
    return compare(read_back(out_dir), ref)


# ---------------------------------------------------------------------------
# op kinds and the tally

@dataclass
class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, n_ops: int, misses: list[str], where: str) -> None:
        self.attempted += n_ops
        if misses:
            self.failed += n_ops
            if len(self.messages) < 20:
                self.messages.append(f"{where}: {'; '.join(misses[:3])}")

    def merge(self, other: dict, where: str) -> None:
        """Add a tally reported by a child process."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.messages += [f"{where}: {m}" for m in other["messages"]][:20]


class MethodKind:
    """Full ops with one method, cycling through the workload's models."""

    def __init__(self, method, scheme, paths, refs, out_dir: Path):
        self.name = method
        self.method, self.scheme = method, scheme
        self.paths, self.refs = paths, refs
        self.out_dir = out_dir / method
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.next = 0

    def reset(self) -> None:
        self.next = 0

    @property
    def per_cycle(self) -> int:
        return len(self.paths)

    def __call__(self, tally: Tally, op=None) -> tuple[float, int]:
        """Run, time and check one op; returns (seconds, ops passed)."""
        i = self.next
        self.next = (i + 1) % len(self.paths)
        op = op or run_op
        t0 = time.perf_counter()
        try:
            dlq = op(self.paths[i], self.method, self.scheme, self.out_dir)
        except (ArithmeticError, ValueError, OSError) as exc:
            elapsed = time.perf_counter() - t0
            tally.record(1, [f"{type(exc).__name__}: {exc}"],
                         f"{self.name} model{i}")
            return elapsed, 0
        elapsed = time.perf_counter() - t0
        misses = check_op(dlq, self.out_dir, self.refs[i][self.method])
        tally.record(1, misses, f"{self.name} model{i}")
        return elapsed, 0 if misses else 1


class ValidateKind:
    """run_validation(seed, count=9) over the fixed seed sequence; each
    validated system is one op, and all nine fail when the report lists a
    failure."""

    name = "validate"
    per_cycle = 1

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.seeds = itertools.count()

    def __call__(self, tally: Tally, validate=None) -> tuple[float, int]:
        seed = next(self.seeds)
        validate = validate or run_validation
        t0 = time.perf_counter()
        report = validate(seed, count=VALIDATE_COUNT, steps=STEPS)
        elapsed = time.perf_counter() - t0
        misses = report.failures()
        if len(report.checks) != VALIDATE_COUNT:
            misses.append(f"{len(report.checks)} systems validated")
        tally.record(VALIDATE_COUNT, misses, f"validate seed {seed}")
        return elapsed, 0 if misses else VALIDATE_COUNT
