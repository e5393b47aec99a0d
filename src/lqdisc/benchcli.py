"""Command-line front end and experiment harness.

Subcommands:

* ``discretize``: one model, one method, result JSON plus per-stage CSV.
* ``convergence``: error-vs-N grid against the matrix-exponential
  reference, with a fitted order per (method, scheme).
* ``bench``: median wall-clock timing per method, coefficient
  precomputation timed separately.
* ``validate``: randomized sweep checking the three methods against each
  other, against the quadrature oracle, and against structural identities.

CSV output is RFC 4180 with a header row and 17-significant-digit
scientific notation; every row carries its provenance (method, scheme, N,
reference id). Everything runs sequentially.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matcore import (DomainError, SingularMatrixError, expm, is_psd,
                      max_abs)
from .model import ContinuousStateSpace, CostSpec, ModelError, load_model, realize_delays
from .exactdefs import DeqSystem, b_alternative, build_deq, oracle_quadrature
from .fixedstep import (SCHEME_NAMES, ButcherTableau, build_coefficients,
                        integrate, named_tableau)
from .stepdouble import discretize_step_doubling
from .vanloan import discretize_expm
from .lqassemble import METHODS, build_discrete_lq, realize_plant, \
    export_result_json, export_stage_csv

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_REFERENCE = 4

REFERENCE_ID = "expm"
SECONDARY_REFERENCE_ID = "simpson-65536"
SECONDARY_PANELS = 65536
# Errors at or below this are treated as roundoff when fitting orders.
ORDER_FIT_FLOOR = 1e-12

VALIDATION_LIMITS = {
    "pairwise": 1e-9,
    "oracle": 1e-8,
    "zero_delay": 1e-12,
    "gamma": 1e-12,
    "bdot": 1e-10,
}

_QUANTITIES = ("A", "B_o", "M", "Q")


@dataclass(frozen=True)
class StudyConfig:
    """Validated description of a convergence or timing study."""

    model_path: str
    methods: tuple
    schemes: tuple
    steps: tuple
    reference: str = REFERENCE_ID
    out_dir: str = "."
    reps: int = 9

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}")
        for m in self.methods:
            if m not in METHODS:
                raise DomainError(
                    f"unknown method {m!r}; choose from {METHODS}")
        for n in self.steps:
            if n < 1:
                raise DomainError(f"steps must be >= 1, got {n}")


def errors_against(core, ref) -> dict:
    """Elementwise-max errors on (A, B_o, M, Q) between two result sets."""
    return {f"e_{q}": max_abs(getattr(core, q) - getattr(ref, q))
            for q in _QUANTITIES}


def fit_order(steps, errors, floor: float = ORDER_FIT_FLOOR):
    """Least-squares order: -slope of log2(error) vs log2(N) above floor.

    Returns (order, points_used); order is NaN with fewer than two usable
    points.
    """
    pts = [(n, e) for n, e in zip(steps, errors) if e > floor]
    if len(pts) < 2:
        return math.nan, len(pts)
    x = np.log2([float(p[0]) for p in pts])
    y = np.log2([p[1] for p in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope), len(pts)


def convergence_rows(deq: DeqSystem, methods, schemes, steps,
                     reference=None) -> list[dict]:
    """Evaluate the (method, scheme, N) grid; rows in deterministic order."""
    ref = reference if reference is not None else discretize_expm(deq)
    rows = []
    for m in methods:
        if m not in ("fixed", "doubling"):
            raise DomainError(f"convergence grid supports fixed and "
                              f"doubling, got {m!r}")
        for s in schemes:
            tb = named_tableau(s)
            for n in steps:
                coeffs = build_coefficients(deq, tb, n)
                if m == "fixed":
                    core = integrate(coeffs, deq)
                else:
                    core = discretize_step_doubling(
                        deq, tb, n.bit_length() - 1, coeffs=coeffs)
                row = {"method": m, "scheme": s, "N": n}
                row.update(errors_against(core, ref))
                rows.append(row)
    return rows


def fitted_orders(rows: list[dict]) -> list[dict]:
    """Fit one order per (method, scheme) from the max error over targets."""
    seen, out = [], []
    for row in rows:
        key = (row["method"], row["scheme"])
        if key not in seen:
            seen.append(key)
    for method, scheme in seen:
        ns, es = [], []
        for row in rows:
            if (row["method"], row["scheme"]) == (method, scheme):
                ns.append(row["N"])
                es.append(max(row[f"e_{q}"] for q in _QUANTITIES))
        order, points = fit_order(ns, es)
        out.append({"method": method, "scheme": scheme,
                    "order": order, "points": points})
    return out


def _median_time(fn, reps: int):
    times = []
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def bench_rows(deq: DeqSystem, methods, schemes, steps, reps: int,
               reference=None) -> list[dict]:
    """Sequential timing rows; (coeff, run) medians over reps each."""
    ref = reference if reference is not None else discretize_expm(deq)
    rows = []
    for m in methods:
        if m == "expm":
            run_t, core = _median_time(lambda: discretize_expm(deq), reps)
            row = {"method": m, "scheme": "-", "N": 0,
                   "coeff_seconds": 0.0, "run_seconds": run_t}
            row.update(errors_against(core, ref))
            rows.append(row)
            continue
        for s in schemes:
            tb = named_tableau(s)
            for n in steps:
                coeff_t, coeffs = _median_time(
                    lambda: build_coefficients(deq, tb, n), reps)
                if m == "fixed":
                    run_t, core = _median_time(
                        lambda: integrate(coeffs, deq), reps)
                else:
                    j = n.bit_length() - 1
                    run_t, core = _median_time(
                        lambda: discretize_step_doubling(
                            deq, tb, j, coeffs=coeffs), reps)
                row = {"method": m, "scheme": s, "N": n,
                       "coeff_seconds": coeff_t, "run_seconds": run_t}
                row.update(errors_against(core, ref))
                rows.append(row)
    return rows


MU_CYCLE = (0.0, 0.2, 1.0)
DELAY_KIND_CYCLE = ("none", "fractional", "integer")


def random_system(rng: np.random.Generator, index: int):
    """One random stable plant and cost for the validation sweep.

    The discount cycles over {0, 0.2, 1} with the index and the delay kind
    over {none, fractional, integer} every three systems, so a run of nine
    consecutive indices covers all combinations.
    """
    n_x = int(rng.integers(1, 5))
    n_u = int(rng.integers(1, 3))
    n_z = int(rng.integers(1, 3))
    A = rng.normal(size=(n_x, n_x))
    shift = float(max(np.linalg.eigvals(A).real) + 0.3 + rng.uniform(0.0, 0.7))
    A = A - shift * np.eye(n_x)
    big = float(np.abs(A).sum(axis=1).max())
    if big > 3.0:
        A = A * (3.0 / big)
    B = rng.normal(size=(n_x, n_u))
    C = rng.normal(size=(n_z, n_x))
    D = 0.5 * rng.normal(size=(n_z, n_u))
    G = 0.5 * rng.normal(size=(n_x, n_x))
    Ts = 1.0
    kind = DELAY_KIND_CYCLE[(index // 3) % 3]
    if kind == "none":
        delays = None
    elif kind == "fractional":
        delays = tuple(
            float(int(rng.integers(1, 3)) - rng.uniform(0.1, 0.9)) * Ts
            for _ in range(n_u))
    else:
        delays = tuple(float(int(rng.integers(0, 3))) * Ts
                       for _ in range(n_u))
    plant = ContinuousStateSpace(A, B, C, D, G_c=G, delays=delays)
    W = rng.normal(size=(n_z, n_z))
    Q_c = W.T @ W / n_z + 0.1 * np.eye(n_z)
    mu = MU_CYCLE[index % 3]
    cost = CostSpec(Q_c=Q_c, mu=mu, Ts=Ts, N=4, zbar=np.ones((1, n_z)))
    return plant, cost, kind


@dataclass(frozen=True)
class SystemCheck:
    """Validation measurements for one random system."""

    index: int
    kind: str
    mu: float
    pairwise: float
    vs_oracle: float
    psd_ok: bool
    zero_delay_gap: float
    gamma_gap: float
    bdot_gap: float


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate of a validation sweep; failures() lists violated limits."""

    seed: int
    count: int
    steps: int
    checks: tuple
    elapsed: float

    @property
    def max_pairwise(self) -> float:
        return max(c.pairwise for c in self.checks)

    @property
    def max_vs_oracle(self) -> float:
        return max(c.vs_oracle for c in self.checks)

    @property
    def all_psd(self) -> bool:
        return all(c.psd_ok for c in self.checks)

    @property
    def max_zero_delay_gap(self) -> float:
        return max(c.zero_delay_gap for c in self.checks)

    @property
    def max_gamma_gap(self) -> float:
        return max(c.gamma_gap for c in self.checks)

    @property
    def max_bdot_gap(self) -> float:
        return max(c.bdot_gap for c in self.checks)

    def failures(self) -> list[str]:
        out = []
        if self.max_pairwise > VALIDATION_LIMITS["pairwise"]:
            out.append(f"pairwise {self.max_pairwise:.3e} > "
                       f"{VALIDATION_LIMITS['pairwise']:.0e}")
        if self.max_vs_oracle > VALIDATION_LIMITS["oracle"]:
            out.append(f"oracle {self.max_vs_oracle:.3e} > "
                       f"{VALIDATION_LIMITS['oracle']:.0e}")
        if not self.all_psd:
            out.append("Q or R_ww not positive semidefinite")
        if self.max_zero_delay_gap > VALIDATION_LIMITS["zero_delay"]:
            out.append(f"zero-delay gap {self.max_zero_delay_gap:.3e} > "
                       f"{VALIDATION_LIMITS['zero_delay']:.0e}")
        if self.max_gamma_gap > VALIDATION_LIMITS["gamma"]:
            out.append(f"gamma identity {self.max_gamma_gap:.3e} > "
                       f"{VALIDATION_LIMITS['gamma']:.0e}")
        if self.max_bdot_gap > VALIDATION_LIMITS["bdot"]:
            out.append(f"B-form gap {self.max_bdot_gap:.3e} > "
                       f"{VALIDATION_LIMITS['bdot']:.0e}")
        return out


def _gamma_identity_gap(deq: DeqSystem, samples: int = 10) -> float:
    """Max deviation of the stacked transition from its three-term split
    and of its bottom block rows from [0 I], over sampled times."""
    gap = 0.0
    n_x = deq.n_x
    bottom = np.hstack([np.zeros((deq.n_in, n_x)), np.eye(deq.n_in)])
    for t in np.linspace(deq.Ts / samples, deq.Ts, samples):
        g = deq.gamma(t)
        stacked = deq.E1 @ expm(deq.H_c * t) @ deq.E2
        gap = max(gap, max_abs(g - stacked), max_abs(g[n_x:, :] - bottom))
    return gap


def _bdot_gap(deq: DeqSystem, ode_steps: int = 2048) -> float:
    """Agreement of direct dB/dt = A B + B_c integration with the
    exponential-block value of the same integral."""
    n_x = deq.n_x
    blk = expm(deq.H_1c * deq.Ts if deq.delay else deq.H_c * deq.Ts)
    gap = max_abs(b_alternative(deq.A_c, deq.B_1c, deq.Ts, ode_steps)
                  - blk[:n_x, n_x:])
    if deq.delay:
        blk2 = expm(deq.H_2c * deq.Ts)
        gap = max(gap, max_abs(
            b_alternative(deq.V @ deq.A_c, deq.B_2c_bar, deq.Ts, ode_steps)
            - blk2[:n_x, n_x:]))
    return gap


def _zero_delay_gap(plant: ContinuousStateSpace, cost: CostSpec) -> float:
    """Force the delayed pipeline at zero delay and compare against the
    plain single-block pipeline."""
    plain = ContinuousStateSpace(plant.A_c, plant.B_c, plant.C_c, plant.D_c,
                                 G_c=plant.G_c)
    forced = realize_delays(
        ContinuousStateSpace(plant.A_c, plant.B_c, plant.C_c, plant.D_c,
                             G_c=plant.G_c, delays=(0.0,) * plant.n_u),
        cost.Ts)
    a = discretize_expm(build_deq(plain, cost))
    b = discretize_expm(build_deq(forced, cost))
    gap = max(max_abs(getattr(a, q) - getattr(b, q)) for q in _QUANTITIES)
    return max(gap, max_abs(a.R_ww - b.R_ww))


def run_validation(seed: int = 0, count: int = 50,
                   steps: int = 1024) -> ValidationReport:
    """Cross-method, oracle, and structural checks on random systems."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    j = steps.bit_length() - 1
    rng = np.random.default_rng(seed)
    tb = named_tableau("rk4")
    t0 = time.perf_counter()
    checks = []
    for i in range(count):
        plant, cost, kind = random_system(rng, i)
        deq = build_deq(realize_plant(plant, cost.Ts), cost)
        coeffs = build_coefficients(deq, tb, steps)
        fixed = integrate(coeffs, deq)
        doubled = discretize_step_doubling(deq, tb, j, coeffs=coeffs)
        exact = discretize_expm(deq)
        pairwise = max(
            max(errors_against(x, y).values())
            for x, y in ((fixed, doubled), (fixed, exact), (doubled, exact)))
        oracle = oracle_quadrature(deq, panels=4096)
        vs_oracle = max(
            max(errors_against(core, oracle).values())
            for core in (fixed, doubled, exact))
        psd_ok = all(is_psd(core.Q) for core in (fixed, doubled, exact))
        psd_ok = psd_ok and all(
            is_psd(core.R_ww) for core in (fixed, doubled, exact)
            if core.R_ww is not None)
        checks.append(SystemCheck(
            index=i, kind=kind, mu=cost.mu,
            pairwise=pairwise, vs_oracle=vs_oracle, psd_ok=psd_ok,
            zero_delay_gap=_zero_delay_gap(plant, cost),
            gamma_gap=_gamma_identity_gap(deq) if deq.delay else 0.0,
            bdot_gap=_bdot_gap(deq)))
    return ValidationReport(seed=seed, count=count, steps=steps,
                            checks=tuple(checks),
                            elapsed=time.perf_counter() - t0)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _load(path):
    try:
        return load_model(path)
    except OSError as exc:
        raise ModelError("$", f"cannot read model file: {exc}") from exc


def _split_arg(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _int_list(value: str, flag: str) -> tuple:
    out = []
    for part in _split_arg(value):
        try:
            out.append(int(part))
        except ValueError:
            raise DomainError(f"{flag} expects integers, got {part!r}") from None
    if not out:
        raise DomainError(f"{flag} must list at least one value")
    return tuple(out)


def cmd_discretize(args) -> int:
    plant, cost = _load(args.model)
    tableau = ButcherTableau.from_file(args.tableau) if args.tableau else None
    dlq = build_discrete_lq(plant, cost, method=args.method,
                            scheme=args.scheme, steps=args.steps,
                            tableau=tableau)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    json_path, csv_path = out / "result.json", out / "stages.csv"
    export_result_json(dlq, json_path)
    export_stage_csv(dlq, csv_path)
    if args.verify:
        ref = build_discrete_lq(plant, cost, method="expm")
        for q in _QUANTITIES:
            print(f"e({q}) = {max_abs(getattr(dlq, q) - getattr(ref, q)):.16e}")
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    plant, cost = _load(args.model)
    config = StudyConfig(model_path=args.model,
                         methods=_split_arg(args.method),
                         schemes=_split_arg(args.scheme),
                         steps=_int_list(args.steps, "--steps"),
                         out_dir=args.out)
    deq = build_deq(realize_plant(plant, cost.Ts), cost)
    try:
        ref = discretize_expm(deq)
    except Exception as exc:
        print(f"reference failure ({REFERENCE_ID}): {exc}", file=sys.stderr)
        return EXIT_REFERENCE

    meta = {"reference": REFERENCE_ID,
            "secondary_reference": {"id": SECONDARY_REFERENCE_ID,
                                    "evaluated": False}}
    if args.verify:
        oracle = oracle_quadrature(deq, panels=SECONDARY_PANELS)
        gap = max(errors_against(ref, oracle).values())
        meta["secondary_reference"] = {"id": SECONDARY_REFERENCE_ID,
                                       "evaluated": True, "max_gap": gap}
        if gap > 1e-6:
            print(f"reference failure: {REFERENCE_ID} and "
                  f"{SECONDARY_REFERENCE_ID} disagree by {gap:.3e}",
                  file=sys.stderr)
            return EXIT_REFERENCE

    rows = convergence_rows(deq, config.methods, config.schemes,
                            config.steps, reference=ref)
    orders = fitted_orders(rows)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "convergence.csv",
               ["method", "scheme", "N", "e_A", "e_B_o", "e_M", "e_Q",
                "reference"],
               [[r["method"], r["scheme"], str(r["N"]),
                 _fmt(r["e_A"]), _fmt(r["e_B_o"]), _fmt(r["e_M"]),
                 _fmt(r["e_Q"]), REFERENCE_ID] for r in rows])
    _write_csv(out / "orders.csv",
               ["method", "scheme", "points", "order", "reference"],
               [[o["method"], o["scheme"], str(o["points"]),
                 _fmt(o["order"]), REFERENCE_ID] for o in orders])
    (out / "convergence_meta.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    for o in orders:
        print(f"{o['method']:9s} {o['scheme']:22s} "
              f"order {o['order']:7.3f} ({o['points']} points)")
    print(f"wrote {out / 'convergence.csv'} and {out / 'orders.csv'}")
    return EXIT_OK


def cmd_bench(args) -> int:
    plant, cost = _load(args.model)
    if args.reps < 5:
        raise DomainError(f"timing needs --reps >= 5, got {args.reps}")
    config = StudyConfig(model_path=args.model,
                         methods=_split_arg(args.method),
                         schemes=_split_arg(args.scheme),
                         steps=_int_list(args.steps, "--steps"),
                         out_dir=args.out, reps=args.reps)
    deq = build_deq(realize_plant(plant, cost.Ts), cost)
    try:
        ref = discretize_expm(deq)
    except Exception as exc:
        print(f"reference failure ({REFERENCE_ID}): {exc}", file=sys.stderr)
        return EXIT_REFERENCE

    rows = bench_rows(deq, config.methods, config.schemes, config.steps,
                      config.reps, reference=ref)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "bench.csv",
               ["method", "scheme", "N", "coeff_seconds", "run_seconds",
                "e_A", "e_B_o", "e_M", "e_Q", "reference"],
               [[r["method"], r["scheme"], str(r["N"]),
                 _fmt(r["coeff_seconds"]), _fmt(r["run_seconds"]),
                 _fmt(r["e_A"]), _fmt(r["e_B_o"]), _fmt(r["e_M"]),
                 _fmt(r["e_Q"]), REFERENCE_ID] for r in rows])
    (out / "bench_meta.json").write_text(json.dumps({
        "reference": REFERENCE_ID,
        "reps": config.reps,
        "timing_note": "median wall-clock seconds; machine-dependent",
    }, indent=2) + "\n", encoding="utf-8")
    for r in rows:
        e_max = max(r[f"e_{q}"] for q in _QUANTITIES)
        print(f"{r['method']:9s} {r['scheme']:22s} N={r['N']:5d} "
              f"coeff {r['coeff_seconds'] * 1e3:9.3f} ms "
              f"run {r['run_seconds'] * 1e3:9.3f} ms "
              f"e_max {e_max:.3e}")
    print(f"wrote {out / 'bench.csv'} (times are machine-dependent)")
    return EXIT_OK


def cmd_validate(args) -> int:
    report = run_validation(seed=args.seed, count=args.count,
                            steps=args.steps)
    print(f"validated {report.count} systems "
          f"(seed={report.seed}, N={report.steps}) "
          f"in {report.elapsed:.1f} s")
    print(f"pairwise method gap   {report.max_pairwise:.3e}  "
          f"(limit {VALIDATION_LIMITS['pairwise']:.0e})")
    print(f"gap vs oracle         {report.max_vs_oracle:.3e}  "
          f"(limit {VALIDATION_LIMITS['oracle']:.0e})")
    print(f"Q, R_ww PSD           {'yes' if report.all_psd else 'NO'}")
    print(f"zero-delay pipeline   {report.max_zero_delay_gap:.3e}  "
          f"(limit {VALIDATION_LIMITS['zero_delay']:.0e})")
    print(f"transition split      {report.max_gamma_gap:.3e}  "
          f"(limit {VALIDATION_LIMITS['gamma']:.0e})")
    print(f"input-integral forms  {report.max_bdot_gap:.3e}  "
          f"(limit {VALIDATION_LIMITS['bdot']:.0e})")
    failures = report.failures()
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqdisc",
        description="Exact discretization of discounted LQ optimal control "
                    "problems with piecewise-constant delayed inputs.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("discretize", help="discretize one model")
    d.add_argument("--model", required=True, help="model JSON file")
    d.add_argument("--method", default="expm", choices=METHODS)
    d.add_argument("--scheme", default="rk4",
                   help=f"named scheme, one of {', '.join(SCHEME_NAMES)}")
    d.add_argument("--steps", type=int, default=1024)
    d.add_argument("--tableau", default=None,
                   help="JSON file with a custom Butcher tableau")
    d.add_argument("--out", default=".")
    d.add_argument("--verify", action="store_true",
                   help="print errors against the expm method")

    c = sub.add_parser("convergence", help="error-vs-N study")
    c.add_argument("--model", required=True)
    c.add_argument("--method", default="fixed,doubling")
    c.add_argument("--scheme", default=",".join(SCHEME_NAMES))
    c.add_argument("--steps", default="16,32,64,128,256,512,1024")
    c.add_argument("--out", default=".")
    c.add_argument("--verify", action="store_true",
                   help="cross-check the reference against the "
                        "high-resolution quadrature oracle")

    b = sub.add_parser("bench", help="median wall-clock timing")
    b.add_argument("--model", required=True)
    b.add_argument("--method", default="fixed,doubling,expm")
    b.add_argument("--scheme", default="rk4")
    b.add_argument("--steps", default="1024")
    b.add_argument("--reps", type=int, default=9)
    b.add_argument("--out", default=".")

    v = sub.add_parser("validate", help="randomized cross-method sweep")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=50)
    v.add_argument("--steps", type=int, default=1024)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"discretize": cmd_discretize, "convergence": cmd_convergence,
                "bench": cmd_bench, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except ModelError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SingularMatrixError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
