"""Command-line front end and experiment harness.

Subcommands:

* ``discretize``: one model, one method, result JSON plus per-stage CSV.
* ``convergence``: error-vs-N grid against the matrix-exponential
  reference, with a fitted order per (method, scheme).
* ``bench``: median wall-clock timing per method, coefficient
  precomputation timed separately.
* ``validate``: randomized sweep checking the three methods against each
  other, against the quadrature oracle, and against structural identities.

CSV output is RFC 4180: a header row, floats as ``%.16e``, the reference
id last. ``convergence.csv`` holds the errors e_A, e_B_o, e_M, e_Q per
(method, scheme, N), ``orders.csv`` the points fitted and the order per
(method, scheme), ``bench.csv`` each grid row's errors and median
coeff_seconds and run_seconds. Everything runs sequentially.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import statistics
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np

from .matcore import (DimensionError, DomainError, NumericalError, expm,
                      is_psd, max_abs)
from .model import (ContinuousStateSpace, CostSpec, DelayRealization,
                    ModelError, load_model, realize_delays)
from .exactdefs import (CoreResult, DeqSystem, b_alternative, build_deq,
                        oracle_quadrature)
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
CONVERGENCE_METHODS = ("fixed", "doubling")
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
# (SystemCheck field, failure label, VALIDATION_LIMITS key, summary label)
_LIMITED_CHECKS = (
    ("pairwise", "pairwise", "pairwise", "pairwise method gap"),
    ("vs_oracle", "oracle", "oracle", "gap vs oracle"),
    ("zero_delay_gap", "zero-delay gap", "zero_delay", "zero-delay pipeline"),
    ("gamma_gap", "gamma identity", "gamma", "transition split"),
    ("bdot_gap", "B-form gap", "bdot", "input-integral forms"),
)


def errors_against(core, ref) -> dict:
    """Elementwise-max errors on (A, B_o, M, Q) between two result sets."""
    return {f"e_{q}": max_abs(getattr(core, q) - getattr(ref, q))
            for q in _QUANTITIES}


def fit_order(steps, errors):
    """Least-squares order: -slope of log2(e) vs log2(N), e > ORDER_FIT_FLOOR.

    Returns (order, points_used); order is NaN with fewer than two usable
    points.
    """
    pts = [(n, e) for n, e in zip(steps, errors) if e > ORDER_FIT_FLOOR]
    if len(pts) < 2:
        return math.nan, len(pts)
    x = np.log2([float(p[0]) for p in pts])
    y = np.log2([p[1] for p in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope), len(pts)


def _run_steps(deq: DeqSystem, method: str, tableau: ButcherTableau,
               coeffs) -> CoreResult:
    """The `fixed` or `doubling` result from one set of coefficients."""
    if method == "fixed":
        return integrate(coeffs, deq)
    return discretize_step_doubling(
        deq, tableau, coeffs.n_steps.bit_length() - 1, coeffs=coeffs)


def _check_grid(methods, schemes, steps, reps: int, known=METHODS) -> None:
    """Refuse a study grid before any of it is computed. Every scheme
    named is checked, also when only expm rows would run."""
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    for m in methods:
        if m not in known:
            raise DomainError(f"unknown method {m!r}; choose from {known}")
    for s in schemes:
        named_tableau(s)
    for n in steps:
        if n < 1:
            raise DomainError(f"steps must be >= 1, got {n}")


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
    """The (method, scheme, N) study grid, run sequentially in that order:
    per row the medians over reps of the coefficient and the run seconds,
    and the errors against `reference` (expm when None). An expm row has
    scheme "-", N 0 and no coefficient time."""
    _check_grid(methods, schemes, steps, reps)
    ref = reference if reference is not None else discretize_expm(deq)
    rows = []
    for m in methods:
        for s, n in ([("-", 0)] if m == "expm" else product(schemes, steps)):
            if m == "expm":
                coeff_t = 0.0
                run_t, core = _median_time(lambda: discretize_expm(deq), reps)
            else:
                tb = named_tableau(s)
                coeff_t, coeffs = _median_time(
                    lambda: build_coefficients(deq, tb, n), reps)
                run_t, core = _median_time(
                    lambda: _run_steps(deq, m, tb, coeffs), reps)
            rows.append({"method": m, "scheme": s, "N": n,
                         "coeff_seconds": coeff_t, "run_seconds": run_t,
                         **errors_against(core, ref)})
    return rows


def convergence_rows(deq: DeqSystem, methods, schemes, steps,
                     reference=None) -> list[dict]:
    """The study grid of bench_rows at one rep, fixed and doubling only."""
    _check_grid(methods, schemes, steps, 1, CONVERGENCE_METHODS)
    return bench_rows(deq, methods, schemes, steps, 1, reference)


def fitted_orders(rows: list[dict]) -> list[dict]:
    """Fit one order per (method, scheme) from the max error over targets."""
    groups = {}
    for row in rows:
        ns, es = groups.setdefault((row["method"], row["scheme"]), ([], []))
        ns.append(row["N"])
        es.append(max(row[f"e_{q}"] for q in _QUANTITIES))
    out = []
    for (method, scheme), (ns, es) in groups.items():
        order, points = fit_order(ns, es)
        out.append({"method": method, "scheme": scheme,
                    "order": order, "points": points})
    return out


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

    def _where(self, check: SystemCheck) -> str:
        return (f"(system {check.index}, {check.kind}, mu={check.mu:g}, "
                f"seed {self.seed}; rerun: lqdisc validate --seed {self.seed} "
                f"--start {check.index} --count 1 --steps {self.steps})")

    def failures(self) -> list[str]:
        """One message per violated limit, naming the system that set the
        worst value and the seed that reproduces it. NaN is the worst."""
        out = []
        for field, label, limit, _ in _LIMITED_CHECKS:
            worst = max(self.checks, key=lambda c: (
                math.isnan(getattr(c, field)), getattr(c, field)))
            value = getattr(worst, field)
            if not value <= VALIDATION_LIMITS[limit]:
                out.append(f"{label} {value:.3e} > "
                           f"{VALIDATION_LIMITS[limit]:.0e} "
                           f"{self._where(worst)}")
        bad = [c for c in self.checks if not c.psd_ok]
        if bad:
            out.append("Q or R_ww not positive semidefinite "
                       f"{self._where(bad[0])}")
        return out


def _gamma_identity_gap(real: DelayRealization, deq: DeqSystem,
                        samples: int = 10) -> tuple[float, float, float]:
    """Criterion 6 on the paper's three-block generator, which no method
    forms: built here from the realization, over the slots of `deq`.

    The state is one copy of A_c per distinct fractional part v_b of the
    input columns, fed by the columns with that part: B_1c puts each b in
    the slot of u_{k-m}, B_2c in the next one (the same slot when v = 0),
    and V = diag(v_b I). H_c has H_1c = [[A, B_1c], [0, 0]], H_2c =
    [[V A, V (B_2c - B_1c)], [0, 0]] and H_3c = [[V A, 0], [0, 0]] on its
    diagonal. The three gaps are the largest deviations of Gamma(t) =
    e^{H_1c t} + e^{H_2c t} - e^{H_3c t} from E_1 e^{H_c t} E_2 and of its
    bottom rows from [0 I], at sampled times, and of Gamma(Ts), mapped to
    the physical state (x starts in the first copy and sums them), from
    the product of the span transitions."""
    n_x, n_in = deq.n_x, deq.n_xu - deq.n_x
    parts, copy = np.unique(real.col_v, return_inverse=True)
    N = len(parts) * n_x
    n = N + n_in
    slot = (real.m_bar - real.col_m) * real.n_u + real.col_input
    rows = (copy.reshape(-1, 1) * n_x + np.arange(n_x)).T   # (n_x, cols)
    B_1, B_2 = np.zeros((N, n_in)), np.zeros((N, n_in))
    np.add.at(B_1, (rows, np.searchsorted(deq.slots, slot)), real.B_c)
    np.add.at(B_2, (rows, np.searchsorted(
        deq.slots, slot + (real.col_v > 0) * real.n_u)), real.B_c)
    A = np.kron(np.eye(len(parts)), real.A_c)
    V = np.repeat(parts, n_x)[:, None]
    H_c = np.zeros((3, n, 3, n))
    H_c[0, :N, 0, :N], H_c[0, :N, 0, N:] = A, B_1
    H_c[1, :N, 1, :N] = H_c[2, :N, 2, :N] = V * A
    H_c[1, :N, 1, N:] = V * (B_2 - B_1)
    k = np.arange(3)

    ts = np.linspace(deq.Ts / samples, deq.Ts, samples)
    E = expm(H_c[k, :, k] * ts[:, None, None, None])
    g = E[:, 0] + E[:, 1] - E[:, 2]
    eye = np.eye(n)
    E1, E2 = np.hstack([eye, eye, -eye]), np.vstack([eye, eye, eye])
    stacked = E1 @ expm(H_c.reshape(3 * n, 3 * n) * ts[:, None, None]) @ E2
    bottom = np.hstack([np.zeros((n_in, N)), np.eye(n_in)])
    to_x = np.zeros((deq.n_xu, n))
    to_x[:n_x, :N] = np.tile(np.eye(n_x), len(parts))
    to_x[n_x:, N:] = np.eye(n_in)
    from_x = np.append(np.arange(n_x), np.arange(N, n))  # copy 1, inputs
    product = reduce(lambda a, b: b @ a,
                     expm(deq.G_p * deq.h_p[:, None, None]))
    return (max_abs(g - stacked), max_abs(g[:, N:] - bottom),
            max_abs(to_x @ g[-1][:, from_x] - product))


def _bdot_gap(deq: DeqSystem, ode_steps: int = 2048) -> float:
    """Agreement of direct dB/dt = A_c B + B^(p) integration over each span
    with the exponential-block value of the same integral, the span's T."""
    n_x = deq.n_x
    blocks = expm(deq.G_p * deq.h_p[:, None, None])
    return max(
        max_abs(b_alternative(deq.A_c, G[:n_x, n_x:], h, ode_steps)
                - blk[:n_x, n_x:])
        for G, h, blk in zip(deq.G_p, deq.h_p, blocks))


def _zero_delay_gap(plant: ContinuousStateSpace, cost: CostSpec) -> float:
    """Largest entry gap between the realizations of the plant without
    delays and with explicit zero delays, field by field (inf where a
    shape or a missing G_c differs). Every method's result is a function
    of the realization alone, so equal realizations give equal results."""
    plain, forced = (realize_delays(replace(plant, delays=delays), cost.Ts)
                     for delays in (None, (0.0,) * plant.n_u))
    gap = 0.0
    for f in fields(plain):
        a, b = getattr(plain, f.name), getattr(forced, f.name)
        if a is None or b is None:
            gap = max(gap, 0.0 if a is b else math.inf)
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        gap = max(gap, max_abs(a - b) if a.shape == b.shape else math.inf)
    return gap


def run_validation(seed: int = 0, count: int = 50, steps: int = 1024,
                   start: int = 0) -> ValidationReport:
    """Cross-method, oracle, and structural checks on the random systems
    start .. start + count - 1 of the seed (the earlier ones drawn unused)."""
    if count < 1 or start < 0:
        raise DomainError(f"need count >= 1, start >= 0; got {count}, {start}")
    steps = operator.index(steps)
    rng = np.random.default_rng(seed)
    for i in range(start):
        random_system(rng, i)
    tb = named_tableau("rk4")
    t0 = time.perf_counter()
    checks = []
    for i in range(start, start + count):
        plant, cost, kind = random_system(rng, i)
        real = realize_plant(plant, cost.Ts)
        deq = build_deq(real, cost)
        coeffs = build_coefficients(deq, tb, steps)
        fixed, doubled = (_run_steps(deq, m, tb, coeffs)
                          for m in ("fixed", "doubling"))
        exact = discretize_expm(deq)
        pairwise = max(
            max(errors_against(x, y).values())
            for x, y in ((fixed, doubled), (fixed, exact), (doubled, exact)))
        oracle = oracle_quadrature(deq, panels=4096)
        vs_oracle = max(
            max(errors_against(core, oracle).values())
            for core in (fixed, doubled, exact))
        # the three share one R_ww, from rww_expm
        psd_ok = all(is_psd(core.Q) for core in (fixed, doubled, exact))
        psd_ok = psd_ok and (exact.R_ww is None or is_psd(exact.R_ww))
        checks.append(SystemCheck(
            index=i, kind=kind, mu=cost.mu,
            pairwise=pairwise, vs_oracle=vs_oracle, psd_ok=psd_ok,
            zero_delay_gap=_zero_delay_gap(plant, cost),
            gamma_gap=(max(_gamma_identity_gap(real, deq))
                       if real.col_v.any() else 0.0),
            bdot_gap=_bdot_gap(deq)))
    return ValidationReport(seed=seed, count=count, steps=steps,
                            checks=tuple(checks),
                            elapsed=time.perf_counter() - t0)


# The files each command writes into its --out directory.
OUTPUT_FILES = {
    "discretize": ("result.json", "stages.csv"),
    "convergence": ("convergence.csv", "orders.csv", "convergence_meta.json"),
    "bench": ("bench.csv", "bench_meta.json"),
}


def _check_outputs(args) -> None:
    """Refuse, before any work, an output file that is a directory."""
    for name in OUTPUT_FILES.get(args.command, ()):
        path = Path(args.out) / name
        if path.is_dir():
            raise DomainError(f"--out {args.out}: {path} is a directory")


def _out_dir(path) -> Path:
    """The --out directory, made if missing; exit 2 if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"--out {path}: cannot make the output directory "
                          f"({exc.strerror})") from None
    return out


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
    scheme = (ButcherTableau.from_file(args.tableau) if args.tableau
              else named_tableau(args.scheme or "rk4"))
    dlq = build_discrete_lq(plant, cost, method=args.method, scheme=scheme,
                            steps=args.steps)
    out = _out_dir(args.out)
    json_path, csv_path = out / "result.json", out / "stages.csv"
    export_result_json(dlq, json_path)
    export_stage_csv(dlq, csv_path)
    if args.verify:
        ref = build_discrete_lq(plant, cost, method="expm")
        for q in _QUANTITIES:
            print(f"e({q}) = {max_abs(getattr(dlq, q) - getattr(ref, q)):.16e}")
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_OK


def _study(args, reps: int, known=METHODS):
    """The start of convergence and bench: the model and the grid, checked
    before any work, then the system and its expm reference (None, with
    the failure printed, if that cannot be computed)."""
    plant, cost = _load(args.model)
    grid = (_split_arg(args.method), _split_arg(args.scheme),
            _int_list(args.steps, "--steps"))
    _check_grid(*grid, reps, known)
    deq = build_deq(realize_plant(plant, cost.Ts), cost)
    try:
        return deq, grid, discretize_expm(deq)
    except Exception as exc:
        print(f"reference failure ({REFERENCE_ID}): {exc}", file=sys.stderr)
        return deq, grid, None


def _write_study(out_arg, tables, meta_name, meta) -> Path:
    """Each (file name, columns, dict rows) table as RFC 4180 CSV, floats
    as %.16e and the rest as str, with the reference id last; then the
    metadata JSON."""
    out = _out_dir(out_arg)
    for name, columns, rows in tables:
        with open(out / name, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow((*columns, "reference"))
            writer.writerows(
                [*(f"{r[c]:.16e}" if isinstance(r[c], float) else str(r[c])
                   for c in columns), REFERENCE_ID] for r in rows)
    (out / meta_name).write_text(json.dumps(meta, indent=2) + "\n",
                                 encoding="utf-8")
    return out


def cmd_convergence(args) -> int:
    deq, grid, ref = _study(args, 1, CONVERGENCE_METHODS)
    if ref is None:
        return EXIT_REFERENCE
    secondary = {"id": SECONDARY_REFERENCE_ID, "evaluated": args.verify}
    if args.verify:
        oracle = oracle_quadrature(deq, panels=SECONDARY_PANELS)
        gap = secondary["max_gap"] = max(errors_against(ref, oracle).values())
        if gap > 1e-6:
            print(f"reference failure: {REFERENCE_ID} and "
                  f"{SECONDARY_REFERENCE_ID} disagree by {gap:.3e}",
                  file=sys.stderr)
            return EXIT_REFERENCE

    rows = convergence_rows(deq, *grid, reference=ref)
    orders = fitted_orders(rows)
    out = _write_study(args.out, (
        ("convergence.csv", ("method", "scheme", "N", "e_A", "e_B_o", "e_M",
                             "e_Q"), rows),
        ("orders.csv", ("method", "scheme", "points", "order"), orders),
    ), "convergence_meta.json",
        {"reference": REFERENCE_ID, "secondary_reference": secondary})
    for o in orders:
        print(f"{o['method']:9s} {o['scheme']:22s} "
              f"order {o['order']:7.3f} ({o['points']} points)")
    print(f"wrote {out / 'convergence.csv'} and {out / 'orders.csv'}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.reps < 5:
        raise DomainError(f"timing needs --reps >= 5, got {args.reps}")
    deq, grid, ref = _study(args, args.reps)
    if ref is None:
        return EXIT_REFERENCE
    rows = bench_rows(deq, *grid, args.reps, reference=ref)
    out = _write_study(args.out, (
        ("bench.csv", ("method", "scheme", "N", "coeff_seconds",
                       "run_seconds", "e_A", "e_B_o", "e_M", "e_Q"), rows),
    ), "bench_meta.json", {
        "reference": REFERENCE_ID,
        "reps": args.reps,
        "timing_note": "median wall-clock seconds; machine-dependent",
    })
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
                            steps=args.steps, start=args.start)
    print(f"validated {report.count} systems "
          f"(seed={report.seed}, start={args.start}, N={report.steps}) "
          f"in {report.elapsed:.1f} s")
    lines = [f"{summary:22s}{getattr(report, 'max_' + field):.3e}  "
             f"(limit {VALIDATION_LIMITS[limit]:.0e})"
             for field, _, limit, summary in _LIMITED_CHECKS]
    lines.insert(2, f"Q, R_ww PSD           {'yes' if report.all_psd else 'NO'}")
    print("\n".join(lines))
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
    d.add_argument("--steps", type=int, default=1024)
    scheme = d.add_mutually_exclusive_group()
    # no default: argparse lets a value equal to the default pass the group
    scheme.add_argument("--scheme",
                        help=f"named scheme, one of {', '.join(SCHEME_NAMES)} "
                             "(default rk4)")
    scheme.add_argument("--tableau", default=None,
                        help="JSON file with a custom Butcher tableau "
                             "(instead of --scheme)")
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
    v.add_argument("--start", type=int, default=0)
    v.add_argument("--steps", type=int, default=1024)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"discretize": cmd_discretize, "convergence": cmd_convergence,
                "bench": cmd_bench, "validate": cmd_validate}
    try:
        _check_outputs(args)
        return handlers[args.command](args)
    except ModelError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, DimensionError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
