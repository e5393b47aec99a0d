"""Spans around the public layer calls of lqdisc, recorded from outside.

The traced op composes the layers that ``build_discrete_lq`` calls, one
span each. Calls made inside the package (``matcore`` kernels, and the
validate harness internals) are reached by rebinding the names that
``lqdisc.fixedstep``, ``lqdisc.vanloan``, ``lqdisc.exactdefs`` and
``lqdisc.benchcli`` imported, for the duration of ``instrumented()`` only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

# workloads first: importing it puts the checkout's src/ on sys.path
from workloads import MATRICES, STEPS, Tally, run_op
from lqdisc import (DiscreteLQ, assemble_augmented, build_coefficients,
                    build_deq, discretize_expm, discretize_step_doubling,
                    export_result_json, export_stage_csv, integrate,
                    load_model, named_tableau, realize_plant, stage_costs)
from lqdisc.benchcli import run_validation


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    children: float = 0.0       # seconds covered by direct child spans

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children


@dataclass
class Tracer:
    """Spans and counts kept in memory; `cut()` hands over one cycle's."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children += s.seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def cut(self) -> tuple[list, dict]:
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


# (module, imported name, span name): the names rebound while tracing.
REBOUND = (
    ("lqdisc.fixedstep", "solve", "matcore.solve"),
    ("lqdisc.vanloan", "expm", "matcore.expm"),
    ("lqdisc.exactdefs", "expm", "matcore.expm"),
    ("lqdisc.benchcli", "expm", "matcore.expm"),
    ("lqdisc.benchcli", "realize_plant", "model.realize"),
    ("lqdisc.benchcli", "realize_delays", "model.realize"),
    ("lqdisc.benchcli", "build_deq", "exactdefs.build_deq"),
    ("lqdisc.benchcli", "oracle_quadrature", "exactdefs.oracle"),
    ("lqdisc.benchcli", "b_alternative", "exactdefs.b_alternative"),
    ("lqdisc.benchcli", "build_coefficients", "fixedstep.coeff"),
    ("lqdisc.benchcli", "integrate", "fixedstep.integrate"),
    ("lqdisc.benchcli", "discretize_step_doubling", "stepdouble.double"),
    ("lqdisc.benchcli", "discretize_expm", "vanloan.discretize"),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind the REBOUND names to traced wrappers; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name in REBOUND:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def composed_op(tracer: Tracer, path, method: str, scheme: str, out_dir):
    """The steps of build_discrete_lq plus export, one span per layer."""
    span = tracer.span
    with span("model.load"):
        plant, cost = load_model(path)
    with span("model.realize"):
        realization = realize_plant(plant, cost.Ts)
    with span("exactdefs.build_deq"):
        deq = build_deq(realization, cost)
    if method == "expm":
        with span("vanloan.discretize"):
            core = discretize_expm(deq)
    else:
        tableau = named_tableau(scheme)
        with span("fixedstep.coeff"):
            coeffs = build_coefficients(deq, tableau, STEPS)
        if method == "fixed":
            with span("fixedstep.integrate"):
                core = integrate(coeffs, deq)
        else:
            with span("stepdouble.double"):
                core = discretize_step_doubling(
                    deq, tableau, STEPS.bit_length() - 1, coeffs=coeffs)
    with span("lqassemble.augment"):
        A_aug, B_aug, C_aug, D_aug = assemble_augmented(core, realization)
    with span("lqassemble.stage"):
        stages = stage_costs(core.Q, core.M, cost)
    dlq = DiscreteLQ(A=core.A, B_o=core.B_o, Q=core.Q, M=core.M,
                     R_ww=core.R_ww, A_aug=A_aug, B_aug=B_aug, C_aug=C_aug,
                     D_aug=D_aug, stages=stages,
                     provenance={"method": core.method, "scheme": core.scheme,
                                 "steps": core.steps,
                                 "doublings": core.doublings})
    json_path, csv_path = out_dir / "result.json", out_dir / "stages.csv"
    with span("lqassemble.export_json"):
        export_result_json(dlq, json_path)
    with span("lqassemble.export_csv"):
        export_stage_csv(dlq, csv_path)
    tracer.count("lqassemble.result_bytes",
                 os.path.getsize(json_path) + os.path.getsize(csv_path))
    return dlq


LAYERS = ("model.load", "model.realize", "exactdefs.build_deq",
          "fixedstep.coeff", "fixedstep.integrate", "stepdouble.double",
          "vanloan.discretize", "lqassemble.augment", "lqassemble.stage",
          "lqassemble.export_json", "lqassemble.export_csv",
          "exactdefs.oracle", "exactdefs.b_alternative", "matcore.expm",
          "matcore.solve")


def layer_totals(spans: list) -> dict:
    """Seconds per layer and call counts over a list of spans.

    A span nested in a span of the same name is not counted again. The
    validate harness reports its self time: its span minus its children.
    """
    seconds = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    validate_self = 0.0
    for s in spans:
        if s.name == "benchcli.validate":
            validate_self += s.self_seconds
            continue
        if s.name not in seconds:
            continue
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            seconds[s.name] += s.seconds
            calls[s.name] += 1
    return {"seconds": seconds, "calls": calls,
            "validate_self": validate_self}


def equal_results(a, b) -> list[str]:
    """Fields where two DiscreteLQ results are not bit-for-bit equal: the
    matrices, every stage sequence, and the method/scheme/steps record."""
    def same(x, y):
        if isinstance(x, (tuple, list)):
            return len(x) == len(y) and all(map(same, x, y))
        if x is None or y is None:
            return x is y
        return x.shape == y.shape and np.array_equal(x, y)

    diffs = [name for name in MATRICES
             if not same(getattr(a, name), getattr(b, name))]
    diffs += [f"stages.{f.name}" for f in fields(a.stages)
              if not same(getattr(a.stages, f.name),
                          getattr(b.stages, f.name))]
    diffs += [f"provenance.{key}" for key in ("method", "scheme", "steps")
              if a.provenance.get(key) != b.provenance.get(key)]
    return diffs


def run_cycle(kinds, tally: Tally, tracer: Tracer | None = None) -> float:
    """One op of every kind on every model; seconds spent inside the ops.

    Every cycle restarts each kind at its first input, so plain and traced
    cycles do the same work and the counts repeat exactly.
    """
    op = validate = None
    if tracer is not None:
        op = functools.partial(composed_op, tracer)
        validate = tracer.wrap("benchcli.validate", run_validation)
    total = 0.0
    for kind in kinds:
        kind.reset()
        for _ in range(kind.per_cycle):
            total += kind(tally, op if kind.name != "validate" else validate)[0]
    return total


def traced_cycles(kinds, tally: Tally, seconds: float, min_cycles: int = 2):
    """Alternate plain and traced cycles for `seconds`.

    Returns the plain and traced cycle times and, per traced cycle, its
    layer totals and counts.
    """
    tracer = Tracer()
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < min_cycles or time.perf_counter() < t_end:
        # which of the pair goes first alternates, so an order effect cancels
        for with_trace in sorted((False, True), reverse=len(traced) % 2 == 1):
            if not with_trace:
                plain.append(run_cycle(kinds, tally))
                continue
            with instrumented(tracer):
                traced.append(run_cycle(kinds, tally, tracer))
            spans, counts = tracer.cut()
            layers.append((layer_totals(spans), counts))
    return plain, traced, layers


def composition_check(kinds, tally: Tally) -> None:
    """The traced composition must equal build_discrete_lq bit for bit."""
    for kind in kinds:
        if kind.name == "validate":
            continue
        for path in kind.paths:
            a = run_op(path, kind.method, kind.scheme, kind.out_dir)
            b = composed_op(Tracer(), path, kind.method, kind.scheme,
                            kind.out_dir)
            diffs = equal_results(a, b)
            tally.record(1, [f"composition differs in {', '.join(diffs)}"]
                         if diffs else [], f"{kind.name} {path.name}")
