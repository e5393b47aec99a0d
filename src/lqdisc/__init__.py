"""Exact discretization of discounted LQ optimal control problems.

Continuous-time problems with piecewise-constant (zero-order-hold) inputs
and input time delays are converted to their exact discrete-time
equivalents (A, B_o, Q, M, q_k, rho_k, R_ww) by one of three
interchangeable methods. Each computes one `Interval` (the transition and
its discounted integrals) and differs only in the seed and how it is
composed: a Runge-Kutta step folded N times (fixed), the same step
powered by squaring (doubling), or exact exponentials over Ts/2^s
squared s times (expm).
"""

from .matcore import DimensionError, DomainError, SingularMatrixError
from .model import (ContinuousStateSpace, CostSpec, DelayRealization,
                    DelayedTransferModel, ModelError, TransferChannel,
                    load_model, parse_model, realize_channel, realize_delays,
                    split_delay)
from .exactdefs import (CoreResult, DeqSystem, Interval, b_alternative,
                        build_deq, compose, oracle_quadrature)
from .fixedstep import (SCHEME_NAMES, ButcherTableau, CoefficientSet,
                        build_coefficients, discretize_fixed, integrate,
                        named_tableau, stage_coefficients)
from .stepdouble import discretize_step_doubling
from .vanloan import discretize_expm, rww_expm
from .lqassemble import (DiscreteLQ, ExpectedCost, StageCosts,
                         assemble_augmented, build_discrete_lq,
                         discretize_core, expected_stage_cost,
                         export_result_json, export_stage_csv, realize_plant,
                         stage_costs)

__version__ = "0.1.0"

__all__ = [
    "DimensionError", "DomainError", "SingularMatrixError",
    "ContinuousStateSpace", "CostSpec", "DelayRealization",
    "DelayedTransferModel", "ModelError", "TransferChannel",
    "load_model", "parse_model", "realize_channel", "realize_delays",
    "split_delay",
    "CoreResult", "DeqSystem", "Interval", "b_alternative", "build_deq",
    "compose", "oracle_quadrature",
    "SCHEME_NAMES", "ButcherTableau", "CoefficientSet",
    "build_coefficients", "discretize_fixed", "integrate", "named_tableau",
    "stage_coefficients",
    "discretize_step_doubling", "discretize_expm", "rww_expm",
    "DiscreteLQ", "ExpectedCost", "StageCosts", "assemble_augmented",
    "build_discrete_lq", "discretize_core", "expected_stage_cost",
    "export_result_json", "export_stage_csv", "realize_plant",
    "stage_costs",
]
