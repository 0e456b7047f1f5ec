"""Local-coordinate brackets for first-order Hamiltonian field theories.

The package implements the linear-affine bracket calculus of currents
and Hamiltonian sections, desk-scale solvers for the associated
first-order evolution equations, built-in example theories, and an
executable verification suite.
"""

from .expr import (Add, Binding, Const, Div, DomainError, ExprError,
                   Expression, Func, Mul, Neg, ParseError, Pow, Sub,
                   UnboundVariableError, Var, add_all, compile_exprs, parse,
                   simplify)
from .bundle import (EXTENDED_MOMENTUM, Chart, Current, DensityCoefficient,
                     HamiltonianSection, ValidationReport, validate_current)
from .bracket import (ConnectionCheck, GammaSection, PhaseComponents,
                      VerticalField, a_hat, bracket_affine, bracket_linear,
                      connection_is_hamiltonian, current_bracket,
                      dh_components, gamma_h, hamiltonian_field,
                      representation_residual, sharp_aff)
from .models import (ContinuumSpec, GasConstants, LieAlgebraSpec,
                     PerfectGasLegendre, PerfectGasModel, WaveModel,
                     YangMillsModel, abelian_algebra, model_td_mechanics,
                     so3_algebra)
from .solver import (GridSection, HamiltonianSystem, NewtonError, OdeState,
                     SolverConfig, evolve_field, hdw_residual,
                     integrate_ode, reconstruct_P, step_ode_rk4)
from .verify import SUITES, VerificationReport, run_suites

__version__ = "0.1.0"
