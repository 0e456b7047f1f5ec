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
from .bundle import (EXTENDED_MOMENTUM, Chart, Current, CurrentDifferential,
                     DensityCoefficient, HamiltonianSection, ValidationReport,
                     current_coefficients, d_current, extended_density,
                     extract_decomposition, validate_current)
from .bracket import (ConnectionCheck, GammaSection, PhaseComponents,
                      VerticalField, a_hat, bracket_affine, bracket_linear,
                      connection_is_hamiltonian, current_bracket,
                      dh_components, gamma_h, hamiltonian_field,
                      representation_residual, sharp_aff)
from .models import (BUILTIN_ALGEBRAS, ContinuumSpec, GasConstants,
                     LieAlgebraSpec, PerfectGasLegendre, PerfectGasModel,
                     WaveModel, YangMillsModel, abelian_algebra, curvature,
                     legendre_momenta, model_perfect_gas, model_td_mechanics,
                     model_wave, model_yang_mills, piola_inverse,
                     piola_transform, so3_algebra, ym_residual)
from .solver import (GridSection, HamiltonianSystem, NewtonError, OdeState,
                     SolverConfig, evolve_field, evolve_ym_abelian, hdw_residual,
                     integrate_ode, reconstruct_P, step_ode_rk4)
from .verify import SUITES, VerificationReport, run_suites

__version__ = "0.1.0"
