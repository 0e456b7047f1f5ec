"""Built-in example theories: time-dependent mechanics, two 1+1-D continuum
models at fixed constants (the unit wave and the perfect gas with gamma = 1.4,
K = 1), and Yang-Mills fields of a given Lie algebra."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .bundle import Chart, HamiltonianSection
from .expr import (Add, Const, Div, Expression, Func, Mul, NormalForm, Pow, Sub,
                   add_all, parse, simplify)


# ---------------------------------------------------------------------------
# Lie algebras


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants c[gamma][alpha][beta] of a real Lie algebra."""

    dim: int
    c: np.ndarray

    def __post_init__(self):
        n = self.dim
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"Lie algebra dimension must be an integer >= 1, got {n!r}")
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must have shape ({n}, {n}, {n})")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 1e-12:
            raise ValueError("structure constants must be antisymmetric in the lower indices")
        # Jacobi: sum_mu (c^mu_ab c^s_mc + c^mu_bc c^s_ma + c^mu_ca c^s_mb) = 0
        jac = (np.einsum("mab,smc->sabc", c, c)
               + np.einsum("mbc,sma->sabc", c, c)
               + np.einsum("mca,smb->sabc", c, c))
        if np.max(np.abs(jac)) > 1e-12:
            raise ValueError("structure constants violate the Jacobi identity")


def abelian_algebra(dim: int = 1) -> LieAlgebraSpec:
    return LieAlgebraSpec(dim=dim, c=np.zeros((dim, dim, dim)))


def so3_algebra() -> LieAlgebraSpec:
    c = np.zeros((3, 3, 3))
    for g in range(3):
        for a in range(3):
            for b in range(3):
                c[g, a, b] = _levi_civita(a, b, g)
    return LieAlgebraSpec(dim=3, c=c)


def _levi_civita(i: int, j: int, k: int) -> float:
    if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1.0
    if (i, j, k) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return -1.0
    return 0.0


# ---------------------------------------------------------------------------
# Continuum mechanics


def model_td_mechanics(V: Expression | str, n: int = 1) -> HamiltonianSection:
    """Time-dependent mechanics: H = sum p_i^2 / 2 + V(t, q) on an m = 1 chart."""
    chart = Chart(m=1, n=n)
    V = parse(V) if isinstance(V, str) else V
    chart.check_scope(V, "potential")
    if any(name in V.variables() for name in chart.p_names):
        raise ValueError("the potential may not depend on momenta")
    kinetic = add_all(Div(Pow(chart.p(1, a), 2), Const(2.0)) for a in range(1, n + 1))
    return HamiltonianSection(chart, simplify(Add(kinetic, V)))


class WaveModel:
    """Simplified 1+1-D elastic continuum; the wave equation at unit constants.

    Chart coordinates: x1 = t, x2 = x, fiber u1, momenta p1_1 = M
    (momentum density) and p2_1 = P (stress density).
    """

    def __init__(self):
        self.chart = Chart(m=2, n=1)
        M, P = self.chart.p(1, 1), self.chart.p(2, 1)
        # kinetic energy minus the Legendre-inverted simplified stored energy
        H = Sub(Div(Pow(M, 2), Const(2.0)), Div(Pow(P, 2), Const(2.0)))
        self.hamiltonian = HamiltonianSection(self.chart, simplify(H))

    def reconstruct_P(self, du_dx: np.ndarray) -> np.ndarray:
        """Closed-form stress from the deformation gradient: P = -du/dx."""
        return -1.0 * du_dx


class PerfectGasLegendre:
    """Scalar stress/deformation relation of the 1-D perfect gas, gamma = 1.4.

    Forward map: P = f(detF) / detF with f(x) = (gamma-1) K x^(1-gamma);
    the determinant relation detP = f(detF) / detF is inverted in closed
    form, which gamma = 2 would not allow.
    """

    gamma = 1.4
    K = 1.0
    sqrt_g = 1.0

    def energy_density(self, detF: float | np.ndarray):
        """Eulerian internal energy density at the given volume ratio."""
        return self.K * np.asarray(detF, dtype=float) ** (-self.gamma)

    def pressure(self, detF: float | np.ndarray):
        return (self.gamma - 1.0) * self.energy_density(detF) / self.sqrt_g

    def f(self, detF: float | np.ndarray):
        return (self.gamma - 1.0) * self.K * np.asarray(detF, dtype=float) ** (1.0 - self.gamma)

    def forward(self, F: float | np.ndarray):
        """Stress from deformation gradient (scalar case of the closed relation)."""
        F = np.asarray(F, dtype=float)
        if np.any(F <= 0.0):
            raise ValueError("deformation gradient must be positive")
        return self.f(F) / F

    def det_from_stress(self, P: float | np.ndarray):
        P = np.asarray(P, dtype=float)
        if np.any(P <= 0.0):
            raise ValueError(f"state relation not invertible at non-positive stress "
                             f"(offending range [{P.min()}, {P.max()}])")
        return ((self.gamma - 1.0) * self.K / P) ** (1.0 / self.gamma)

    def recover(self, P: float | np.ndarray):
        """Deformation gradient from stress; inverse of :meth:`forward`."""
        detF = self.det_from_stress(P)
        return self.f(detF) / np.asarray(P, dtype=float)


class PerfectGasModel:
    """1-D perfect-gas fluid with closed-form Legendre inversion."""

    def __init__(self):
        self.legendre = leg = PerfectGasLegendre()
        self.chart = Chart(m=2, n=1)
        M, P = self.chart.p(1, 1), self.chart.p(2, 1)
        kinetic = Div(Pow(M, 2), Const(2.0))
        # potential energy (1 + N(gamma-1)) ebar detF = gamma K detF^(1-gamma) with
        # detF recovered from P: detF = ((gamma-1) K / P)^(1/gamma), so the power
        # is one exp of ((1-gamma)/gamma) ln((gamma-1) K / P)
        gamma = leg.gamma
        potential = Mul(Const(gamma * leg.K),
                        Func("exp", Mul(Const((1.0 - gamma) / gamma),
                                        Func("ln", Div(Const((gamma - 1.0) * leg.K), P)))))
        self.hamiltonian = HamiltonianSection(self.chart, simplify(Add(kinetic, potential)))

    def reconstruct_P(self, du_dx: np.ndarray) -> np.ndarray:
        """Stress from the deformation gradient F = du/dx via the state relation."""
        return self.legendre.forward(du_dx)


# ---------------------------------------------------------------------------
# Yang-Mills


class YangMillsModel:
    """Gauge theory on an m-dimensional Euclidean base.

    ``chart`` has n = dim * m fiber coordinates: the connection component
    A^alpha_i is u_k with k = (alpha-1)*m + i (:meth:`fiber_index`).  The
    field momenta pi^{ij}_alpha = -pi^{ji}_alpha are read on the chart as
    p^i_(alpha,j) - p^j_(alpha,i) (:meth:`chart_pi`), and ``hamiltonian``
    is H in them.  The base metric and the pairing on the algebra are the
    identity.
    """

    def __init__(self, algebra: LieAlgebraSpec, m: int = 2):
        if m < 2:
            raise ValueError("gauge fields need at least two base directions")
        self.algebra = algebra
        self.m = m
        self.chart = Chart(m=m, n=algebra.dim * m)
        self.hamiltonian = HamiltonianSection(self.chart, self._build_hamiltonian())

    def fiber_index(self, alpha: int, i: int) -> int:
        if not (1 <= alpha <= self.algebra.dim and 1 <= i <= self.m):
            raise IndexError("gauge-field index out of range")
        return (alpha - 1) * self.m + i

    def u_name(self, alpha: int, i: int) -> str:
        return self.chart.u_name(self.fiber_index(alpha, i))

    def chart_pi(self, i: int, j: int, alpha: int) -> Expression:
        """pi^{ij}_alpha on the chart: p^i_(alpha,j) - p^j_(alpha,i)."""
        return Sub(self.chart.p(i, self.fiber_index(alpha, j)),
                   self.chart.p(j, self.fiber_index(alpha, i)))

    def _build_hamiltonian(self) -> Expression:
        """The canonical tree of the sum over i != j and alpha of pi^2/16 +
        c^gamma_{alpha beta}/4 A^alpha_i A^beta_j pi^{ij}_gamma, with
        pi^{ij}_alpha = :meth:`chart_pi`."""
        n, m, c = self.algebra.dim, self.m, self.algebra.c
        sixteenth = NormalForm.constant(1.0 / 16.0)
        pairs = []
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                forms = [NormalForm.of(self.chart_pi(i, j, al)) for al in range(1, n + 1)]
                pairs += [(sixteenth * f, f) for f in forms]
                pairs += [(NormalForm.polynomial([((self.u_name(al, i), self.u_name(be, j)),
                                                   c[ga - 1, al - 1, be - 1] / 4.0)
                                                  for al in range(1, n + 1)
                                                  for be in range(1, n + 1)]), forms[ga - 1])
                          for ga in range(1, n + 1)]
        return NormalForm.dot(pairs).to_expr()

