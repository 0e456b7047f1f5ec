"""Built-in example theories: mechanics, continuum models and gauge fields."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .bundle import Chart, HamiltonianSection
from .expr import (Add, Const, Div, Expression, Func, Mul, Neg, NormalForm, Pow, Sub,
                   add_all, parse, simplify)


# ---------------------------------------------------------------------------
# Lie algebras


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants c[gamma][alpha][beta] of a real Lie algebra."""

    dim: int
    c: np.ndarray
    name: str = ""

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
    return LieAlgebraSpec(dim=dim, c=np.zeros((dim, dim, dim)), name=f"abelian({dim})")


def so3_algebra() -> LieAlgebraSpec:
    c = np.zeros((3, 3, 3))
    for g in range(3):
        for a in range(3):
            for b in range(3):
                c[g, a, b] = _levi_civita(a, b, g)
    return LieAlgebraSpec(dim=3, c=c, name="so3")


def _levi_civita(i: int, j: int, k: int) -> float:
    if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return 1.0
    if (i, j, k) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return -1.0
    return 0.0


# ---------------------------------------------------------------------------
# Continuum mechanics


@dataclass(frozen=True)
class GasConstants:
    gamma: float = 1.4
    eps0: float = 1.0
    rho0: float = 1.0
    s0: float = 0.0
    Cv: float = 1.0


@dataclass(frozen=True)
class ContinuumSpec:
    """Constant structure data of a continuum theory.

    ``g`` is the fiber metric, ``G`` the base cometric (both constant,
    symmetric positive definite), ``rho_bar`` the reference mass density
    and ``sigma_bar`` the reference entropy density.
    """

    N: int = 1
    g: np.ndarray = field(default_factory=lambda: np.eye(1))
    G: np.ndarray = field(default_factory=lambda: np.eye(1))
    rho_bar: float = 1.0
    sigma_bar: float = 0.0
    gas: GasConstants | None = None

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        G = np.asarray(self.G, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "G", G)
        for name, mat in (("g", g), ("G", G)):
            if np.max(np.abs(mat - mat.T)) > 1e-14:
                raise ValueError(f"metric {name} must be symmetric")
            if np.any(np.linalg.eigvalsh(mat) <= 0.0):
                raise ValueError(f"metric {name} must be positive definite")
        if self.rho_bar <= 0.0:
            raise ValueError("reference mass density must be positive")


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

    name = "wave"

    def __init__(self, spec: ContinuumSpec | None = None):
        spec = spec or ContinuumSpec()
        if spec.N != 1 or spec.g.shape != (1, 1) or spec.G.shape != (1, 1):
            raise ValueError("the wave model is 1+1-dimensional with scalar metrics")
        self.spec = spec
        self.chart = Chart(m=2, n=1)
        g = float(spec.g[0, 0])
        Ginv = float(spec.G[0, 0])
        rho = spec.rho_bar
        M, P = self.chart.p(1, 1), self.chart.p(2, 1)
        kinetic = Div(Pow(M, 2), Const(2.0 * g * rho))
        # potential part of the simplified stored energy, already Legendre-inverted
        elastic = Neg(Div(Mul(Const(1.0 / (Ginv * g)), Pow(P, 2)), Const(2.0 * rho)))
        self.hamiltonian = HamiltonianSection(self.chart, simplify(Add(kinetic, elastic)))
        self._p_slope = -rho * g * Ginv

    def reconstruct_P(self, du_dx: np.ndarray) -> np.ndarray:
        """Closed-form stress from the deformation gradient: P = -rho g G du/dx."""
        return self._p_slope * du_dx


class PerfectGasLegendre:
    """Scalar stress/deformation relation of the 1-D perfect gas.

    Forward map: P = f(detF) / detF with f(x) = (gamma-1) K x^(1-gamma);
    the determinant relation detP = f(detF)^N / detF is inverted in
    closed form.
    """

    def __init__(self, spec: ContinuumSpec):
        if spec.gas is None:
            raise ValueError("perfect-gas model requires gas constants")
        if spec.N != 1:
            raise ValueError("only the 1-D perfect gas is implemented")
        gas = spec.gas
        self.gamma = gas.gamma
        sqrt_g = float(np.sqrt(np.linalg.det(spec.g)))
        self.sqrt_g = sqrt_g
        entropy_factor = np.exp((spec.sigma_bar / spec.rho_bar - gas.s0 / gas.rho0) / gas.Cv)
        self.K = gas.eps0 * entropy_factor * (spec.rho_bar / (gas.rho0 * sqrt_g)) ** gas.gamma * sqrt_g
        if self.gamma == 2.0:
            raise ValueError("state relation is not invertible for adiabatic index 2")

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

    name = "perfect_gas"

    def __init__(self, spec: ContinuumSpec | None = None):
        spec = spec or ContinuumSpec(gas=GasConstants())
        self.spec = spec
        self.legendre = PerfectGasLegendre(spec)
        self.chart = Chart(m=2, n=1)
        leg = self.legendre
        g_inv = float(np.linalg.inv(spec.g)[0, 0])
        M, P = self.chart.p(1, 1), self.chart.p(2, 1)
        kinetic = Div(Mul(Const(g_inv), Pow(M, 2)), Const(2.0 * spec.rho_bar))
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

