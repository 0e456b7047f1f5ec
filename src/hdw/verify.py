"""Executable certification of the bracket calculus at desk scale.

Each check returns a :class:`VerificationReport`; only the Jacobi check's
finite-difference oracle draws, from the seed recorded in its report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .bracket import (ConnectionCheck, _affine_form, _current_bracket_forms,
                      _current_bracket_pairs, _linear_form, _representation_form,
                      bracket_affine, connection_is_hamiltonian, current_bracket, gamma_h)
from .bundle import (Chart, Current, CurrentForms, DensityCoefficient, DensityForm,
                     HamiltonianSection, current_coefficients)
from .expr import Const, Expression, Mul, NormalForm, Var, _Jet
from .models import model_td_mechanics, WaveModel, abelian_algebra, ym_residual
from .solver import (GridSection, OdeState, SolverConfig, _ode_tables, ddx, evolve_field,
                     evolve_ym_abelian)

__all__ = [
    "VerificationReport", "random_polynomial", "random_current",
    "check_representation", "check_jacobi_currents", "check_m1_reduction",
    "check_connection_class", "check_bracket_evolution_ode",
    "check_bracket_evolution_field", "check_bracket_evolution_converse",
    "check_ym_conservation", "SUITES", "run_suites",
]


@dataclass
class VerificationReport:
    name: str
    certifies: str
    passed: bool
    max_residual: float
    tolerance: float
    sample_count: int
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        samples = "exact" if self.sample_count == 0 else f"{self.sample_count} samples"
        return (f"[{status}] {self.name}: max residual {self.max_residual:.3e} "
                f"(tolerance {self.tolerance:.1e}, {samples})")

    def to_dict(self) -> dict:
        """The report without its ``runtime_s`` detail, so that it is byte-stable."""
        return {
            "name": self.name,
            "certifies": self.certifies,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "details": {k: v for k, v in self.details.items() if k != "runtime_s"},
        }


# ---------------------------------------------------------------------------
# Randomized inputs and jets

# a drawn coefficient is k/_DENOMINATOR, k uniform in [-_DENOMINATOR, _DENOMINATOR]
_DENOMINATOR = 64


def random_polynomial(rng: np.random.Generator, names: tuple[str, ...],
                      degree: int = 2) -> Expression:
    """Dense polynomial with coefficients k/64, k uniform in [-64, 64], in canonical form."""
    return _random_form(rng, names, degree).to_expr()


def random_current(rng: np.random.Generator, chart: Chart, degree: int = 2) -> Current:
    names = chart.x_names + chart.u_names
    return CurrentForms(chart, tuple(_random_form(rng, names, degree) for _ in range(chart.n)),
                        tuple(_random_form(rng, names, degree) for _ in range(chart.m))
                        ).to_current()


def _random_form(rng: np.random.Generator, names: tuple[str, ...], degree: int) -> NormalForm:
    """The normal form :func:`random_polynomial` draws, without its tree."""
    return NormalForm.polynomial(
        [(combo, int(rng.integers(-_DENOMINATOR, _DENOMINATOR + 1)) / _DENOMINATOR)
         for d in range(degree + 1) for combo in combinations_with_replacement(names, d)])


def _jet(name: str, names: tuple[str, ...]) -> NormalForm:
    """An undetermined smooth function ``name`` of ``names``, as one jet atom."""
    return NormalForm.atom(_Jet(name, names))


def _jet_current(prefix: str, chart: Chart) -> CurrentForms:
    """The current whose coefficients Y^a and beta^i are undetermined smooth
    functions of (x, u)."""
    names = chart.x_names + chart.u_names
    return CurrentForms(chart,
                        tuple(_jet(f"{prefix}Y{a}", names) for a in range(1, chart.n + 1)),
                        tuple(_jet(f"{prefix}b{i}", names) for i in range(1, chart.m + 1)))


# ---------------------------------------------------------------------------
# Algebraic checks
#
# Each identity is proved on jets: every coefficient of a current, density
# or Hamiltonian is an undetermined smooth function whose partial
# derivatives are atoms too, with mixed partials equal.  That is the free
# differential algebra, so an empty residual proves the identity for every
# smooth input on the chart, and a non-empty one is a counterexample.
# Every coefficient formed is a small integer, so the arithmetic is exact.

# the chart of the representation and Jacobi proofs
_CHART = Chart(m=2, n=2)


def _terms_left(forms) -> list[float]:
    """The |coefficient| of each term left in the residual ``forms``; a report
    gives their count and their largest value (a nan stays nan)."""
    return [abs(c) for f in forms for c in f.terms.values()]


def check_representation() -> VerificationReport:
    """Affine-representation identity for every smooth pair of currents and
    Hamiltonian on m = n = 2."""
    chart = _CHART
    H = _jet("h", tuple(sorted(chart.names)))
    a, b = (_jet_current(prefix, chart) for prefix in "ab")
    left = _terms_left([_representation_form(a, b, H)])
    return VerificationReport(
        name="representation_identity",
        certifies="the linear-affine bracket represents the current algebra on "
                  "the affine space of Hamiltonian sections",
        passed=not left, max_residual=float(np.max(left, initial=0.0)), tolerance=0.0,
        sample_count=0, details={"residual_terms": len(left)})


def _fd_current_bracket(a: Current, b: Current, binding: dict[str, float],
                        h: float = 1e-6) -> list[float]:
    """Finite-difference oracle for the current bracket at one point.

    Evaluates -( [Y,Z] , i_Y d(beta_b) - i_Z d(beta_a) ) using central
    differences for every u-derivative: each expression is evaluated once,
    at the point and at its 2n shifts u^k +- h.
    """
    n = a.chart.n
    arrays = {name: np.full(2 * n + 1, value) for name, value in binding.items()}
    for k, name in enumerate(a.chart.u_names):  # points 2k+1, 2k+2: u^k + h, u^k - h
        arrays[name][2 * k + 1:2 * k + 3] += (h, -h)

    def at(exprs) -> list[list[float]]:
        return [np.broadcast_to(e.eval_many(arrays), (2 * n + 1,)).tolist() for e in exprs]

    def d_du(v: list[float], k: int) -> float:
        return (v[2 * k + 1] - v[2 * k + 2]) / (2.0 * h)

    Ya, Yb = at(a.Y), at(b.Y)
    out = []
    for fa, fb in zip(Ya + at(a.beta), Yb + at(b.beta)):
        acc = 0.0
        for k in range(n):
            acc += Ya[k][0] * d_du(fb, k) - Yb[k][0] * d_du(fa, k)
        out.append(-acc)
    return out


def check_jacobi_currents(seed: int = 1, trials: int = 20,
                          oracle_tol: float = 1e-5) -> VerificationReport:
    """Lie algebra laws of the current bracket for every smooth triple of
    currents on m = n = 2, and the public bracket against a finite-difference
    oracle on ``trials`` random pairs."""
    chart = _CHART
    a, b, c = (_jet_current(prefix, chart) for prefix in "abc")
    ab, ba, bc, ca = (_current_bracket_forms(x, y) for x, y in ((a, b), (b, a), (b, c), (c, a)))
    antisym = _terms_left(map(NormalForm.sum, zip(ab.Y + ab.beta, ba.Y + ba.beta)))
    # the coefficients of [[a,b],c] + [[b,c],a] + [[c,a],b], each one dot product
    cyclic = zip(*(_current_bracket_pairs(x, y) for x, y in ((ab, c), (bc, a), (ca, b))))
    jacobi = _terms_left(NormalForm.dot(p + q + r) for p, q, r in cyclic)

    rng = np.random.default_rng(seed)
    names = tuple(sorted(chart.names))
    worst_oracle = 0.0
    for _ in range(trials):
        a, b = random_current(rng, chart), random_current(rng, chart)
        ab_tree = current_bracket(a, b)
        binding = {name: float(rng.uniform(-1.0, 1.0)) for name in names}
        oracle = _fd_current_bracket(a, b, binding)
        direct = [e.eval(binding) for e in ab_tree.Y + ab_tree.beta]
        for o, d in zip(oracle, direct):
            worst_oracle = max(worst_oracle, abs(o - d) / (1.0 + abs(d)))

    return VerificationReport(
        name="current_lie_algebra",
        certifies="the current bracket is an antisymmetric Lie bracket matching "
                  "the commutator/contraction form",
        passed=not jacobi and not antisym and worst_oracle <= oracle_tol,
        max_residual=float(np.max(jacobi, initial=0.0)), tolerance=0.0, sample_count=0,
        seed=seed, details={"antisymmetry": float(np.max(antisym, initial=0.0)),
                            "oracle_mismatch": worst_oracle,
                            "residual_terms": len(jacobi) + len(antisym)})


def check_m1_reduction() -> VerificationReport:
    """For a 1-D base the brackets of every smooth pair of density
    coefficients on n = 2 reduce to the time-dependent Poisson bracket."""
    chart = Chart(m=1, n=2)
    names = tuple(sorted(chart.names))
    F, G = _jet("f", names), _jet("g", names)
    f = DensityForm(chart, F)
    canonical = NormalForm.dot(
        pair for ua, pa in zip(chart.u_names, chart.p_names)
        for pair in ((F.diff(ua), G.diff(pa)), (-F.diff(pa), G.diff(ua))))
    left = _terms_left([NormalForm.sum([_linear_form(f, G), -canonical]),
                        NormalForm.sum([_affine_form(f, G), -F.diff("x1"), -canonical]),
                        _linear_form(f, F)])
    return VerificationReport(
        name="mechanics_reduction",
        certifies="1-D base brackets equal the canonical time-dependent Poisson bracket",
        passed=not left, max_residual=float(np.max(left, initial=0.0)), tolerance=0.0,
        sample_count=0, details={"residual_terms": len(left)})


def check_connection_class() -> VerificationReport:
    """Equivalence-class law for evolution connections.

    Trace-free momentum perturbations must be accepted, trace
    perturbations rejected.
    """
    chart = Chart(m=2, n=1)
    H = Var("p1_1") ** 2 / 2 + Var("p2_1") ** 2 / 2 + Var("u1") ** 2 / 2 + Var("x1") * Var("u1")
    h = HamiltonianSection(chart, H)
    g = gamma_h(h)
    m, n = chart.m, chart.n

    def base_connection():
        Hu = [[g.hu[i][a] for a in range(n)] for i in range(m)]
        Hp = [[[Mul(Const(1.0 / m), g.hp[a]) if j == i else Const(0.0)
                for j in range(m)] for a in range(n)] for i in range(m)]
        return Hu, Hp

    results: dict[str, ConnectionCheck] = {}
    Hu, Hp = base_connection()
    results["canonical"] = connection_is_hamiltonian(Hu, Hp, h)

    Hu, Hp = base_connection()
    bump = Var("u1") * Var("x2") + Const(0.7)  # arbitrary trace-free direction
    Hp[0][0][0] = Hp[0][0][0] + bump
    Hp[1][0][1] = Hp[1][0][1] - bump
    results["trace_free_perturbation"] = connection_is_hamiltonian(Hu, Hp, h)

    Hu, Hp = base_connection()
    Hp[0][0][0] = Hp[0][0][0] + Const(1.0)
    results["trace_perturbation"] = connection_is_hamiltonian(Hu, Hp, h)

    passed = (results["canonical"].is_hamiltonian
              and results["trace_free_perturbation"].is_hamiltonian
              and not results["trace_perturbation"].is_hamiltonian)
    return VerificationReport(
        name="connection_class",
        certifies="only the u-components and the momentum trace of a connection "
                  "are constrained by the Hamiltonian section",
        passed=passed,
        max_residual=results["trace_free_perturbation"].max_residual,
        tolerance=1e-9, sample_count=20,
        details={k: {"is_hamiltonian": v.is_hamiltonian, "max_residual": v.max_residual}
                 for k, v in results.items()})


# ---------------------------------------------------------------------------
# Bracket evolution law along computed trajectories


def _five_point_ddt(g: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order central derivative in time (interior points)."""
    return (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * dt)


def _ratios(values: list[float]) -> list[float]:
    return [values[k] / values[k + 1] for k in range(len(values) - 1)
            if values[k + 1] > 0.0]


def check_bracket_evolution_ode(dts=(4e-3, 2e-3, 1e-3), t_final: float = 10.0,
                                expected_ratio: float = 16.0, band: float = 0.20,
                                final_tol: float = 1e-8) -> VerificationReport:
    """Bracket evolution law along an RK4 oscillator trajectory.

    The pullback time derivative of an observable must match its bracket
    with the Hamiltonian section; the defect converges at the integrator
    order (ratio 16 per time-step halving for RK4, fourth-order time
    stencil).
    """
    # frequency-2 oscillator: keeps the dt^4 defect well above the
    # round-off floor of the time stencil at the finest level
    h = model_td_mechanics("2*u1^2", n=1)
    chart = h.chart
    f0 = DensityCoefficient(chart, "u1^2*p1_1 + x1*u1 + p1_1^3/3")
    rhs_expr = bracket_affine(f0, h).F

    residuals = []
    for dt in dts:
        config = SolverConfig(dt=dt, t_final=t_final)
        rows = np.concatenate(list(_ode_tables(
            h, OdeState(t=0.0, u=np.array([1.0]), p=np.array([0.0])), config)))
        t, u1, p1 = np.ascontiguousarray(rows.T)
        arrays = {"x1": t, "u1": u1, "p1_1": p1}
        g = np.atleast_1d(f0.F.eval_many(arrays))
        lhs = _five_point_ddt(g, dt)
        rhs = np.broadcast_to(np.atleast_1d(rhs_expr.eval_many(arrays)), t.shape)[2:-2]
        residuals.append(float(np.max(np.abs(lhs - rhs))))

    ratios = _ratios(residuals)
    ratio_ok = all(abs(r - expected_ratio) <= band * expected_ratio for r in ratios)
    passed = ratio_ok and residuals[-1] <= final_tol
    return VerificationReport(
        name="bracket_evolution_ode",
        certifies="along the RK4 trajectory an observable's defect from the bracket "
                  "evolution law converges at fourth order in dt (1-D base)",
        passed=passed, max_residual=residuals[-1], tolerance=final_tol,
        sample_count=sum(int(round(t_final / dt)) for dt in dts),
        details={"residuals": residuals, "ratios": ratios,
                 "expected_ratio": expected_ratio})


@lru_cache(maxsize=None)
def _wave_setup(K: int):
    """The wave model's trajectory at K grid points, for the field suites.

    Memoised so that the suites of one :func:`run_suites` call share each
    resolution; ``run_suites`` clears the memo when it returns or raises.
    A check called on its own leaves its trajectories here until then.
    """
    model = WaveModel()
    dx = 2.0 * np.pi / K
    config = SolverConfig(dt=dx / 4.0, t_final=1.0, K=K, dx=dx)
    x = config.x0 + dx * np.arange(K)
    u0 = np.sin(x)[None, :]
    M0 = -np.cos(x)[None, :]
    traj = evolve_field(model, config, u0, M0)
    return model, config, x, traj


def _field_bracket_residual(traj: list[GridSection], current: Current,
                            h: HamiltonianSection, dt: float, dx: float) -> float:
    """Max defect of d(pullback)/dt + d(pullback)/dx = bracket, central stencils."""
    a1, a2 = current_coefficients(current)
    rhs_expr = bracket_affine(current, h).F

    t = np.array([s.t for s in traj])
    K = traj[0].x.shape[0]
    arrays = {"x1": t[:, None] * np.ones((1, K)),
              "x2": np.broadcast_to(traj[0].x, (len(traj), K)),
              "u1": np.stack([s.u[0] for s in traj]),
              "p1_1": np.stack([s.M[0] for s in traj]),
              "p2_1": np.stack([s.P[0] for s in traj])}
    A1 = np.broadcast_to(np.atleast_2d(a1.eval_many(arrays)), (len(traj), K))
    A2 = np.broadcast_to(np.atleast_2d(a2.eval_many(arrays)), (len(traj), K))
    lhs = (A1[2:] - A1[:-2]) / (2.0 * dt) + ddx(A2, dx)[1:-1]
    rhs = np.broadcast_to(np.atleast_2d(rhs_expr.eval_many(arrays)), (len(traj), K))[1:-1]
    return float(np.max(np.abs(lhs - rhs)))


def check_bracket_evolution_field(Ks=(64, 128, 256), expected_ratio: float = 4.0,
                                  band: float = 0.25,
                                  solution_tol: float = 1e-3) -> VerificationReport:
    """Bracket evolution law along the computed wave-model trajectory."""
    residual_table: dict[str, list[float]] = {}
    solution_error = None
    for K in Ks:
        model, config, x, traj = _wave_setup(K)
        chart = model.chart
        currents = {
            "momentum_flux": Current(chart, (Const(1.0),), (Const(0.0), Const(0.0))),
            "weighted_flux": Current(chart, (Var("u1"),), (Const(0.0), Const(0.0))),
        }
        for name, cur in currents.items():
            res = _field_bracket_residual(traj, cur, model.hamiltonian,
                                          config.dt, config.dx)
            residual_table.setdefault(name, []).append(res)
        if K == 128:
            final = traj[-1]
            exact = np.sin(x - final.t)
            solution_error = float(np.max(np.abs(final.u[0] - exact)))

    ratio_ok = True
    all_ratios = {}
    for name, residuals in residual_table.items():
        ratios = _ratios(residuals)
        all_ratios[name] = ratios
        ratio_ok &= all(abs(r - expected_ratio) <= band * expected_ratio for r in ratios)
    passed = ratio_ok and solution_error is not None and solution_error <= solution_tol
    worst = max(res[-1] for res in residual_table.values())
    return VerificationReport(
        name="bracket_evolution_field",
        certifies="along the method-of-lines trajectory two currents' defects from "
                  "the bracket evolution law converge at second order under grid "
                  "refinement (1+1-D wave model)",
        passed=passed, max_residual=worst, tolerance=solution_tol,
        sample_count=sum(Ks),
        details={"residuals": residual_table, "ratios": all_ratios,
                 "solution_error_K128": solution_error,
                 "expected_ratio": expected_ratio})


def check_bracket_evolution_converse(Ks=(128, 256), perturbation: float = 1e-3,
                                     floor: float = 1e-4) -> VerificationReport:
    """A perturbed trajectory violates the bracket evolution law persistently.

    The momentum field is corrupted by a smooth 1e-3 wave that is not a
    solution mode; the defect must stay above the floor and must not
    decrease under refinement.
    """
    residuals = []
    for K in Ks:
        model, config, x, traj = _wave_setup(K)
        corrupted = []
        for s in traj:
            bump = perturbation * np.sin(s.x - 2.0 * s.t)[None, :]
            corrupted.append(GridSection(t=s.t, x=s.x, u=s.u, M=s.M + bump, P=s.P))
        cur = Current(model.chart, (Const(1.0),), (Const(0.0), Const(0.0)))
        residuals.append(_field_bracket_residual(corrupted, cur, model.hamiltonian,
                                                 config.dt, config.dx))
    passed = all(r >= floor for r in residuals) and residuals[-1] >= 0.5 * residuals[0]
    return VerificationReport(
        name="bracket_evolution_converse",
        certifies="the bracket evolution law detects non-solutions: a perturbed "
                  "trajectory keeps a bounded-away defect under refinement",
        passed=passed, max_residual=residuals[-1], tolerance=floor,
        sample_count=sum(Ks), details={"residuals": residuals})


def check_ym_conservation(Ks=(64, 128, 256), steps: int = 1000,
                          const_tol: float = 1e-12, expected_ratio: float = 4.0,
                          band: float = 0.25) -> VerificationReport:
    """Conservation laws of the 1+1-D abelian gauge field in temporal gauge."""
    algebra = abelian_algebra(1)

    # spatially constant momentum is preserved exactly
    K = 64
    dx = 2.0 * np.pi / K
    config = SolverConfig(dt=1e-3, t_final=steps * 1e-3, K=K, dx=dx)
    E0 = np.full(K, 1.5)
    u_traj, pi_traj = evolve_ym_abelian(E0, np.zeros(K), config)
    drift = float(np.max(np.abs(pi_traj - E0[None, :, None])))
    norms_const = ym_residual(u_traj[:5], pi_traj[:5], algebra, config.dt, dx)

    # discrete Gauss operator converges at stencil order on a smooth field
    gauss_errors = []
    for K in Ks:
        dx = 2.0 * np.pi / K
        cfg = SolverConfig(dt=dx / 4.0, t_final=dx, K=K, dx=dx)
        x = dx * np.arange(K)
        u_traj, pi_traj = evolve_ym_abelian(np.sin(x), np.zeros(K), cfg)
        norms = ym_residual(u_traj, pi_traj, algebra, cfg.dt, dx)
        # continuum Gauss residual of sin is cos with unit max norm
        gauss_errors.append(abs(norms["gauss"]["max"] - 1.0))
    ratios = _ratios(gauss_errors)
    ratio_ok = all(abs(r - expected_ratio) <= band * expected_ratio for r in ratios)
    passed = (drift <= const_tol and ratio_ok
              and norms_const["gauss"]["max"] <= const_tol
              and norms_const["evolution"]["max"] <= const_tol)
    return VerificationReport(
        name="ym_conservation",
        certifies="temporal-gauge abelian evolution preserves the momentum field "
                  "and the discrete Gauss operator converges at stencil order",
        passed=passed, max_residual=drift, tolerance=const_tol,
        sample_count=steps + sum(Ks),
        details={"constant_E_drift": drift, "gauss_errors": gauss_errors,
                 "ratios": ratios, "constant_norms": norms_const})


SUITES = {
    "representation": check_representation,
    "jacobi": check_jacobi_currents,
    "m1-reduction": check_m1_reduction,
    "connection": check_connection_class,
    "evolution-ode": check_bracket_evolution_ode,
    "evolution-field": check_bracket_evolution_field,
    "evolution-converse": check_bracket_evolution_converse,
    "yang-mills": check_ym_conservation,
}


def run_suites(names=None, seed: int | None = None) -> list[VerificationReport]:
    """Run the named suites (all by default) in declaration order."""
    selected = list(SUITES) if not names else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s) {unknown}; available: {list(SUITES)}")
    reports = []
    try:
        for name in selected:
            check = SUITES[name]
            start = time.perf_counter()
            if seed is not None and "seed" in check.__code__.co_varnames:
                report = check(seed=seed)
            else:
                report = check()
            report.details["runtime_s"] = round(time.perf_counter() - start, 3)
            reports.append(report)
    finally:
        _wave_setup.cache_clear()  # no trajectory outlives the run
    return reports
