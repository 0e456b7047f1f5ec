"""Executable certification of the bracket calculus at desk scale.

Each check returns a :class:`VerificationReport`; checks are
reproducible from the seed recorded in the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .bracket import (ConnectionCheck, _current_bracket_forms, _current_bracket_pairs,
                      _max_abs_at, _representation_form, bracket_affine, bracket_linear,
                      connection_is_hamiltonian, current_bracket, gamma_h)
from .bundle import Chart, Current, CurrentForms, DensityCoefficient, HamiltonianSection
from .expr import Const, Expression, Mul, NormalForm, Var
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
        samples = "exact" if self.details.get("exact") else f"{self.sample_count} samples"
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
# Randomized inputs

# a drawn coefficient is k/_DENOMINATOR, k uniform among the _DRAWS integers
# in [-_DENOMINATOR, _DENOMINATOR]
_DENOMINATOR = 64
_DRAWS = 2 * _DENOMINATOR + 1


def random_polynomial(rng: np.random.Generator, names: tuple[str, ...],
                      degree: int = 2) -> Expression:
    """Dense polynomial with coefficients k/64, k uniform in [-64, 64], in canonical form."""
    return _random_form(rng, names, degree).to_expr()


def random_current(rng: np.random.Generator, chart: Chart, degree: int = 2) -> Current:
    return _random_forms(rng, chart, degree).to_current()


def _random_form(rng: np.random.Generator, names: tuple[str, ...], degree: int) -> NormalForm:
    """The normal form :func:`random_polynomial` draws, without its tree."""
    def draw() -> float:
        return int(rng.integers(-_DENOMINATOR, _DENOMINATOR + 1)) / _DENOMINATOR

    terms = [((), draw())]
    for d in range(1, degree + 1):
        terms += [(combo, draw()) for combo in combinations_with_replacement(names, d)]
    return NormalForm.polynomial(terms)


def _random_forms(rng: np.random.Generator, chart: Chart, degree: int = 2) -> CurrentForms:
    """The forms of the current :func:`random_current` draws, without its trees."""
    names = chart.x_names + chart.u_names
    Y = tuple(_random_form(rng, names, degree) for _ in range(chart.n))
    beta = tuple(_random_form(rng, names, degree) for _ in range(chart.m))
    return CurrentForms(chart, Y, beta)


def _sample_bindings(rng: np.random.Generator, names, count: int) -> dict[str, np.ndarray]:
    return {name: rng.uniform(-1.0, 1.0, count) for name in names}


# ---------------------------------------------------------------------------
# Algebraic checks
#
# Each trial builds the residual of an identity as normal forms, one per
# coefficient, from freshly drawn coefficients.  Every coefficient any step
# forms is an integer polynomial of degree at most 3 in the drawn ones, so when
# each drawn coefficient is k/64 with |k| <= 64, it is a multiple of 2^-18; on
# the suites' charts and degree it is also below 2^30 in magnitude (the sum of
# absolute coefficients bounds it, and a product at most multiplies that sum,
# a derivative at most multiplies it by the degree).  Such values are doubles,
# so every product and math.fsum is exact, and a residual form is empty iff
# the residual polynomial vanishes at the draw.  A nonzero polynomial of degree
# d vanishes at a uniform draw from 129 values per coefficient with probability
# at most d/129 (Schwartz 1980, Zippel 1979), so an identity that fails passes
# all trials with probability at most (d/129)^trials.


def _exact_draws(forms) -> bool:
    """True when every coefficient of ``forms`` is k/64 with |k| <= 64."""
    return all(abs(c) <= 1.0 and (c * _DENOMINATOR).is_integer()
               for f in forms for c in f.terms.values())


def _coefficients(c: CurrentForms) -> tuple[NormalForm, ...]:
    return c.Y + c.beta


@dataclass
class _Residuals:
    """The residual forms of one identity over the trials of a suite.

    A trial whose draws are exact passes iff its residual forms are all
    empty; an empty form counts as residual 0.0 and is not evaluated.  Any
    other trial falls back to the sampled check: its residual forms are
    evaluated at the trial's samples and must stay within ``tol``.
    """

    tol: float
    worst: float = 0.0
    terms: int = 0
    exact: bool = True
    passed: bool = True

    def add(self, exact: bool, forms, arrays: dict[str, np.ndarray]) -> bool:
        """Add one trial's residual forms; True when they were evaluated."""
        self.exact &= exact
        terms = sum(len(f.terms) for f in forms)
        if terms:
            self.terms += terms
            value = _max_abs_at(forms, arrays)
            self.worst = float(np.maximum(self.worst, value))  # a nan stays nan
            self.passed &= not exact and value <= self.tol
        return terms > 0

    def details(self, degree: int, trials: int) -> dict:
        bound = (degree / _DRAWS) ** trials if self.exact else None
        return {"exact": self.exact, "residual_terms": self.terms, "false_pass_bound": bound}


def check_representation(seed: int = 0, trials: int = 20, samples: int = 100,
                         tol: float = 1e-9) -> VerificationReport:
    """Affine-representation identity on random polynomial currents and Hamiltonians."""
    rng = np.random.default_rng(seed)
    chart = Chart(m=2, n=2)
    names = tuple(sorted(chart.names))
    residuals, evaluated = _Residuals(tol), 0
    for _ in range(trials):
        a, b = _random_forms(rng, chart), _random_forms(rng, chart)
        H = _random_form(rng, names, 2)
        arrays = _sample_bindings(rng, names, samples)
        evaluated += residuals.add(_exact_draws(_coefficients(a) + _coefficients(b) + (H,)),
                                   [_representation_form(a, b, H)], arrays)
    return VerificationReport(
        name="representation_identity",
        certifies="the linear-affine bracket represents the current algebra on "
                  "the affine space of Hamiltonian sections",
        passed=residuals.passed, max_residual=residuals.worst, tolerance=tol,
        sample_count=evaluated * samples, seed=seed,
        details=residuals.details(3, trials))


def _fd_current_bracket(a: Current, b: Current, binding: dict[str, float],
                        h: float = 1e-6) -> list[float]:
    """Finite-difference oracle for the current bracket at one point.

    Evaluates -( [Y,Z] , i_Y d(beta_b) - i_Z d(beta_a) ) using central
    differences for every u-derivative.
    """
    chart = a.chart

    def d_du(e: Expression, b_idx: int) -> float:
        name = chart.u_names[b_idx]
        up = dict(binding)
        dn = dict(binding)
        up[name] = binding[name] + h
        dn[name] = binding[name] - h
        return (e.eval(up) - e.eval(dn)) / (2.0 * h)

    n, m = chart.n, chart.m
    Yv = [e.eval(binding) for e in a.Y]
    Zv = [e.eval(binding) for e in b.Y]
    out = []
    for al in range(n):
        acc = 0.0
        for be in range(n):
            acc += Yv[be] * d_du(b.Y[al], be) - Zv[be] * d_du(a.Y[al], be)
        out.append(-acc)
    for i in range(m):
        acc = 0.0
        for be in range(n):
            acc += Yv[be] * d_du(b.beta[i], be) - Zv[be] * d_du(a.beta[i], be)
        out.append(-acc)
    return out


def _jacobi_forms(a: CurrentForms, b: CurrentForms, c: CurrentForms,
                  ab: CurrentForms) -> list[NormalForm]:
    """The coefficients of [[a,b],c] + [[b,c],a] + [[c,a],b], given ab = [a,b],
    each summed as one dot product: all empty when the Jacobi identity holds."""
    bc, ca = _current_bracket_forms(b, c), _current_bracket_forms(c, a)
    cyclic = zip(*(_current_bracket_pairs(x, y) for x, y in ((ab, c), (bc, a), (ca, b))))
    return [NormalForm.dot(p + q + r) for p, q, r in cyclic]


def check_jacobi_currents(seed: int = 1, trials: int = 20, samples: int = 100,
                          tol: float = 1e-9, antisym_tol: float = 1e-12,
                          oracle_tol: float = 1e-5) -> VerificationReport:
    """Lie algebra laws of the current bracket on random polynomial currents."""
    rng = np.random.default_rng(seed)
    chart = Chart(m=2, n=2)
    names = tuple(sorted(chart.names))
    jacobi, antisym = _Residuals(tol), _Residuals(antisym_tol)
    worst_oracle, evaluated = 0.0, 0
    for _ in range(trials):
        a = random_current(rng, chart)
        b = random_current(rng, chart)
        fc = _random_forms(rng, chart)
        arrays = _sample_bindings(rng, names, samples)

        # the laws are composed on normal forms; the oracle below checks the
        # public, tree-emitting current_bracket
        ab_tree = current_bracket(a, b)
        fa, fb, ab = map(CurrentForms.of, (a, b, ab_tree))
        exact = _exact_draws(_coefficients(fa) + _coefficients(fb) + _coefficients(fc))
        ba = _current_bracket_forms(fb, fa)
        # "|", not "or": both laws are checked on every trial
        evaluated += (jacobi.add(exact, _jacobi_forms(fa, fb, fc, ab), arrays)
                      | antisym.add(exact, [NormalForm.sum(parts) for parts in
                                            zip(_coefficients(ab), _coefficients(ba))], arrays))

        # structural identity against the derivative-free-path oracle
        binding = {name: float(rng.uniform(-1.0, 1.0)) for name in names}
        oracle = _fd_current_bracket(a, b, binding)
        direct = [e.eval(binding) for e in ab_tree.Y + ab_tree.beta]
        for o, d in zip(oracle, direct):
            worst_oracle = max(worst_oracle, abs(o - d) / (1.0 + abs(d)))

    details = jacobi.details(3, trials)
    details["residual_terms"] += antisym.terms
    return VerificationReport(
        name="current_lie_algebra",
        certifies="the current bracket is an antisymmetric Lie bracket matching "
                  "the commutator/contraction form",
        passed=jacobi.passed and antisym.passed and worst_oracle <= oracle_tol,
        max_residual=jacobi.worst, tolerance=tol,
        sample_count=evaluated * samples, seed=seed,
        details={"antisymmetry": antisym.worst, "oracle_mismatch": worst_oracle, **details})


def check_m1_reduction(seed: int = 2, pairs: int = 20, samples: int = 100,
                       tol: float = 1e-12) -> VerificationReport:
    """For a 1-D base the brackets reduce to the time-dependent Poisson bracket."""
    rng = np.random.default_rng(seed)
    chart = Chart(m=1, n=2)
    names = tuple(sorted(chart.names))
    residuals, evaluated = _Residuals(tol), 0
    for _ in range(pairs):
        f = random_polynomial(rng, names)
        g = random_polynomial(rng, names)
        arrays = _sample_bindings(rng, names, samples)

        fd = DensityCoefficient(chart, f)
        gd = DensityCoefficient(chart, g)
        h = HamiltonianSection(chart, g)

        F, G = NormalForm.of(f), NormalForm.of(g)
        canonical = NormalForm.dot(
            pair for ua, pa in zip(chart.u_names, chart.p_names)
            for pair in ((F.diff(ua), G.diff(pa)), (-F.diff(pa), G.diff(ua))))
        linear = NormalForm.of(bracket_linear(fd, gd).F)
        affine = NormalForm.of(bracket_affine(fd, h).F)
        evaluated += residuals.add(_exact_draws((F, G)),
                                   [NormalForm.sum([linear, -canonical]),
                                    NormalForm.sum([affine, -F.diff("x1"), -canonical])], arrays)

        self_bracket = bracket_linear(fd, fd).F
        if self_bracket != Const(0.0):
            return VerificationReport(
                name="mechanics_reduction",
                certifies="1-D base brackets equal the canonical time-dependent "
                          "Poisson bracket",
                passed=False, max_residual=float("inf"), tolerance=tol,
                sample_count=evaluated * samples, seed=seed,
                details={"self_bracket": str(self_bracket)})
    return VerificationReport(
        name="mechanics_reduction",
        certifies="1-D base brackets equal the canonical time-dependent Poisson bracket",
        passed=residuals.passed, max_residual=residuals.worst, tolerance=tol,
        sample_count=evaluated * samples, seed=seed,
        details=residuals.details(2, pairs))


def check_connection_class(seed: int = 3) -> VerificationReport:
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
        tolerance=1e-9, sample_count=20, seed=seed,
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
        certifies="a trajectory solves the evolution equations iff the bracket "
                  "evolution law holds for every observable (1-D base)",
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
    from .bundle import current_coefficients

    chart = h.chart
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
        certifies="a field trajectory solves the evolution equations iff the "
                  "bracket evolution law holds (1+1-D wave model)",
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
