"""Executable certification of the bracket calculus at desk scale.

Each check returns a :class:`VerificationReport`; only the Jacobi check's
finite-difference oracle draws, from the seed recorded in its report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .bracket import (_COEFFICIENT_TOL, ConnectionCheck, PhaseComponents, _affine_form,
                      _connection_check, _current_bracket_forms, _current_bracket_pairs,
                      _largest, _linear_form, _representation_form, _terms_left,
                      bracket_affine, current_bracket, sharp_aff)
from .bundle import (Chart, Current, CurrentForms, DensityCoefficient, DensityForm,
                     HamiltonianSection, current_coefficients)
from .expr import Const, NormalForm, Var, _Jet
from .models import YangMillsModel, model_td_mechanics, so3_algebra, WaveModel
from .solver import GridSection, OdeState, SolverConfig, _ode_tables, ddx, evolve_field

__all__ = [
    "VerificationReport", "check_representation", "check_jacobi_currents",
    "check_m1_reduction", "check_connection_class", "check_bracket_evolution_ode",
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
# Jets


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
        passed=not left, max_residual=_largest(left), tolerance=0.0,
        sample_count=0, details={"residual_terms": len(left)})


def _coefficient_current(prefix: str, chart: Chart) -> CurrentForms:
    """The current whose coefficients Y^a and beta^i are dense degree-<=2
    polynomials in (x, u), each monomial times its own coefficient variable
    (``aY1_0`` ... ``aY1_14`` for Y^1 on m = n = 2).

    The bracket is bilinear, so the bracket of two such currents, with every
    coefficient variable bound to a number, is the bracket of the numeric
    currents they give."""
    names = chart.x_names + chart.u_names
    monomials = [combo for d in range(3) for combo in combinations_with_replacement(names, d)]

    def polynomial(name: str) -> NormalForm:
        return NormalForm.polynomial([(combo + (f"{name}_{k}",), 1.0)
                                      for k, combo in enumerate(monomials)])

    return CurrentForms(chart, tuple(polynomial(f"{prefix}Y{a}") for a in range(1, chart.n + 1)),
                        tuple(polynomial(f"{prefix}b{i}") for i in range(1, chart.m + 1)))


_DENOMINATOR = 64


def _oracle_points(forms: list[NormalForm], chart: Chart, seed: int,
                   trials: int) -> dict[str, np.ndarray]:
    """``trials`` draws of each variable of ``forms`` from ``random.Random(seed)``,
    in sorted name order: a coordinate of ``chart`` uniform in [-1, 1], a
    coefficient variable k/64 with k uniform in [-64, 64] (``_DENOMINATOR``)."""
    rng = random.Random(seed)
    coordinates = set(chart.names)
    points = {}
    for name in sorted({atom for f in forms for atom in f.atoms}):
        if name in coordinates:
            draws = [rng.uniform(-1.0, 1.0) for _ in range(trials)]
        else:
            draws = [rng.randint(-_DENOMINATOR, _DENOMINATOR) / _DENOMINATOR
                     for _ in range(trials)]
        points[name] = np.array(draws)
    return points


def _fd_current_bracket(a: Current, b: Current, points: dict[str, np.ndarray],
                        h: float = 1e-6) -> list[np.ndarray]:
    """Finite-difference oracle for the current bracket at ``trials`` points,
    given as one array of that length per variable.

    Evaluates -( [Y,Z] , i_Y d(beta_b) - i_Z d(beta_a) ) using central
    differences for every u-derivative: each expression is evaluated once,
    on (2n+1, trials) arrays holding the points and their 2n shifts u^k +- h.
    """
    n = a.chart.n
    arrays = dict(points)
    for k, name in enumerate(a.chart.u_names):  # rows 2k+1, 2k+2: u^k + h, u^k - h
        shift = np.zeros((2 * n + 1, 1))
        shift[2 * k + 1:2 * k + 3, 0] = (h, -h)
        arrays[name] = points[name] + shift
    shape = np.broadcast_shapes(*(v.shape for v in arrays.values()))

    def at(exprs) -> list[np.ndarray]:
        return [np.broadcast_to(e.eval_many(arrays), shape) for e in exprs]

    def d_du(v: np.ndarray, k: int) -> np.ndarray:
        return (v[2 * k + 1] - v[2 * k + 2]) / (2.0 * h)

    Ya, Yb = at(a.Y), at(b.Y)
    out = []
    for fa, fb in zip(Ya + at(a.beta), Yb + at(b.beta)):
        acc = 0.0
        for k in range(n):
            acc += Ya[k][0] * d_du(fb, k) - Yb[k][0] * d_du(fa, k)
        out.append(-acc)
    return out


def _oracle_mismatch(seed: int, trials: int) -> float:
    """Largest relative gap |oracle - bracket| / (1 + |bracket|) between the public
    :func:`current_bracket` and :func:`_fd_current_bracket` over ``trials`` random
    pairs of degree-<=2 currents with k/64 coefficients, each at a point with
    coordinates in [-1, 1]; the bracket is built once, on coefficient variables,
    and a nan gap is returned as nan."""
    if not trials:
        return 0.0
    chart = _CHART
    forms = [_coefficient_current(prefix, chart) for prefix in "ab"]
    a, b = (f.to_current() for f in forms)
    ab = current_bracket(a, b)
    points = _oracle_points([f for c in forms for f in c.Y + c.beta], chart, seed, trials)
    oracle = _fd_current_bracket(a, b, points)
    direct = [np.broadcast_to(e.eval_many(points), (trials,)) for e in ab.Y + ab.beta]
    return float(np.max([np.abs(o - d) / (1.0 + np.abs(d)) for o, d in zip(oracle, direct)]))


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
    worst_oracle = _oracle_mismatch(seed, trials)

    return VerificationReport(
        name="current_lie_algebra",
        certifies="the current bracket is an antisymmetric Lie bracket matching "
                  "the commutator/contraction form",
        passed=not jacobi and not antisym and worst_oracle <= oracle_tol,
        max_residual=_largest(jacobi), tolerance=0.0, sample_count=0,
        seed=seed, details={"antisymmetry": _largest(antisym),
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
        passed=not left, max_residual=_largest(left), tolerance=0.0,
        sample_count=0, details={"residual_terms": len(left)})


# the chart of the connection-class proof
_CONNECTION_CHART = Chart(m=2, n=1)


def check_connection_class() -> VerificationReport:
    """Equivalence-class law for evolution connections, for every smooth
    Hamiltonian on m = 2, n = 1.

    Trace-free momentum perturbations must be accepted, trace
    perturbations rejected.
    """
    chart = _CONNECTION_CHART
    m, n = chart.m, chart.n
    H = _jet("h", tuple(sorted(chart.names)))
    dH_du = [H.diff(u) for u in chart.u_names]
    dH_dp = [[H.diff(chart.p_name(i, a)) for a in range(1, n + 1)] for i in range(1, m + 1)]
    g = sharp_aff(PhaseComponents(Au=dH_du, Ap=dH_dp))
    # the trace -dH/du^a split over the diagonal slots with weights 1/2, 1/4, ...,
    # the last two equal, so that the split is exact on any chart
    weights = [NormalForm.constant(2.0 ** -min(i + 1, m - 1)) for i in range(m)]
    zero = NormalForm.constant(0.0)

    def base_Hp():
        return [[[weights[i] * g.hp[a] if j == i else zero for j in range(m)]
                 for a in range(n)] for i in range(m)]

    results: dict[str, ConnectionCheck] = {}
    results["canonical"] = _connection_check(g.hu, base_Hp(), dH_du, dH_dp)

    Hp = base_Hp()
    bump = _jet("k", tuple(sorted(chart.names)))  # every smooth trace-free direction
    Hp[0][0][0] = NormalForm.sum([Hp[0][0][0], bump])
    Hp[1][0][1] = NormalForm.sum([Hp[1][0][1], -bump])
    results["trace_free_perturbation"] = _connection_check(g.hu, Hp, dH_du, dH_dp)

    Hp = base_Hp()
    Hp[0][0][0] = NormalForm.sum([Hp[0][0][0], NormalForm.constant(1.0)])
    results["trace_perturbation"] = _connection_check(g.hu, Hp, dH_du, dH_dp)

    accepted = (results["canonical"], results["trace_free_perturbation"])
    return VerificationReport(
        name="connection_class",
        certifies="only the u-components and the momentum trace of a connection "
                  "are constrained by the Hamiltonian section",
        passed=(all(r.is_hamiltonian for r in accepted)
                and not results["trace_perturbation"].is_hamiltonian),
        max_residual=_largest([r.max_residual for r in accepted]),
        tolerance=_COEFFICIENT_TOL, sample_count=0,
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


# snapshots per chunk of _field_bracket_residual, besides the two neighbours
_CHUNK = 32


def _field_bracket_residual(traj: list[GridSection], current: Current,
                            h: HamiltonianSection, dt: float, dx: float) -> float:
    """Max defect of d(pullback)/dt + d(pullback)/dx = bracket, central stencils.

    The interior snapshots are taken ``_CHUNK`` at a time, each chunk with its
    two neighbours in time, so no array spans the whole trajectory; every
    operation is elementwise, so the chunks give the whole-array values."""
    a1, a2 = current_coefficients(current)
    rhs_expr = bracket_affine(current, h).F
    K = traj[0].x.shape[0]

    def chunk_max(chunk: list[GridSection]) -> float:
        shape = (len(chunk), K)
        t = np.array([s.t for s in chunk])
        arrays = {"x1": t[:, None] * np.ones((1, K)),
                  "x2": np.broadcast_to(traj[0].x, shape),
                  "u1": np.stack([s.u[0] for s in chunk]),
                  "p1_1": np.stack([s.M[0] for s in chunk]),
                  "p2_1": np.stack([s.P[0] for s in chunk])}
        A1 = np.broadcast_to(np.atleast_2d(a1.eval_many(arrays)), shape)
        A2 = np.broadcast_to(np.atleast_2d(a2.eval_many(arrays)), shape)
        lhs = (A1[2:] - A1[:-2]) / (2.0 * dt) + ddx(A2, dx)[1:-1]
        rhs = np.broadcast_to(np.atleast_2d(rhs_expr.eval_many(arrays)), shape)[1:-1]
        return np.max(np.abs(lhs - rhs))

    return float(np.max([chunk_max(traj[start - 1:start + _CHUNK + 1])
                         for start in range(1, len(traj) - 1, _CHUNK)]))


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


# ---------------------------------------------------------------------------
# Yang-Mills: Noether's theorem through the bracket

# the base dimension of the Yang-Mills proof
_YM_BASE = 2


def _gauge_current(model: YangMillsModel, xi: int) -> CurrentForms:
    """The global gauge current of the basis vector e_xi of the algebra:
    Y^(alpha,j) = c^alpha_(beta,xi) A^beta_j and beta = 0."""
    dim, c = model.algebra.dim, model.algebra.c
    Y = tuple(NormalForm.polynomial([((model.u_name(be, j),), c[al - 1, be - 1, xi - 1])
                                     for be in range(1, dim + 1)])
              for al in range(1, dim + 1) for j in range(1, model.m + 1))
    return CurrentForms(model.chart, Y, (NormalForm.constant(0.0),) * model.m)


def check_ym_conservation() -> VerificationReport:
    """Noether's theorem through the bracket for so(3) Yang-Mills on m = 2:
    the bracket of each global gauge current with H is empty.  Two controls
    must leave terms: the generator u2 d/du1, which is not a symmetry, and
    H + 0.1 (pi^12_1)^2, which is not ad-invariant, at e2."""
    model = YangMillsModel(so3_algebra(), m=_YM_BASE)
    chart, H = model.chart, NormalForm.of(model.hamiltonian.H)
    # the bracket is linear in the algebra element, so the basis covers every one
    currents = [_gauge_current(model, xi) for xi in range(1, model.algebra.dim + 1)]
    left = _terms_left(_affine_form(J, H) for J in currents)
    zero = NormalForm.constant(0.0)
    u2 = CurrentForms(chart, (NormalForm.atom("u2"),) + (zero,) * (chart.n - 1),
                      (zero,) * chart.m)
    pi = NormalForm.of(model.chart_pi(1, 2, 1))
    not_invariant = NormalForm.sum([H, NormalForm.constant(0.1) * pi * pi])
    controls = {"generator_u2": len(_terms_left([_affine_form(u2, H)])),
                "h_plus_pi12_1_squared": len(_terms_left([_affine_form(currents[1],
                                                                       not_invariant)]))}
    return VerificationReport(
        name="ym_conservation",
        certifies="the global gauge charges of so(3) Yang-Mills theory are conserved: "
                  "the bracket of every gauge current with H vanishes",
        passed=not left and all(controls.values()),
        max_residual=_largest(left), tolerance=0.0, sample_count=0,
        details={"residual_terms": len(left), "control_terms": controls})


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
