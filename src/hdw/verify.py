"""Executable certification of the bracket calculus at desk scale.

Each check returns a :class:`VerificationReport`; only the Jacobi check's
finite-difference oracle draws, from the seed recorded in its report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .bracket import (_COEFFICIENT_TOL, ConnectionCheck, PhaseComponents, _affine_form,
                      _connection_check, _current_bracket_forms, _current_bracket_pairs,
                      _largest, _linear_form, _representation_form, _terms_left,
                      current_bracket, sharp_aff)
from .bundle import Chart, Current, CurrentForms, DensityForm
from .expr import NormalForm, _Jet
from .models import YangMillsModel, so3_algebra

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


def _exact(name: str, certifies: str, left: list[float]) -> VerificationReport:
    """The report of a proof whose residual keeps the |coefficients| ``left``."""
    return VerificationReport(name=name, certifies=certifies, passed=not left,
                              max_residual=_largest(left), tolerance=0.0,
                              sample_count=0, details={"residual_terms": len(left)})


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

# the chart of the representation, Jacobi and evolution-law proofs
_CHART = Chart(m=2, n=2)


def check_representation() -> VerificationReport:
    """Affine-representation identity for every smooth pair of currents and
    Hamiltonian on m = n = 2."""
    chart = _CHART
    H = _jet("h", tuple(sorted(chart.names)))
    a, b = (_jet_current(prefix, chart) for prefix in "ab")
    left = _terms_left([_representation_form(a, b, H)])
    return _exact("representation_identity",
                  "the linear-affine bracket represents the current algebra on "
                  "the affine space of Hamiltonian sections", left)


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


# the largest relative gap to the finite-difference oracle the Jacobi suite accepts
_ORACLE_TOL = 1e-5


def check_jacobi_currents(seed: int = 1, trials: int = 20) -> VerificationReport:
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
        passed=not jacobi and not antisym and worst_oracle <= _ORACLE_TOL,
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
    return _exact("mechanics_reduction",
                  "1-D base brackets equal the canonical time-dependent Poisson bracket", left)


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
# Bracket evolution law
#
# Along a section x -> (u(x), p(x)), write its first jet through free
# atoms: du^a/dx^i = dH/dp^i_a + F^i_a, sum_i dp^i_a/dx^i = -dH/du^a + E_a,
# and every other dp^j_a/dx^i.  F and E are the section's defects from the
# field equations.  The law says that the total divergence of an
# observable equals its bracket with H plus the pairing of its field with
# the defects, so on solutions exactly the bracket.


def _law_form(c: CurrentForms | DensityForm, H: NormalForm) -> tuple[NormalForm, NormalForm]:
    """(total divergence - bracket, defect pairing) of the observable ``c`` with
    components C^i along a section, for the form ``H`` of the Hamiltonian.

    The divergence sum_i D_i C^i is one dot product over the first jet, with
    dp^1_a/dx^1 eliminated by the E_a equation.  The pairing
    sum_a vu[a] E_a - sum_(i,a) vp[i][a] F^i_a reads the field of ``c``, as the
    bracket does; the divergence does not, so a wrong field cannot cancel."""
    chart, C = c.chart, c.components
    m, n = chart.m, chart.n
    E = [NormalForm.atom(f"E{a}") for a in range(1, n + 1)]
    F = [[NormalForm.atom(f"F{i}_{a}") for a in range(1, n + 1)] for i in range(1, m + 1)]

    def dp_dx(i: int, j: int, a: int) -> NormalForm:
        """dp^j_a/dx^i: a free atom, but for i = j = 1."""
        if (i, j) != (1, 1):
            return NormalForm.atom(f"{chart.p_name(j, a)}_x{i}")
        return NormalForm.sum([-H.diff(chart.u_name(a)), E[a - 1]]
                              + [-dp_dx(k, k, a) for k in range(2, m + 1)])

    one = NormalForm.constant(1.0)
    divergence = NormalForm.dot(
        [(Ci.diff(x), one) for Ci, x in zip(C, chart.x_names)]
        + [(Ci.diff(u), NormalForm.sum([H.diff(chart.p_name(i, a)), F[i - 1][a - 1]]))
           for i, Ci in enumerate(C, start=1) for a, u in enumerate(chart.u_names, start=1)]
        + [(Ci.diff(chart.p_name(j, a)), dp_dx(i, j, a)) for i, Ci in enumerate(C, start=1)
           for j in range(1, m + 1) for a in range(1, n + 1)])
    vu, vp = c._field
    pairing = NormalForm.dot(list(zip(vu, E))
                             + [(-x, Fi[a]) for vpi, Fi in zip(vp, F) for a, x in enumerate(vpi)])
    return NormalForm.sum([divergence, -_affine_form(c, H)]), pairing


def check_bracket_evolution_ode() -> VerificationReport:
    """Bracket evolution law for every smooth density f(x, u, p) and Hamiltonian
    on m = 1, n = 2: df/dx along any section is {f, H} plus the defect pairing."""
    chart = Chart(m=1, n=_CHART.n)
    names = tuple(sorted(chart.names))
    divergence, pairing = _law_form(DensityForm(chart, _jet("f", names)), _jet("h", names))
    left = _terms_left([NormalForm.sum([divergence, -pairing])])
    return _exact("bracket_evolution_ode",
                  "along any section an observable's derivative is its bracket with H "
                  "plus its pairing with the section's defects (1-D base)", left)


def check_bracket_evolution_field() -> VerificationReport:
    """Bracket evolution law for every smooth current and Hamiltonian on m = n = 2."""
    chart = _CHART
    divergence, pairing = _law_form(_jet_current("a", chart),
                                    _jet("h", tuple(sorted(chart.names))))
    left = _terms_left([NormalForm.sum([divergence, -pairing])])
    return _exact("bracket_evolution_field",
                  "along any section a current's total divergence is its bracket with H "
                  "plus its pairing with the section's defects", left)


def check_bracket_evolution_converse() -> VerificationReport:
    """On m = n = 2 the currents Y = e_a and beta^i = u^a leave exactly the
    defects E_a and F^i_a, so a section on which every current obeys the law
    solves the field equations."""
    chart = _CHART
    m, n = chart.m, chart.n
    H = _jet("h", tuple(sorted(chart.names)))
    zero, one = NormalForm.constant(0.0), NormalForm.constant(1.0)
    probes = [(CurrentForms(chart, tuple(one if b == a else zero for b in range(1, n + 1)),
                            (zero,) * m), f"E{a}") for a in range(1, n + 1)]
    probes += [(CurrentForms(chart, (zero,) * n,
                             tuple(NormalForm.atom(chart.u_name(a)) if j == i else zero
                                   for j in range(1, m + 1))), f"F{i}_{a}")
               for i in range(1, m + 1) for a in range(1, n + 1)]
    left = _terms_left(NormalForm.sum([_law_form(c, H)[0], -NormalForm.atom(defect)])
                       for c, defect in probes)
    return _exact("bracket_evolution_converse",
                  "the bracket evolution law holds for every current only on solutions: "
                  "each field equation's defect is one current's defect from the law", left)


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
    for name in selected:
        check = SUITES[name]
        start = time.perf_counter()
        if seed is not None and "seed" in check.__code__.co_varnames:
            report = check(seed=seed)
        else:
            report = check()
        report.details["runtime_s"] = round(time.perf_counter() - start, 3)
        reports.append(report)
    return reports
