"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance; the printed summary
goes to the real stdout so it is visible even under pytest capture.
"""

import sys
import time
from itertools import combinations_with_replacement

import numpy as np

from hdw.bracket import PhaseComponents, a_hat, bracket_linear, sharp_aff
from hdw.bundle import Chart, DensityCoefficient
from hdw.expr import Const, Expression, Func, NormalForm
from hdw.models import PerfectGasModel
from hdw.verify import (check_bracket_evolution_converse,
                        check_bracket_evolution_field,
                        check_bracket_evolution_ode, check_connection_class,
                        check_jacobi_currents, check_m1_reduction,
                        check_representation, check_ym_conservation)


def _random_polynomial(rng: np.random.Generator, names: tuple[str, ...],
                      degree: int = 2) -> Expression:
    """Dense polynomial with coefficients k/64, k uniform in [-64, 64], in canonical form."""
    return NormalForm.polynomial(
        [(combo, int(rng.integers(-64, 65)) / 64)
         for d in range(degree + 1) for combo in combinations_with_replacement(names, d)]
    ).to_expr()


def _report(number: int, description: str, passed: bool) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number:2d}: {description}", file=sys.__stdout__)
    assert passed, f"criterion {number} failed: {description}"


def test_01_representation_identity():
    start = time.perf_counter()
    report = check_representation()
    elapsed = time.perf_counter() - start
    _report(1, "affine representation identity, residual <= 1e-9 "
               f"(max {report.max_residual:.2e}, {elapsed:.1f}s)",
            report.passed and report.max_residual <= 1e-9 and elapsed < 10.0)


def test_02_jacobi_identity():
    start = time.perf_counter()
    report = check_jacobi_currents(seed=1, trials=20)
    elapsed = time.perf_counter() - start
    ok = (report.passed
          and report.max_residual <= 1e-9
          and report.details["antisymmetry"] <= 1e-12
          and elapsed < 10.0)
    _report(2, "observable bracket satisfies Jacobi and antisymmetry "
               f"(cyclic {report.max_residual:.2e}, {elapsed:.1f}s)", ok)


def test_03_mechanics_reduction():
    report = check_m1_reduction()
    # the self-bracket must cancel to the literal zero constant
    chart = Chart(m=1, n=2)
    exact = True
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = DensityCoefficient(chart, _random_polynomial(rng, tuple(sorted(chart.names))))
        if bracket_linear(f, f).F != Const(0.0):
            exact = False
    _report(3, "m=1 bracket matches the canonical Poisson bracket <= 1e-12; "
               "{f,f} simplifies to the zero constant",
            report.passed and report.max_residual <= 1e-12 and exact)


def test_03_self_bracket_cancels_exactly_at_higher_degree():
    # criterion 3's literal zero also holds beyond quadratic polynomials
    chart = Chart(m=1, n=2)
    rng = np.random.default_rng(30)
    for degree in (3, 4):
        for _ in range(3):
            f = DensityCoefficient(chart, _random_polynomial(rng, tuple(sorted(chart.names)),
                                                            degree=degree))
            assert bracket_linear(f, f).F == Const(0.0)


def test_04_isomorphism_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        Au = tuple(float(v) for v in rng.uniform(-10.0, 10.0, n))
        Ap = tuple(tuple(float(v) for v in rng.uniform(-10.0, 10.0, n))
                   for _ in range(m))
        pc = PhaseComponents(Au=Au, Ap=Ap)
        back = a_hat(sharp_aff(pc))
        worst = max(worst,
                    max(abs(x - y) for x, y in zip(back.Au, Au)),
                    max(abs(x - y) for r, s in zip(back.Ap, Ap)
                        for x, y in zip(r, s)))
    _report(4, f"component map and its inverse round-trip <= 1e-15 "
               f"on 1000 tuples (max {worst:.2e})", worst <= 1e-15)


def test_05_evolution_ode():
    report = check_bracket_evolution_ode(dts=(4e-3, 2e-3, 1e-3), t_final=10.0)
    ratios_ok = all(abs(r - 16.0) <= 0.2 * 16.0 for r in report.details["ratios"])
    final_ok = report.details["residuals"][-1] <= 1e-8
    _report(5, "ODE bracket-evolution residual: ratios 16 +/- 20%, "
               f"final <= 1e-8 (got {report.details['residuals'][-1]:.2e})",
            report.passed and ratios_ok and final_ok)


def test_06_evolution_field():
    start = time.perf_counter()
    report = check_bracket_evolution_field(Ks=(64, 128, 256))
    elapsed = time.perf_counter() - start
    ratios_ok = all(abs(r - 4.0) <= 0.25 * 4.0
                    for rs in report.details["ratios"].values() for r in rs)
    solution_ok = report.details["solution_error_K128"] <= 1e-3
    _report(6, "field bracket-evolution residual: ratios 4 +/- 25%, "
               f"wave L-inf error <= 1e-3 at K=128 ({elapsed:.1f}s)",
            report.passed and ratios_ok and solution_ok and elapsed < 30.0)


def test_07_evolution_converse():
    report = check_bracket_evolution_converse(perturbation=1e-3)
    residuals = report.details["residuals"]
    ok = (report.passed
          and all(r >= 1e-4 for r in residuals)
          and residuals[-1] >= 0.5 * residuals[0])
    _report(7, "a 1e-3 momentum perturbation keeps the bracket residual "
               f">= 1e-4 under refinement (got {min(residuals):.2e})", ok)


def test_08_connection_class():
    report = check_connection_class()
    d = report.details
    ok = (report.passed and report.sample_count == 0
          and d["canonical"]["is_hamiltonian"] is True
          and d["trace_free_perturbation"]["is_hamiltonian"] is True
          and d["trace_perturbation"]["is_hamiltonian"] is False)
    _report(8, "connection class, for every smooth H: trace-free perturbations "
               "accepted, trace perturbations rejected", ok)


def test_09_yang_mills():
    # Noether's theorem through the paper's bracket: every global gauge current
    # of so(3) Yang-Mills on m = 2 commutes with H, and a generator that is not
    # a symmetry, or an H that is not ad-invariant, leaves terms
    report = check_ym_conservation()
    controls = report.details["control_terms"]
    _report(9, "so(3) Yang-Mills: the bracket of each gauge current with H is "
               f"empty (terms {report.details['residual_terms']}); the two controls "
               f"leave terms ({controls})",
            report.passed and report.max_residual == 0.0
            and report.details["residual_terms"] == 0 and all(controls.values()))


def test_10_symbolic_derivatives():
    rng = np.random.default_rng(10)
    names = ("x1", "u1", "p1_1")
    wrappers = (None, "sin", "cos", "exp")
    h = 1e-6
    worst = 0.0
    for k in range(500):
        e = _random_polynomial(rng, names, degree=2)
        wrap = wrappers[k % len(wrappers)]
        if wrap is not None:
            e = Func(wrap, e)
        var = names[int(rng.integers(0, 3))]
        binding = {n: float(rng.uniform(-1.0, 1.0)) for n in names}
        exact = e.diff(var).eval(binding)
        hi = dict(binding, **{var: binding[var] + h})
        lo = dict(binding, **{var: binding[var] - h})
        fd = (e.eval(hi) - e.eval(lo)) / (2.0 * h)
        worst = max(worst, abs(exact - fd) / max(1.0, abs(exact)))
    _report(10, "symbolic derivatives match central differences <= 1e-5 "
                f"relative on 500 triples (max {worst:.2e})", worst <= 1e-5)


def test_11_perfect_gas():
    leg = PerfectGasModel().legendre
    F = np.linspace(0.5, 2.0, 100)
    round_trip = float(np.max(np.abs(leg.recover(leg.forward(F)) - F)))
    eps = leg.energy_density(F)
    identity = float(np.max(np.abs(
        eps + leg.pressure(F) * leg.sqrt_g
        - (1.0 + (leg.gamma - 1.0)) * eps)))
    _report(11, "state-relation round trip <= 1e-10 and pressure-energy "
                f"identity <= 1e-12 (got {round_trip:.2e}, {identity:.2e})",
            round_trip <= 1e-10 and identity <= 1e-12)


def test_12_generic_certificate():
    # the suites take every coefficient of the currents and the Hamiltonian to be
    # an undetermined smooth function (a jet), so their empty residuals prove both
    # identities for every smooth current and Hamiltonian on the m=2, n=2 chart
    start = time.perf_counter()
    reports = [check_representation(), check_jacobi_currents(trials=0)]
    elapsed = time.perf_counter() - start
    terms = [report.details["residual_terms"] for report in reports]
    _report(12, "smooth (jet) currents and Hamiltonian on m=2, n=2: the "
                f"representation and Jacobi/antisymmetry residuals are empty "
                f"(terms {terms}, {elapsed:.1f}s)",
            all(report.passed for report in reports) and not any(terms))
