from itertools import combinations_with_replacement

import numpy as np
import pytest

from hdw import bracket, verify
from hdw.bundle import Chart, CurrentForms, DensityCoefficient
from hdw.expr import Const, Mul, NormalForm, Var, add_all
from hdw.verify import (SUITES, check_bracket_evolution_converse,
                        check_bracket_evolution_ode, check_connection_class,
                        check_jacobi_currents, check_m1_reduction,
                        check_representation, random_polynomial, run_suites)


def test_random_polynomial_degree_and_range():
    rng = np.random.default_rng(0)
    e = random_polynomial(rng, ("u1", "u2"), degree=2)
    # 1 constant + 2 linear + 3 quadratic monomials, all with finite coefficients
    assert e.variables() == {"u1", "u2"}
    vals = [e.eval({"u1": u, "u2": v}) for u in (-1.0, 0.0, 1.0) for v in (-1.0, 1.0)]
    assert all(abs(v) < 10.0 for v in vals)


def test_random_polynomial_seeded():
    a = random_polynomial(np.random.default_rng(42), ("x1",))
    b = random_polynomial(np.random.default_rng(42), ("x1",))
    assert a == b


class TestAlgebraicChecks:
    def test_representation(self):
        report = check_representation(seed=0, trials=3)
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_jacobi(self):
        report = check_jacobi_currents(seed=1, trials=3)
        assert report.passed
        assert report.details["antisymmetry"] <= 1e-12
        assert report.details["oracle_mismatch"] <= 1e-5

    def test_m1_reduction(self):
        report = check_m1_reduction(seed=2, pairs=3)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_connection_class(self):
        report = check_connection_class()
        assert report.passed
        assert report.details["canonical"]["is_hamiltonian"]
        assert report.details["trace_free_perturbation"]["is_hamiltonian"]
        assert not report.details["trace_perturbation"]["is_hamiltonian"]

    def test_reports_are_reproducible(self):
        r1 = check_representation(seed=5, trials=2)
        r2 = check_representation(seed=5, trials=2)
        assert r1.max_residual == r2.max_residual


class TestEvolutionChecks:
    def test_ode_short_ladder(self):
        report = check_bracket_evolution_ode(dts=(4e-3, 2e-3), t_final=2.0)
        assert report.passed
        assert all(abs(r - 16.0) <= 3.2 for r in report.details["ratios"])

    def test_converse_detects_perturbation(self):
        report = check_bracket_evolution_converse()
        assert report.passed
        assert all(r >= 1e-4 for r in report.details["residuals"])


def test_report_serialization():
    report = check_m1_reduction(seed=0, pairs=1)
    d = report.to_dict()
    assert d["name"] == "mechanics_reduction"
    assert isinstance(d["passed"], bool)
    assert "PASS" in report.summary()


def test_run_suites_selection():
    reports = run_suites(["m1-reduction"])
    assert len(reports) == 1
    assert reports[0].name == "mechanics_reduction"
    assert "runtime_s" in reports[0].details


def _count_integrations(monkeypatch) -> list[int]:
    """The grid sizes of the field trajectories the verify suites integrate."""
    calls = []
    evolve = verify.evolve_field

    def counted(model, config, u0, M0):
        calls.append(config.K)
        return evolve(model, config, u0, M0)

    monkeypatch.setattr(verify, "evolve_field", counted)
    verify._wave_setup.cache_clear()  # a direct check call may have filled it
    return calls


def test_one_run_integrates_each_wave_resolution_once(monkeypatch):
    calls = _count_integrations(monkeypatch)
    assert all(report.passed for report in run_suites())
    # evolution-field takes K = 64, 128, 256; evolution-converse shares 128, 256
    assert sorted(calls) == [64, 128, 256]
    assert verify._wave_setup.cache_info().currsize == 0
    calls.clear()
    run_suites()
    assert sorted(calls) == [64, 128, 256]
    calls.clear()
    run_suites(["evolution-converse"])
    assert sorted(calls) == [128, 256]
    assert verify._wave_setup.cache_info().currsize == 0


def test_the_trajectory_memo_is_cleared_when_a_suite_raises(monkeypatch):
    calls = _count_integrations(monkeypatch)
    seen = []

    def failing():
        seen.append(verify._wave_setup.cache_info())
        raise RuntimeError("suite failed")

    monkeypatch.setitem(SUITES, "yang-mills", failing)
    with pytest.raises(RuntimeError, match="suite failed"):
        run_suites(["evolution-field", "evolution-converse", "yang-mills"])
    assert sorted(calls) == [64, 128, 256]
    assert seen[0].hits == 2 and seen[0].currsize == 3
    assert verify._wave_setup.cache_info().currsize == 0


def test_run_suites_unknown_name():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def test_all_suites_registered():
    assert set(SUITES) == {"representation", "jacobi", "m1-reduction",
                           "connection", "evolution-ode", "evolution-field",
                           "evolution-converse", "yang-mills"}


@pytest.mark.parametrize("check, seed, limit", [
    (check_representation, 0, 18),  # one tree per random polynomial
    (check_jacobi_currents, 1, 32),  # and the public current_bracket per trial
])
def test_brackets_and_residuals_emit_no_intermediate_trees(check, seed, limit, monkeypatch):
    calls = []
    to_expr = NormalForm.to_expr

    def counted(self):
        calls.append(self)
        return to_expr(self)

    monkeypatch.setattr(NormalForm, "to_expr", counted)
    assert check(seed=seed, trials=2).passed
    assert len(calls) <= limit


def test_random_polynomial_is_the_sum_of_its_monomials():
    names = ("x1", "u1", "p1_1")
    e = random_polynomial(np.random.default_rng(3), names, degree=3)
    rng = np.random.default_rng(3)
    terms = [Const(rng.integers(-64, 65) / 64)]
    for d in (1, 2, 3):
        for combo in combinations_with_replacement(names, d):
            mono = Const(rng.integers(-64, 65) / 64)
            for name in combo:
                mono = Mul(mono, Var(name))
            terms.append(mono)
    assert e == add_all(terms)


@pytest.mark.parametrize("check, degree", [
    (check_representation, 3), (check_jacobi_currents, 3), (check_m1_reduction, 2)])
def test_algebraic_suites_are_exact_on_dyadic_draws(check, degree):
    report = check(seed=4)
    assert report.passed and report.max_residual == 0.0 and report.tolerance == 0.0
    assert report.details["residual_terms"] == 0
    assert report.details["false_pass_bound"] == (degree / 129) ** 20


def test_every_draw_is_dyadic():
    # the suites' exactness rests on every drawn coefficient being k/64, |k| <= 64
    def dyadic(forms):
        return all(abs(c) <= 1.0 and (c * 64).is_integer() for f in forms for c in f.terms.values())

    for seed in range(50):
        rng = np.random.default_rng(seed)
        current = CurrentForms.of(verify.random_current(rng, Chart(m=2, n=2)))
        assert dyadic([verify._random_form(rng, ("x1", "u1", "p1_1"), 3)])
        assert dyadic(current.Y + current.beta)
        assert dyadic([NormalForm.of(random_polynomial(rng, ("x1", "u1", "u2", "p1_2")))])


def test_a_wrong_transport_sign_leaves_residual_terms(monkeypatch):
    pairs = bracket._current_bracket_pairs

    def wrong_sign(a, b):
        # -(Y^c d(fb)/du^c + Z^c d(fa)/du^c): the second term's sign flipped
        return [[(x, -y) if k % 2 else (x, y) for k, (x, y) in enumerate(coefficient)]
                for coefficient in pairs(a, b)]

    monkeypatch.setattr(bracket, "_current_bracket_pairs", wrong_sign)
    monkeypatch.setattr(verify, "_current_bracket_pairs", wrong_sign)
    for check in (check_representation, check_jacobi_currents):
        report = check(seed=0, trials=2)
        assert not report.passed, check.__name__
        assert report.details["residual_terms"] > 0
        assert report.max_residual > 0.0
    # the flipped term makes the bracket symmetric, so ab + ba is left too
    assert report.details["antisymmetry"] > 0.0


def test_an_exact_residual_below_the_tolerance_still_fails(monkeypatch):
    # a residual of 2^-60 u1, far below any float tolerance, is a term left
    representation_form = verify._representation_form

    def off_by_a_little(a, b, H):
        tiny = NormalForm.polynomial([(("u1",), 2.0 ** -60)])
        return NormalForm.sum([representation_form(a, b, H), tiny])

    monkeypatch.setattr(verify, "_representation_form", off_by_a_little)
    report = check_representation(seed=0, trials=2)
    assert not report.passed and report.max_residual == 2.0 ** -60 > report.tolerance == 0.0
    assert report.details["residual_terms"] == 2


def test_a_planted_term_in_the_linear_bracket_fails_the_m1_reduction(monkeypatch):
    linear = verify.bracket_linear

    def planted(c, F):
        result = linear(c, F)
        # 2^-10 sums exactly with the k/64 draws' products
        return DensityCoefficient(result.chart, result.F + Const(2.0 ** -10) * Var("u1"))

    monkeypatch.setattr(verify, "bracket_linear", planted)
    report = check_m1_reduction(seed=2, pairs=2)
    assert not report.passed and report.max_residual == 2.0 ** -10
    # per pair: linear - canonical and the self-bracket {f, f}
    assert report.details["residual_terms"] == 4


@pytest.mark.parametrize("check", [check_representation, check_jacobi_currents,
                                   check_m1_reduction])
def test_an_exact_pass_evaluates_no_sample(check):
    report = check(seed=4)
    assert report.passed and report.sample_count == 0 and "exact" not in report.details
    assert report.summary().startswith("[PASS] ") and report.summary().endswith(", exact)")


def test_a_nan_residual_is_reported_as_nan():
    residuals = verify._Residuals()
    residuals.add([NormalForm.polynomial([(("u1",), float("nan"))])])
    assert np.isnan(residuals.worst) and not residuals.passed and residuals.terms == 1
    # a later finite term does not hide it
    residuals.add([NormalForm.polynomial([(("u1",), 1.0)])])
    assert np.isnan(residuals.worst) and not residuals.passed and residuals.terms == 2
