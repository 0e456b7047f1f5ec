from itertools import combinations_with_replacement

import numpy as np
import pytest

from hdw import bracket, verify
from hdw.bundle import Chart, CurrentForms, HamiltonianSection
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
        report = check_representation()
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_jacobi(self):
        report = check_jacobi_currents(seed=1, trials=3)
        assert report.passed
        assert report.details["antisymmetry"] <= 1e-12
        assert report.details["oracle_mismatch"] <= 1e-5

    def test_m1_reduction(self):
        report = check_m1_reduction()
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_connection_class(self):
        report = check_connection_class()
        assert report.passed
        assert report.details["canonical"]["is_hamiltonian"]
        assert report.details["trace_free_perturbation"]["is_hamiltonian"]
        assert not report.details["trace_perturbation"]["is_hamiltonian"]

    def test_reports_are_reproducible(self):
        r1 = check_jacobi_currents(seed=5, trials=2)
        r2 = check_jacobi_currents(seed=5, trials=2)
        assert r1.to_dict() == r2.to_dict()


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
    report = check_m1_reduction()
    d = report.to_dict()
    assert d["name"] == "mechanics_reduction" and d["seed"] is None
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
    (check_representation, None, 0),  # jet forms, never a tree
    (check_jacobi_currents, 1, 32),  # the oracle's random currents and public current_bracket
])
def test_brackets_and_residuals_emit_no_intermediate_trees(check, seed, limit, monkeypatch):
    calls = []
    to_expr = NormalForm.to_expr

    def counted(self):
        calls.append(self)
        return to_expr(self)

    monkeypatch.setattr(NormalForm, "to_expr", counted)
    assert (check() if seed is None else check(seed=seed, trials=2)).passed
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
def test_algebraic_suites_are_exact_on_dyadic_draws(check, degree, monkeypatch):
    # an identity proved on jets holds for every specialisation: fed k/64
    # polynomial draws in place of its jets, a suite leaves no residual term.
    # Each residual is multilinear in `degree` inputs, so every coefficient is a
    # multiple of 64**-degree and the float arithmetic is exact.
    rng = np.random.default_rng(4)
    inputs = set()

    def drawn(prefix, names):
        inputs.add(prefix[0])
        return verify._random_form(rng, names, 2)

    monkeypatch.setattr(verify, "_jet", drawn)
    report = check()
    assert report.passed and report.max_residual == 0.0 and report.tolerance == 0.0
    assert report.details["residual_terms"] == 0
    assert len(inputs) == degree


def test_every_draw_is_dyadic():
    # random_polynomial and random_current draw every coefficient as k/64, |k| <= 64
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
    for report in (check_representation(), check_jacobi_currents(trials=0)):
        assert not report.passed, report.name
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
    report = check_representation()
    assert not report.passed and report.max_residual == 2.0 ** -60 > report.tolerance == 0.0
    # one residual, built once for the two jet currents
    assert report.details["residual_terms"] == 1


def test_a_planted_term_in_the_linear_bracket_fails_the_m1_reduction(monkeypatch):
    linear = verify._linear_form

    def planted(c, g):
        return NormalForm.sum([linear(c, g), NormalForm.polynomial([(("u1",), 2.0 ** -10)])])

    monkeypatch.setattr(verify, "_linear_form", planted)
    report = check_m1_reduction()
    assert not report.passed and report.max_residual == 2.0 ** -10
    # linear - canonical and the self-bracket {f, f}; the affine bracket builds
    # its linear part inside hdw.bracket
    assert report.details["residual_terms"] == 2


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (3, 3)])
def test_the_identities_are_proved_on_larger_charts(m, n, monkeypatch):
    # hdw verify proves them on m = n = 2; the same jet proofs hold on these charts
    monkeypatch.setattr(verify, "_CHART", Chart(m=m, n=n))
    for report in (check_representation(), check_jacobi_currents(trials=2)):
        assert report.passed and report.max_residual == 0.0, report.name
        assert report.details["residual_terms"] == 0


def _symbol_prefixes(c: CurrentForms) -> set[str]:
    """The first letters of the names of the jets in ``c``."""
    return {atom.name[0] for f in c.Y + c.beta for atom in f.atoms if type(atom) is not str}


def test_an_antisymmetry_error_alone_fails_the_jacobi_suite(monkeypatch):
    bracket_forms = verify._current_bracket_forms

    def planted(x, y):
        # only [b, a] is wrong, and no Jacobi residual uses it
        xy = bracket_forms(x, y)
        if _symbol_prefixes(x) == {"b"} and _symbol_prefixes(y) == {"a"}:
            u1 = NormalForm.atom("u1")
            return CurrentForms(xy.chart, (NormalForm.sum([xy.Y[0], u1]),) + xy.Y[1:], xy.beta)
        return xy

    monkeypatch.setattr(verify, "_current_bracket_forms", planted)
    report = check_jacobi_currents(trials=0)
    assert not report.passed
    assert report.max_residual == 0.0 and report.details["antisymmetry"] == 1.0
    # one u1, in the first coefficient of [a, b] + [b, a]
    assert report.details["residual_terms"] == 1


@pytest.mark.parametrize("check", [check_representation, check_jacobi_currents,
                                   check_m1_reduction])
def test_an_exact_pass_evaluates_no_sample(check):
    report = check()
    assert report.passed and report.max_residual == 0.0 and report.tolerance == 0.0
    assert report.sample_count == 0 and report.details["residual_terms"] == 0
    assert set(report.details) <= {"residual_terms", "antisymmetry", "oracle_mismatch",
                                   "runtime_s"}
    assert report.summary().startswith("[PASS] ") and report.summary().endswith(", exact)")


def test_a_nan_residual_is_reported_as_nan(monkeypatch):
    def planted(a, b, H):
        # a finite term beside the nan does not hide it
        return NormalForm.polynomial([(("u1",), float("nan")), (("u2",), 1.0)])

    monkeypatch.setattr(verify, "_representation_form", planted)
    report = check_representation()
    assert np.isnan(report.max_residual) and not report.passed
    assert report.details["residual_terms"] == 2


def test_generic_brackets_agree_with_sympy():
    # the suites' proofs rest on NormalForm arithmetic on jets; SymPy rebuilds
    # the public current bracket and affine bracket of the jet currents and
    # Hamiltonian from their coordinate formulas, on undetermined functions, so
    # the two agree for every smooth input on the chart
    sympy = pytest.importorskip("sympy")
    chart = Chart(m=2, n=2)
    a, b = verify._jet_current("a", chart), verify._jet_current("b", chart)
    H = verify._jet("h", tuple(sorted(chart.names)))
    x, u = sympy.symbols(chart.x_names), sympy.symbols(chart.u_names)
    p = [[sympy.Symbol(chart.p_name(i, c)) for c in range(1, 3)] for i in range(1, 3)]
    coordinates = {str(s): s for s in x + u + tuple(q for row in p for q in row)}

    def sym(form):
        # a jet leaf such as aY1_u1x2 is d^2 aY1(x1, x2, u1, u2)/du1 dx2
        leaves = {}
        for atom in form.atoms:
            if type(atom) is not str:
                args = [s for name, s in coordinates.items() if name in atom.variables]
                f = sympy.Function(atom.name)(*args)
                index = [coordinates[v] for v in atom.index]
                leaves[atom.expr().name] = sympy.diff(f, *index) if index else f
        return sympy.sympify(str(form.to_expr()), locals={**coordinates, **leaves},
                             rational=True)

    Ya, Yb, h = [sym(f) for f in a.Y], [sym(f) for f in b.Y], sym(H)
    assert isinstance(h, sympy.core.function.AppliedUndef) and len(h.args) == 8

    # [a, b] = -(Y^c d(f_b)/du^c - Z^c d(f_a)/du^c) for each coefficient f
    ab = bracket.current_bracket(a.to_current(), b.to_current())
    for fa, fb, got in zip(a.Y + a.beta, b.Y + b.beta, ab.Y + ab.beta):
        fa, fb = sym(fa), sym(fb)
        want = -sum(Ya[c] * sympy.diff(fb, u[c]) - Yb[c] * sympy.diff(fa, u[c])
                    for c in range(2))
        assert sympy.expand(sym(NormalForm.of(got)) - want) == 0

    # {a, H} = dJ^i/dx^i + dJ^i/du^c dH/dp^i_c - Y^c dH/du^c, J^i = Y^c p^i_c + beta^i
    J = [sum(Ya[c] * p[i][c] for c in range(2)) + sym(a.beta[i]) for i in range(2)]
    want = sum(sympy.diff(J[i], x[i]) for i in range(2))
    want += sum(sympy.diff(J[i], u[c]) * sympy.diff(h, p[i][c])
                for i in range(2) for c in range(2))
    want -= sum(Ya[c] * sympy.diff(h, u[c]) for c in range(2))
    got = bracket.bracket_affine(a.to_current(), HamiltonianSection(chart, H.to_expr())).F
    assert sympy.expand(sym(NormalForm.of(got)) - want) == 0
