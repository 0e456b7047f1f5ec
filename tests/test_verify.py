import os
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from hdw import bracket, bundle, verify
from hdw.bundle import Chart, CurrentForms, HamiltonianSection
from hdw.expr import NormalForm
from hdw.verify import (SUITES, check_bracket_evolution_converse,
                        check_bracket_evolution_field, check_bracket_evolution_ode,
                        check_connection_class, check_jacobi_currents, check_m1_reduction,
                        check_representation, check_ym_conservation, run_suites)

# the suite keys of the bracket evolution law's proofs
_LAW_SUITES = ("evolution-ode", "evolution-field", "evolution-converse")


def _dyadic_polynomial(rng: np.random.Generator, names: tuple[str, ...]) -> NormalForm:
    """A dense degree-2 polynomial in ``names`` with coefficients k/64, k uniform
    in [-64, 64]."""
    return NormalForm.polynomial(
        [(combo, int(rng.integers(-64, 65)) / 64)
         for d in range(3) for combo in combinations_with_replacement(names, d)])


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


def test_run_suites_unknown_name():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def test_all_suites_registered():
    assert set(SUITES) == {"representation", "jacobi", "m1-reduction",
                           "connection", "evolution-ode", "evolution-field",
                           "evolution-converse", "yang-mills"}


@pytest.mark.parametrize("check, seed, limit", [
    (check_representation, None, 0),  # jet forms, never a tree
    (check_bracket_evolution_ode, None, 0),
    (check_bracket_evolution_field, None, 0),
    (check_bracket_evolution_converse, None, 0),
    # the oracle's two coefficient-variable currents (8 trees) and one public
    # current_bracket of them (4 trees), however many trials it draws
    (check_jacobi_currents, 1, 12),
])
def test_brackets_and_residuals_emit_no_intermediate_trees(check, seed, limit, monkeypatch):
    calls = []
    to_expr = NormalForm.to_expr

    def counted(self):
        calls.append(self)
        return to_expr(self)

    monkeypatch.setattr(NormalForm, "to_expr", counted)
    if seed is None:
        assert check().passed
        assert len(calls) == limit
        return
    for trials in (2, 20):
        calls.clear()
        assert check(seed=seed, trials=trials).passed
        assert len(calls) == limit
    calls.clear()
    assert check(seed=seed, trials=0).passed
    assert not calls  # no oracle tree without trials


@pytest.mark.parametrize("check, degree", [
    (check_representation, 3), (check_jacobi_currents, 3), (check_m1_reduction, 2),
    (check_bracket_evolution_ode, 2), (check_bracket_evolution_field, 2),
    (check_bracket_evolution_converse, 1)])
def test_algebraic_suites_are_exact_on_dyadic_draws(check, degree, monkeypatch):
    # an identity proved on jets holds for every specialisation: fed k/64
    # polynomial draws in place of its jets, a suite leaves no residual term.
    # Each residual is multilinear in `degree` inputs, so every coefficient is a
    # multiple of 64**-degree and the float arithmetic is exact.
    rng = np.random.default_rng(4)
    inputs = set()

    def drawn(prefix, names):
        inputs.add(prefix[0])
        return _dyadic_polynomial(rng, names)

    monkeypatch.setattr(verify, "_jet", drawn)
    report = check()
    assert report.passed and report.max_residual == 0.0 and report.tolerance == 0.0
    assert report.details["residual_terms"] == 0
    assert len(inputs) == degree


def test_every_draw_is_dyadic():
    # the oracle draws each coefficient variable as k/64, |k| <= 64, and each
    # coordinate in [-1, 1], one value per trial
    chart = Chart(m=2, n=2)
    currents = [verify._coefficient_current(prefix, chart) for prefix in "ab"]
    forms = [f for c in currents for f in c.Y + c.beta]
    coefficients = {atom for f in forms for atom in f.atoms} - set(chart.names)
    assert len(coefficients) == 2 * 4 * 15  # 2 currents, 4 polynomials, 15 monomials each
    for seed in range(20):
        points = verify._oracle_points(forms, chart, seed, trials=7)
        assert set(points) == coefficients | {"x1", "x2", "u1", "u2"}
        for name, values in points.items():
            assert values.shape == (7,) and np.all(np.abs(values) <= 1.0)
            if name in coefficients:
                assert all((v * 64).is_integer() for v in values)
        again = verify._oracle_points(forms, chart, seed, trials=7)
        assert all(np.array_equal(again[name], values) for name, values in points.items())


def test_the_oracle_sees_a_wrong_public_bracket(monkeypatch):
    # beta^2 of the public, tree-emitting current_bracket off by 1e-3 relative;
    # the proof builds its brackets with verify's own reference, so only the
    # oracle can fail the suite
    bracket_forms = bracket._current_bracket_forms

    def scaled(a, b):
        ab = bracket_forms(a, b)
        beta2 = NormalForm.dot([(ab.beta[1], NormalForm.constant(1.0 + 1e-3))])
        return CurrentForms(ab.chart, ab.Y, (ab.beta[0], beta2))

    monkeypatch.setattr(bracket, "_current_bracket_forms", scaled)
    report = check_jacobi_currents()
    assert not report.passed
    assert report.details["oracle_mismatch"] > 1e-5
    assert report.max_residual == 0.0 and report.details["residual_terms"] == 0


def test_hdw_verify_loads_no_numpy_random():
    # every draw of hdw verify comes from the standard library's random.Random
    code = ("import sys\n"
            "from hdw.cli import main\n"
            "assert main(['verify']) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was loaded'\n")
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr


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
    # hdw verify proves them on m = n = 2 (the density law on m = 1, n = 2); the
    # same jet proofs hold on these charts
    monkeypatch.setattr(verify, "_CHART", Chart(m=m, n=n))
    for report in (check_representation(), check_jacobi_currents(trials=2),
                   *(SUITES[key]() for key in _LAW_SUITES)):
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
                                   check_m1_reduction, check_bracket_evolution_ode,
                                   check_bracket_evolution_field,
                                   check_bracket_evolution_converse])
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


def test_the_connection_class_is_proved_on_a_larger_chart(monkeypatch):
    # the suite splits the trace over the diagonal slots with weights 1/2, 1/4,
    # 1/4, so on m = 3 too the accepted connections leave no term at all
    monkeypatch.setattr(verify, "_CONNECTION_CHART", Chart(m=3, n=2))
    report = check_connection_class()
    d = report.details
    assert report.passed and report.max_residual == 0.0 and report.sample_count == 0
    assert d["canonical"] == d["trace_free_perturbation"] == {"is_hamiltonian": True,
                                                              "max_residual": 0.0}
    assert d["trace_perturbation"] == {"is_hamiltonian": False, "max_residual": 1.0}


def test_a_wrong_sharp_aff_sign_fails_the_connection_class(monkeypatch):
    sharp = verify.sharp_aff

    def wrong_sign(pc):
        g = sharp(pc)
        return bracket.GammaSection(hu=g.hu, hp=tuple(-x for x in g.hp))

    monkeypatch.setattr(verify, "sharp_aff", wrong_sign)
    report = check_connection_class()
    assert not report.passed and not report.details["canonical"]["is_hamiltonian"]
    # -dH/du is left twice: 2 * 1.0 on the jet h_u1
    assert report.max_residual == 2.0


def test_yang_mills_is_proved_on_m3(monkeypatch):
    monkeypatch.setattr(verify, "_YM_BASE", 3)
    report = check_ym_conservation()
    assert report.passed and report.max_residual == 0.0 and report.sample_count == 0
    assert report.details["residual_terms"] == 0
    assert all(report.details["control_terms"].values())


def test_yang_mills_controls_leave_terms():
    report = check_ym_conservation()
    assert report.passed and report.tolerance == 0.0
    assert report.summary().startswith("[PASS] ") and report.summary().endswith(", exact)")
    # 0.1*(pi^12_1)^2 is fixed by rotations about e1 only, so e2 sees it
    assert report.details["control_terms"] == {"generator_u2": 8, "h_plus_pi12_1_squared": 4}


def _flip_the_transport_sign(monkeypatch) -> None:
    pairs = bracket._linear_pairs

    def wrong_sign(c, g):
        # +dg/du^a dC^1/dp^1_a in place of -: the last pair of each fiber index
        m = c.chart.m
        return [(x, -y) if k % (m + 1) == m else (x, y) for k, (x, y) in enumerate(pairs(c, g))]

    monkeypatch.setattr(bracket, "_linear_pairs", wrong_sign)


def test_a_transport_sign_error_fails_yang_mills(monkeypatch):
    _flip_the_transport_sign(monkeypatch)
    report = check_ym_conservation()
    assert not report.passed
    assert report.details["residual_terms"] > 0 and report.max_residual > 0.0


def test_a_transport_sign_error_fails_every_law_proof(monkeypatch):
    _flip_the_transport_sign(monkeypatch)
    for key in _LAW_SUITES:
        report = SUITES[key]()
        assert not report.passed and report.details["residual_terms"] > 0, key
        assert report.max_residual > 0.0


def test_a_scaled_explicit_term_fails_the_law_for_x_dependent_observables(monkeypatch):
    explicit = bracket._explicit_forms

    def scaled(c):
        return [NormalForm.dot([(f, NormalForm.constant(0.999))]) for f in explicit(c)]

    monkeypatch.setattr(bracket, "_explicit_forms", scaled)
    terms = {key: SUITES[key]().details["residual_terms"] for key in _LAW_SUITES}
    # df/dx1 of the density; the x-derivatives of Y^a p^i_a and beta^i of the
    # current's two components; the converse's currents do not depend on x
    assert terms == {"evolution-ode": 1, "evolution-field": 6, "evolution-converse": 0}


def test_a_gauge_current_without_one_structure_constant_term_leaves_terms(monkeypatch):
    gauge_current = verify._gauge_current

    def dropped(model, xi):
        # Y^(alpha,1) of the first non-zero alpha loses its c-term
        J = gauge_current(model, xi)
        k = next(k for k, y in enumerate(J.Y) if y.terms)
        Y = J.Y[:k] + (NormalForm.constant(0.0),) + J.Y[k + 1:]
        return CurrentForms(J.chart, Y, J.beta)

    monkeypatch.setattr(verify, "_gauge_current", dropped)
    report = check_ym_conservation()
    assert not report.passed and report.details["residual_terms"] > 0


# the suites that read an observable's Hamiltonian vector field
_FIELD_SUITES = ("representation", "m1-reduction") + _LAW_SUITES + ("yang-mills",)


@pytest.mark.parametrize("mutant", ["vu_sign", "vp_scaled"])
def test_a_wrong_hamiltonian_field_fails_every_suite_that_reads_it(mutant, monkeypatch):
    derive = bundle._ObservableForms.__dict__["_field"].func
    tilt = NormalForm.constant(0.999)

    def wrong(self):
        vu, vp = derive(self)
        if mutant == "vu_sign":
            return tuple(-x for x in vu), vp
        return vu, tuple(tuple(x * tilt for x in row) for row in vp)

    monkeypatch.setattr(bundle._ObservableForms, "_field", property(wrong))
    for key in _FIELD_SUITES:
        report = SUITES[key]()
        assert not report.passed and report.details["residual_terms"] > 0, key


def test_the_representation_proof_differentiates_each_component_once(monkeypatch):
    a, b = (verify._jet_current(prefix, verify._CHART) for prefix in "ab")
    components = a.components + b.components
    seen = []
    diff = NormalForm.diff

    def recorded(self, var):
        seen.extend((k, var) for k, c in enumerate(components) if c is self)
        return diff(self, var)

    monkeypatch.setattr(NormalForm, "diff", recorded)
    H = verify._jet("h", tuple(sorted(verify._CHART.names)))
    assert not bracket._representation_form(a, b, H).terms
    # each C^i in x^i for its explicit term and in each u^a for vp, C^1 in each
    # p^1_a for vu: 2 + 4 + 2 pairs per current on m = n = 2
    assert len(seen) == len(set(seen)) == 2 * 8
