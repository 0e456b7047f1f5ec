import numpy as np
import pytest

from hdw.bracket import (PhaseComponents, a_hat, bracket_affine,
                         bracket_linear, connection_is_hamiltonian,
                         current_bracket, dh_components, gamma_h,
                         hamiltonian_field, representation_residual,
                         sharp_aff)
from hdw import bracket
from hdw.bundle import (Chart, Current, CurrentForms, DensityCoefficient,
                        HamiltonianSection, validate_current)
from hdw.expr import Const, NormalForm, Var, parse


def _bindings(chart, count, seed):
    rng = np.random.default_rng(seed)
    names = sorted(chart.names)
    return [{n: float(v) for n, v in zip(names, rng.uniform(-1.0, 1.0, len(names)))}
            for _ in range(count)]


class TestDhComponents:
    def test_zero(self):
        pc = dh_components(HamiltonianSection(Chart(m=1, n=1), "0"))
        assert pc.Au == (Const(0.0),)
        assert pc.Ap == ((Const(0.0),),)

    def test_oscillator(self):
        pc = dh_components(HamiltonianSection(Chart(m=1, n=1), "u1^2/2 + p1_1^2/2"))
        assert pc.Au == (Var("u1"),)
        assert pc.Ap == ((Var("p1_1"),),)

    def test_momentum_free(self):
        pc = dh_components(HamiltonianSection(Chart(m=1, n=1), "x1*u1"))
        assert pc.Au == (Var("x1"),)
        assert pc.Ap == ((Const(0.0),),)


def test_the_derivatives_of_h_are_derived_once(monkeypatch):
    chart = Chart(m=2, n=1)
    h = HamiltonianSection(chart, "p1_1^2/2 + p2_1^2/2 + u1^2/2 + x1*u1")
    system = h.system
    pc = dh_components(h)
    assert pc.Au is system.dH_du and pc.Ap is system.dH_dp

    calls = []
    diff = NormalForm.diff

    def counted(self, var):
        calls.append(var)
        return diff(self, var)

    monkeypatch.setattr(NormalForm, "diff", counted)
    g = gamma_h(h)
    Hu = [[g.hu[i][0]] for i in range(2)]
    Hp = [[[g.hp[0], Const(0.0)]], [[Const(0.0), Const(0.0)]]]
    assert connection_is_hamiltonian(Hu, Hp, h).is_hamiltonian
    assert calls == []


class TestSharpAffAHat:
    def test_sign_permutation(self):
        pc = PhaseComponents(Au=(Const(2.0),), Ap=((Const(3.0),), (Const(4.0),)))
        g = sharp_aff(pc)
        assert g.hu == ((Const(3.0),), (Const(4.0),))
        assert g.hp == (Const(-2.0),)

    def test_zeros(self):
        pc = PhaseComponents(Au=(Const(0.0),), Ap=((Const(0.0),),))
        g = sharp_aff(pc)
        assert g.hp == (Const(-0.0),) or g.hp == (Const(0.0),)

    def test_inverse_pair_numeric(self):
        rng = np.random.default_rng(0)
        m, n = 2, 2
        for _ in range(1000):
            Au = tuple(float(v) for v in rng.uniform(-10.0, 10.0, n))
            Ap = tuple(tuple(float(v) for v in rng.uniform(-10.0, 10.0, n))
                       for _ in range(m))
            pc = PhaseComponents(Au=Au, Ap=Ap)
            back = a_hat(sharp_aff(pc))
            for a in range(n):
                assert abs(back.Au[a] - Au[a]) <= 1e-15
                for i in range(m):
                    assert abs(back.Ap[i][a] - Ap[i][a]) <= 1e-15


class TestGammaH:
    def test_free_particle(self):
        g = gamma_h(HamiltonianSection(Chart(m=1, n=1), "p1_1^2/2"))
        assert g.hu == ((Var("p1_1"),),)
        assert g.hp == (Const(0.0),)

    def test_potential_only(self):
        g = gamma_h(HamiltonianSection(Chart(m=1, n=1), "u1^2/2"))
        assert g.hu == ((Const(0.0),),)
        assert str(g.hp[0]) == "-u1"

    def test_constant(self):
        g = gamma_h(HamiltonianSection(Chart(m=2, n=1), "3"))
        assert all(e == Const(0.0) for row in g.hu for e in row)
        assert g.hp == (Const(0.0),)


class TestConnectionIsHamiltonian:
    def _setup(self):
        chart = Chart(m=2, n=1)
        h = HamiltonianSection(chart, "p1_1^2/2 + p2_1^2/2 + u1^2/2")
        g = gamma_h(h)
        Hu = [[g.hu[i][a] for a in range(1)] for i in range(2)]
        # put the whole momentum trace in the first diagonal slot
        Hp = [[[g.hp[0], Const(0.0)]], [[Const(0.0), Const(0.0)]]]
        return h, Hu, Hp

    def test_canonical_accepted(self):
        h, Hu, Hp = self._setup()
        check = connection_is_hamiltonian(Hu, Hp, h)
        assert check.is_hamiltonian
        assert check.max_residual == 0.0

    def test_trace_free_perturbation_accepted(self):
        h, Hu, Hp = self._setup()
        c = parse("sin(x1)*u1 + 2")
        Hp[0][0][0] = Hp[0][0][0] + c
        Hp[1][0][1] = Hp[1][0][1] - c
        assert connection_is_hamiltonian(Hu, Hp, h).is_hamiltonian

    def test_trace_perturbation_rejected(self):
        h, Hu, Hp = self._setup()
        Hp[0][0][0] = Hp[0][0][0] + Const(1.0)
        check = connection_is_hamiltonian(Hu, Hp, h)
        assert not check.is_hamiltonian
        assert check.max_residual == pytest.approx(1.0)

    def test_u_component_perturbation_rejected(self):
        h, Hu, Hp = self._setup()
        Hu[0][0] = Hu[0][0] + Const(1.0)
        assert not connection_is_hamiltonian(Hu, Hp, h).is_hamiltonian

    def test_shape_mismatch(self):
        h, Hu, Hp = self._setup()
        with pytest.raises(ValueError, match="shape"):
            connection_is_hamiltonian(Hu[:1], Hp, h)

    def test_points_and_arrays_give_the_tree_walk(self):
        h, Hu, Hp = self._setup()
        bump = Var("u1") * Var("x2")
        Hp[0][0][0] = Hp[0][0][0] + bump
        points = _bindings(h.chart, 30, seed=5)
        arrays = {n: np.array([p[n] for p in points]) for n in points[0]}
        walked = max(abs(bump.eval(p)) for p in points)
        assert walked > 0.0
        for samples in (points, arrays):
            check = connection_is_hamiltonian(Hu, Hp, h, samples)
            assert not check.is_hamiltonian and check.max_residual == walked


class TestBracketAffine:
    def test_m1_frozen_value(self):
        chart = Chart(m=1, n=1)
        f = DensityCoefficient(chart, "u1*p1_1")
        h = HamiltonianSection(chart, "(u1^2+p1_1^2)/2")
        out = bracket_affine(f, h)
        assert out.F.eval({"x1": 0.0, "u1": 1.0, "p1_1": 2.0}) == pytest.approx(3.0)

    def test_constant_current_vanishes(self):
        chart = Chart(m=2, n=1)
        c = Current(chart, ("0",), ("5", "7"))
        h = HamiltonianSection(chart, "p1_1*p2_1 + sin(u1)")
        assert bracket_affine(c, h).F == Const(0.0)

    def test_m2_frozen_value(self):
        chart = Chart(m=2, n=1)
        c = Current(chart, ("1",), ("0", "0"))
        h = HamiltonianSection(chart, "(p1_1^2+p2_1^2)/2 + u1^2/2")
        out = bracket_affine(c, h)
        b = {"x1": 0.0, "x2": 0.0, "u1": 3.0, "p1_1": 0.0, "p2_1": 0.0}
        assert out.F.eval(b) == pytest.approx(-3.0)

    def test_m1_requires_density(self):
        chart = Chart(m=2, n=1)
        f = DensityCoefficient(chart, "u1")
        h = HamiltonianSection(chart, "0")
        with pytest.raises(ValueError, match="m = 1"):
            bracket_affine(f, h)


class TestBracketLinear:
    def test_m1_frozen_value(self):
        chart = Chart(m=1, n=1)
        f = DensityCoefficient(chart, "u1*p1_1")
        g = DensityCoefficient(chart, "u1^2")
        out = bracket_linear(f, g)
        assert out.F.eval({"x1": 0.0, "u1": 2.0, "p1_1": 0.0}) == pytest.approx(-8.0)

    def test_constant_density(self):
        chart = Chart(m=2, n=1)
        c = Current(chart, ("1",), ("0", "0"))
        assert bracket_linear(c, DensityCoefficient(chart, "3")).F == Const(0.0)
        out = bracket_linear(c, DensityCoefficient(chart, "u1"))
        assert out.F.eval({"x1": 0, "x2": 0, "u1": 0, "p1_1": 0, "p2_1": 0}) == -1.0

    def test_zero_current(self):
        chart = Chart(m=2, n=1)
        c = Current(chart, ("0",), ("9", "9"))
        F = DensityCoefficient(chart, "sin(u1)*p1_1 + x2")
        assert bracket_linear(c, F).F == Const(0.0)

    def test_is_linear_part_of_affine(self):
        # replacing H by H + s*G shifts the affine bracket by s*{c, G}_l
        chart = Chart(m=2, n=2)
        c = Current(chart, ("sin(u1)", "x1*u2"), ("u1*u2", "x2"))
        H = parse("p1_1*p2_2 + u1^2*u2")
        G = parse("cos(u2)*p2_1 + x1*u1")
        s = 0.37
        base = bracket_affine(c, HamiltonianSection(chart, H))
        shifted = bracket_affine(c, HamiltonianSection(chart, H + G * s))
        linear = bracket_linear(c, DensityCoefficient(chart, G))
        for b in _bindings(chart, 50, seed=4):
            lhs = shifted.F.eval(b) - base.F.eval(b)
            assert lhs == pytest.approx(s * linear.F.eval(b), abs=1e-12)


class TestCurrentBracket:
    def test_self_bracket_vanishes(self):
        chart = Chart(m=2, n=1)
        a = Current(chart, ("sin(u1)",), ("x1*u1", "x2"))
        out = current_bracket(a, a)
        for b in _bindings(chart, 20, seed=5):
            assert all(abs(e.eval(b)) <= 1e-15 for e in out.Y + out.beta)

    def test_commutator_frozen(self):
        chart = Chart(m=2, n=1)
        a = Current(chart, ("1",), ("0", "0"))
        b = Current(chart, ("u1",), ("0", "0"))
        out = current_bracket(a, b)
        assert out.Y == (Const(-1.0),)
        assert out.beta == (Const(0.0), Const(0.0))

    def test_form_contraction_frozen(self):
        chart = Chart(m=2, n=1)
        a = Current(chart, ("1",), ("0", "0"))
        b = Current(chart, ("0",), ("u1", "0"))
        out = current_bracket(a, b)
        assert out.Y == (Const(0.0),)
        assert out.beta == (Const(-1.0), Const(0.0))

    def test_antisymmetry(self):
        chart = Chart(m=2, n=2)
        a = Current(chart, ("u1*u2", "sin(u1)"), ("x1", "u2^2"))
        b = Current(chart, ("cos(u2)", "u1"), ("u1*x2", "0"))
        ab, ba = current_bracket(a, b), current_bracket(b, a)
        for bind in _bindings(chart, 50, seed=6):
            for e1, e2 in zip(ab.Y + ab.beta, ba.Y + ba.beta):
                assert e1.eval(bind) == pytest.approx(-e2.eval(bind), abs=1e-12)

    def test_closure(self):
        chart = Chart(m=2, n=2)
        a = Current(chart, ("u1^2", "x1"), ("u2", "x2*u1"))
        b = Current(chart, ("u2", "sin(u1)"), ("0", "u1"))
        assert validate_current(current_bracket(a, b))

    def test_chart_mismatch(self):
        a = Current(Chart(m=2, n=1), ("1",), ("0", "0"))
        b = Current(Chart(m=2, n=2), ("1", "0"), ("0", "0"))
        with pytest.raises(ValueError, match="chart"):
            current_bracket(a, b)


class TestHamiltonianField:
    def test_zero_current(self):
        chart = Chart(m=2, n=1)
        v = hamiltonian_field(Current(chart, ("0",), ("4", "4")))
        assert v.vu == (Const(0.0),)
        assert all(e == Const(0.0) for row in v.vp for e in row)

    def test_constant_translation(self):
        chart = Chart(m=2, n=1)
        v = hamiltonian_field(Current(chart, ("1",), ("0", "0")))
        assert v.vu == (Const(1.0),)
        assert all(e == Const(0.0) for row in v.vp for e in row)

    def test_linear_field(self):
        chart = Chart(m=2, n=1)
        v = hamiltonian_field(Current(chart, ("u1",), ("0", "0")))
        assert v.vu == (Var("u1"),)
        assert str(v.vp[0][0]) == "-p1_1"
        assert str(v.vp[1][0]) == "-p2_1"

    def test_extended_component(self):
        chart = Chart(m=2, n=1)
        v = hamiltonian_field(Current(chart, ("x1",), ("0", "0")), extended=True)
        assert str(v.vpext) == "-p1_1"


class TestRepresentationResidual:
    def test_repeated_argument(self):
        chart = Chart(m=2, n=2)
        a = Current(chart, ("u1*u2", "sin(u2)"), ("x1*u1", "u2"))
        h = HamiltonianSection(chart, "p1_1*u2 + p2_2^2/2 + cos(u1)")
        assert representation_residual(a, a, h, _bindings(chart, 50, seed=7)) <= 1e-12

    def test_constant_hamiltonian(self):
        # with constant H the identity still holds; the outer bracket
        # degenerates to its base-derivative terms
        chart = Chart(m=2, n=2)
        a = Current(chart, ("u1", "u2^2"), ("x1", "x2*u1"))
        b = Current(chart, ("sin(u2)", "u1*u2"), ("u2", "0"))
        h = HamiltonianSection(chart, "5")
        assert representation_residual(a, b, h, _bindings(chart, 50, seed=8)) <= 1e-12

    def test_random_currents(self):
        chart = Chart(m=2, n=2)
        a = Current(chart, ("u1*u2", "x1 + u1"), ("u2^2", "x2*u1"))
        b = Current(chart, ("cos(u1)", "u2"), ("u1*x1", "u2*x2"))
        h = HamiltonianSection(chart, "p1_1*p2_2 + sin(u1)*p2_1 + u2^2/2 + x1*x2")
        assert representation_residual(a, b, h, _bindings(chart, 100, seed=9)) <= 1e-9

    def test_points_and_arrays_give_the_tree_walk(self, monkeypatch):
        # a wrong transport sign leaves a nonzero residual
        pairs = bracket._current_bracket_pairs
        monkeypatch.setattr(bracket, "_current_bracket_pairs", lambda a, b: [
            [(x, -y) for x, y in coefficient] for coefficient in pairs(a, b)])
        chart = Chart(m=2, n=2)
        a = Current(chart, ("u1*u2", "x1 + u1"), ("u2^2", "x2*u1"))
        b = Current(chart, ("u1", "u2"), ("u1*x1", "u2*x2"))
        h = HamiltonianSection(chart, "p1_1*p2_2 + u2*p2_1 + u2^2/2 + x1*x2")
        residual = bracket._representation_form(CurrentForms.of(a), CurrentForms.of(b),
                                                 NormalForm.of(h.H)).to_expr()
        points = _bindings(chart, 30, seed=6)
        arrays = {n: np.array([p[n] for p in points]) for n in points[0]}
        walked = max(abs(residual.eval(p)) for p in points)
        assert walked > 0.0
        assert representation_residual(a, b, h, points) == walked
        assert representation_residual(a, b, h, arrays) == walked
