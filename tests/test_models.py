import warnings

import numpy as np
import pytest

from hdw.bracket import gamma_h
from hdw.bundle import Chart
from hdw.expr import NormalForm, Var
from hdw.models import (LieAlgebraSpec, PerfectGasModel, WaveModel, YangMillsModel,
                        abelian_algebra, model_td_mechanics, so3_algebra)


class TestLieAlgebraSpec:
    def test_abelian(self):
        la = abelian_algebra(3)
        assert la.c.shape == (3, 3, 3) and np.all(la.c == 0.0)

    def test_so3_invariants(self):
        la = so3_algebra()
        assert not np.all(la.c == 0.0)
        # [e1, e2] = e3
        assert la.c[2, 0, 1] == 1.0

    def test_antisymmetry_violation(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0  # missing the mirrored -1
        with pytest.raises(ValueError, match="antisymmetric"):
            LieAlgebraSpec(dim=2, c=c)

    @pytest.mark.parametrize("dim", [0, -1, True, 2.0, "2"])
    def test_dimension_refused_by_name(self, dim):
        # checked before the structure constants reach any reduction
        with pytest.raises(ValueError, match="Lie algebra dimension must be an integer >= 1"):
            LieAlgebraSpec(dim=dim, c=np.zeros((0, 0, 0)))

    def test_jacobi_violation(self):
        # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1: antisymmetric but not a Lie algebra
        c = np.zeros((3, 3, 3))
        c[1, 0, 1], c[1, 1, 0] = 1.0, -1.0
        c[2, 0, 2], c[2, 2, 0] = 1.0, -1.0
        c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebraSpec(dim=3, c=c)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_constants_rejected(self, value):
        c = so3_algebra().c.copy()
        c[0, 1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic on them
            with pytest.raises(ValueError, match="finite"):
                LieAlgebraSpec(dim=3, c=c)


class TestTdMechanics:
    def test_harmonic_oscillator(self):
        h = model_td_mechanics("u1^2/2", n=1)
        assert h.chart == Chart(m=1, n=1)
        assert h.H.eval({"x1": 0.0, "u1": 2.0, "p1_1": 3.0}) == pytest.approx(6.5)

    def test_free_particle(self):
        h = model_td_mechanics("0", n=2)
        assert h.H.eval({"x1": 0, "u1": 0, "u2": 0, "p1_1": 1.0, "p1_2": 2.0}) == 2.5

    def test_driven_oscillator(self):
        h = model_td_mechanics("sin(x1)*u1")
        assert "x1" in h.H.variables()

    def test_momentum_in_potential_rejected(self):
        with pytest.raises(ValueError, match="momenta"):
            model_td_mechanics("p1_1")


class TestWaveModel:
    def test_shape(self):
        model = WaveModel()
        assert model.chart == Chart(m=2, n=1)
        assert len(model.chart.p_names) == 2

    def test_hamiltonian_values(self):
        h = WaveModel().hamiltonian
        b = {"x1": 0, "x2": 0, "u1": 0, "p1_1": 2.0, "p2_1": 3.0}
        assert h.H.eval(b) == pytest.approx(2.0 - 4.5)

    def test_stress_reconstruction(self):
        model = WaveModel()
        du = np.array([[0.5, -1.0]])
        assert np.allclose(model.reconstruct_P(du), -du)

    def test_reduces_to_wave_equation(self):
        # the first-order system is du/dt = M, du/dx = -P, dM/dt = -dP/dx,
        # so u satisfies u_tt = u_xx; check the component expressions
        model = WaveModel()
        g = gamma_h(model.hamiltonian)
        b = {"x1": 0, "x2": 0, "u1": 0, "p1_1": 5.0, "p2_1": 7.0}
        assert g.hu[0][0].eval(b) == pytest.approx(5.0)    # du/dt = M
        assert g.hu[1][0].eval(b) == pytest.approx(-7.0)   # du/dx = -P
        assert g.hp[0].eval(b) == 0.0                      # no source term


class TestPerfectGas:
    def test_forward_inverse_round_trip(self):
        leg = PerfectGasModel().legendre
        F = np.linspace(0.5, 2.0, 100)
        assert np.max(np.abs(leg.recover(leg.forward(F)) - F)) <= 1e-10

    def test_pressure_energy_identity(self):
        # ebar + N p sqrt(det g) = (1 + N(gamma-1)) ebar for N=1
        leg = PerfectGasModel().legendre
        F = np.linspace(0.5, 2.0, 100)
        eps = leg.energy_density(F)
        p = leg.pressure(F)
        lhs = eps + p * leg.sqrt_g
        rhs = (1.0 + (leg.gamma - 1.0)) * eps
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_hamiltonian_is_legendre_dual(self):
        # dH/dP must return the deformation gradient recovered from P
        model = PerfectGasModel()
        h, leg = model.hamiltonian, model.legendre
        dH_dP = h.H.diff("p2_1")
        for P in (0.3, 0.7, 1.5):
            got = dH_dP.eval({"p1_1": 0.0, "p2_1": P})
            assert got == pytest.approx(float(leg.recover(P)), rel=1e-12)

    def test_noninvertible_range_reported(self):
        leg = PerfectGasModel().legendre
        with pytest.raises(ValueError, match="not invertible"):
            leg.det_from_stress(np.array([-1.0, 0.5]))


@pytest.mark.parametrize("model, text", [
    (WaveModel, "0.5*p1_1^2 - 0.5*p2_1^2"),
    (PerfectGasModel, "0.5*p1_1^2 + 1.4*exp(-0.28571428571428564*ln(0.3999999999999999/p2_1))"),
], ids=["wave", "perfect_gas"])
def test_builtin_hamiltonian_constants_to_the_last_bit(model, text):
    # floats print as their shortest round-trip text, so a constant that
    # drifts in its last bit changes the text
    assert str(model().hamiltonian.H) == text


class TestYangMills:
    def test_abelian_energy(self):
        # pi^{12}_1 = p1_2 - p2_1 = 4: H = 2 * 4^2 / 16
        ym = YangMillsModel(abelian_algebra(1), m=2)
        b = dict.fromkeys(ym.chart.names, 0.0) | {"p1_2": 5.0, "p2_1": 1.0}
        assert ym.hamiltonian.H.eval(b) == pytest.approx(2.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_the_chart_hamiltonian_is_h_at_pi_from_p(self, m):
        # the sum over i != j and alpha of pi^2/16 + c^gamma_{alpha beta}/4
        # A^alpha_i A^beta_j pi^{ij}_gamma, written out as a plain tree at
        # pi^{ij}_alpha = p^i_(alpha,j) - p^j_(alpha,i), is the chart H
        ym = YangMillsModel(so3_algebra(), m=m)
        assert ym.chart == Chart(m=m, n=3 * m) and ym.hamiltonian.chart == ym.chart
        assert ym.u_name(2, 1) == f"u{m + 1}"
        p, c = ym.chart.p, ym.algebra.c
        A = lambda al, i: Var(ym.u_name(al, i))
        terms = []
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                pi = {al: p(i, (al - 1) * m + j) - p(j, (al - 1) * m + i) for al in range(1, 4)}
                terms += [pi[al] * pi[al] / 16.0 for al in range(1, 4)]
                terms += [float(c[ga - 1, al - 1, be - 1]) / 4.0 * A(al, i) * A(be, j) * pi[ga]
                          for ga in range(1, 4) for al in range(1, 4) for be in range(1, 4)
                          if c[ga - 1, al - 1, be - 1]]
        reference = NormalForm.sum(map(NormalForm.of, terms))
        chart_h = NormalForm.of(ym.hamiltonian.H)
        assert chart_h.terms and not NormalForm.sum([reference, -chart_h]).terms

    def test_momentum_antisymmetry(self):
        ym = YangMillsModel(abelian_algebra(1), m=3)
        pi = lambda i, j: NormalForm.of(ym.chart_pi(i, j, 1))
        assert pi(2, 1).terms and not NormalForm.sum([pi(2, 1), pi(1, 2)]).terms
        assert not pi(2, 2).terms

