import warnings

import numpy as np
import pytest

from hdw.bracket import gamma_h
from hdw.bundle import Chart
from hdw.expr import Const, NormalForm, parse
from hdw.models import (BUILTIN_ALGEBRAS, ContinuumSpec, GasConstants,
                        LieAlgebraSpec, PerfectGasModel, WaveModel,
                        YangMillsModel, abelian_algebra,
                        legendre_momenta, model_perfect_gas,
                        model_td_mechanics, model_wave, model_yang_mills,
                        piola_inverse, piola_transform, so3_algebra)


class TestLieAlgebraSpec:
    def test_abelian(self):
        la = abelian_algebra(3)
        assert la.is_abelian

    def test_so3_invariants(self):
        la = so3_algebra()
        assert not la.is_abelian
        # [e1, e2] = e3
        assert la.c[2, 0, 1] == 1.0

    def test_antisymmetry_violation(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0  # missing the mirrored -1
        with pytest.raises(ValueError, match="antisymmetric"):
            LieAlgebraSpec(dim=2, c=c)

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

    def test_builtin_registry(self):
        for name, factory in BUILTIN_ALGEBRAS.items():
            assert factory().dim >= 1


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
        h = model_wave()
        b = {"x1": 0, "x2": 0, "u1": 0, "p1_1": 2.0, "p2_1": 3.0}
        assert h.H.eval(b) == pytest.approx(2.0 - 4.5)

    def test_density_scaling(self):
        dense = WaveModel(ContinuumSpec(rho_bar=2.0)).hamiltonian
        unit = WaveModel().hamiltonian
        b = {"x1": 0, "x2": 0, "u1": 0, "p1_1": 1.0, "p2_1": 2.0}
        assert dense.H.eval(b) == pytest.approx(unit.H.eval(b) / 2.0)

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

    def test_rejects_vector_fiber(self):
        with pytest.raises(ValueError):
            WaveModel(ContinuumSpec(N=2, g=np.eye(2), G=np.eye(2)))


class TestPerfectGas:
    def test_forward_inverse_round_trip(self):
        _, leg = model_perfect_gas()
        F = np.linspace(0.5, 2.0, 100)
        assert np.max(np.abs(leg.recover(leg.forward(F)) - F)) <= 1e-10

    def test_pressure_energy_identity(self):
        # ebar + N p sqrt(det g) = (1 + N(gamma-1)) ebar for N=1
        _, leg = model_perfect_gas()
        F = np.linspace(0.5, 2.0, 100)
        eps = leg.energy_density(F)
        p = leg.pressure(F)
        lhs = eps + p * leg.sqrt_g
        rhs = (1.0 + (leg.gamma - 1.0)) * eps
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_hamiltonian_is_legendre_dual(self):
        # dH/dP must return the deformation gradient recovered from P
        h, leg = model_perfect_gas()
        dH_dP = h.H.diff("p2_1")
        for P in (0.3, 0.7, 1.5):
            got = dH_dP.eval({"p1_1": 0.0, "p2_1": P})
            assert got == pytest.approx(float(leg.recover(P)), rel=1e-12)

    def test_noninvertible_range_reported(self):
        _, leg = model_perfect_gas()
        with pytest.raises(ValueError, match="not invertible"):
            leg.det_from_stress(np.array([-1.0, 0.5]))

    def test_gamma_two_rejected(self):
        spec = ContinuumSpec(gas=GasConstants(gamma=2.0))
        with pytest.raises(ValueError, match="not invertible"):
            PerfectGasModel(spec)

    def test_requires_gas_constants(self):
        with pytest.raises(ValueError, match="gas constants"):
            PerfectGasModel(ContinuumSpec())


class TestLegendreMomenta:
    def test_zero_velocity(self):
        M, P = legendre_momenta(np.zeros(1), np.ones((1, 1)), ContinuumSpec())
        assert M == pytest.approx(0.0)

    def test_identity_metric(self):
        M, _ = legendre_momenta(np.array([2.0]), np.ones((1, 1)), ContinuumSpec())
        assert M[0] == pytest.approx(2.0)

    def test_stress_sign(self):
        _, P = legendre_momenta(np.zeros(1), np.array([[3.0]]), ContinuumSpec())
        assert P[0, 0] == pytest.approx(-3.0)


class TestPiola:
    def test_scalar_value(self):
        sigma = piola_transform(np.eye(1), -np.eye(1), np.eye(1))
        assert sigma[0, 0] == pytest.approx(1.0)

    def test_zero_stress(self):
        assert np.allclose(piola_transform(np.eye(2) * 2.0, np.zeros((2, 2)), np.eye(2)), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            F = np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (2, 2))
            P = rng.uniform(-1.0, 1.0, (2, 2))
            g = np.eye(2)
            back = piola_inverse(F, piola_transform(F, P, g), g)
            assert np.max(np.abs(back - P)) <= 1e-12

    def test_singular_gradient(self):
        with pytest.raises(ValueError, match="singular"):
            piola_transform(np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestYangMills:
    def test_abelian_energy(self):
        ym = YangMillsModel(abelian_algebra(1), m=2)
        assert ym.hamiltonian_expr.eval({"pi1_2_1": 4.0}) == pytest.approx(2.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_the_chart_hamiltonian_is_h_at_pi_from_p(self, m):
        # hamiltonian_expr in the variables pi^{ij}_alpha (i < j) at
        # pi^{ij}_alpha = p^i_(alpha,j) - p^j_(alpha,i) is the chart H
        ym = YangMillsModel(so3_algebra(), m=m)
        assert ym.chart == Chart(m=m, n=3 * m) and ym.hamiltonian.chart == ym.chart
        assert ym.u_name(2, 1) == f"u{m + 1}"
        p = ym.chart.p
        pi = {ym.pi_name(i, j, al): p(i, (al - 1) * m + j) - p(j, (al - 1) * m + i)
              for i in range(1, m + 1) for j in range(i + 1, m + 1) for al in range(1, 4)}
        at_p = NormalForm.of(ym.hamiltonian_expr.substitute(pi))
        chart_h = NormalForm.of(ym.hamiltonian.H)
        assert chart_h.terms and not NormalForm.sum([at_p, -chart_h]).terms

    def test_momentum_antisymmetry(self):
        ym = YangMillsModel(abelian_algebra(1), m=3)
        assert str(ym.pi_expr(2, 1, 1)) == "-pi1_2_1"
        assert ym.pi_expr(2, 2, 1) == Const(0.0)

    def test_non_euclidean_metric_rejected(self):
        with pytest.raises(ValueError, match="Euclidean"):
            model_yang_mills(abelian_algebra(1), m=2, metric=2.0 * np.eye(2))


def test_continuum_spec_validation():
    with pytest.raises(ValueError, match="positive definite"):
        ContinuumSpec(g=np.array([[-1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        ContinuumSpec(N=2, g=np.array([[1.0, 0.5], [0.0, 1.0]]), G=np.eye(2))
    with pytest.raises(ValueError, match="mass density"):
        ContinuumSpec(rho_bar=-1.0)
