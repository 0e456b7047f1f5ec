import math
import re
import types

import numpy as np
import pytest

from hdw import solver
from hdw.bundle import Chart, HamiltonianSection
from hdw.expr import DomainError, compile_exprs, parse, simplify
from hdw.models import PerfectGasModel, WaveModel, model_td_mechanics
from hdw.solver import (GridSection, NewtonError, OdeState, SolverConfig,
                        _FieldSystem, ddx, evolve_field, hdw_residual,
                        integrate_ode, reconstruct_P, step_ode_rk4)


def _oscillator():
    return model_td_mechanics("u1^2/2", n=1)


class TestSolverConfig:
    def test_positive_dt(self):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(dt=0.0, t_final=1.0)

    def test_unknown_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            SolverConfig(dt=0.1, t_final=1.0, boundary="reflecting")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_final=1.0, scheme="euler")

    def test_minimum_grid(self):
        with pytest.raises(ValueError, match="grid points"):
            SolverConfig(dt=0.1, t_final=1.0, K=4, dx=0.1)

    def test_cfl_warning(self):
        config = SolverConfig(dt=0.2, t_final=1.0, K=16, dx=0.1)
        with pytest.warns(UserWarning, match="instability"):
            config.warn_cfl()


class TestStepOdeRk4:
    def test_oscillator_step(self):
        dt = 0.01
        state = step_ode_rk4(OdeState(t=0.0, u=np.array([1.0]), p=np.array([0.0])),
                             _oscillator(), dt)
        assert state.u[0] == pytest.approx(math.cos(dt), abs=1e-10)
        assert state.p[0] == pytest.approx(-math.sin(dt), abs=1e-10)

    def test_zero_hamiltonian_is_identity(self):
        chart = Chart(m=1, n=1)
        h = HamiltonianSection(chart, "0")
        state = OdeState(t=0.0, u=np.array([3.0]), p=np.array([-2.0]))
        out = step_ode_rk4(state, h, 0.5)
        assert out.u[0] == 3.0 and out.p[0] == -2.0
        assert out.t == 0.5

    def test_non_finite_step_raises(self):
        # the step shares the integrator's kernel and its finiteness check
        h = model_td_mechanics("-u1^2/2")
        state = OdeState(t=0.5, u=np.array([1e308]), p=np.array([1e308]))
        with pytest.raises(FloatingPointError,
                           match=re.escape("non-finite state at step 1 (t = 1.5)")):
            step_ode_rk4(state, h, 1.0)

    def test_energy_drift(self):
        h = _oscillator()
        config = SolverConfig(dt=1e-3, t_final=10.0)
        traj = integrate_ode(h, OdeState(t=0.0, u=np.array([1.0]), p=np.array([0.0])),
                             config)
        energies = [0.5 * (s.u[0] ** 2 + s.p[0] ** 2) for s in traj]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-8

    def test_time_dependent_forcing(self):
        # H = p^2/2 + x1*u1: dp/dt = -t, so p(t) = -t^2/2
        h = model_td_mechanics("x1*u1")
        traj = integrate_ode(h, OdeState(t=0.0, u=np.array([0.0]), p=np.array([0.0])),
                             SolverConfig(dt=1e-3, t_final=2.0))
        assert traj[-1].p[0] == pytest.approx(-2.0, abs=1e-8)


class TestEvolveField:
    def _wave(self, K, t_final=1.0):
        dx = 2.0 * np.pi / K
        config = SolverConfig(dt=dx / 4.0, t_final=t_final, K=K, dx=dx)
        x = dx * np.arange(K)
        u0 = np.sin(x)
        M0 = -np.cos(x)
        return WaveModel(), config, x, u0, M0

    def test_travelling_wave(self):
        model, config, x, u0, M0 = self._wave(128)
        traj = evolve_field(model, config, u0, M0)
        final = traj[-1]
        assert np.max(np.abs(final.u - np.sin(x - final.t))) <= 1e-3

    def test_solution_error_converges(self):
        errors = []
        for K in (64, 128):
            model, config, x, u0, M0 = self._wave(K)
            final = evolve_field(model, config, u0, M0)[-1]
            errors.append(np.max(np.abs(final.u - np.sin(x - final.t))))
        ratio = errors[0] / errors[1]
        assert abs(ratio - 4.0) <= 1.0

    def test_zero_data_stays_zero(self):
        model, config, x, _, _ = self._wave(16, t_final=0.1)
        traj = evolve_field(model, config, np.zeros(16), np.zeros(16))
        assert all(np.all(s.u == 0.0) and np.all(s.M == 0.0) for s in traj)

    def test_deterministic(self):
        model, config, x, u0, M0 = self._wave(32, t_final=0.2)
        t1 = evolve_field(model, config, u0, M0)
        t2 = evolve_field(model, config, u0, M0)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.M, b.M)
            assert np.array_equal(a.P, b.P)

    def test_the_consumer_keeps_numpy_warnings_on(self):
        # the stepper silences overflow warnings within a step, never across a yield
        model, config, x, u0, M0 = self._wave(16, t_final=0.1)
        outside = np.geterr()
        for _ in solver._field_sections(model, config, u0, M0):
            assert np.geterr() == outside

    def test_newton_matches_closed_form(self):
        model, config, x, u0, M0 = self._wave(32, t_final=0.2)
        newton_config = SolverConfig(dt=config.dt, t_final=0.2, K=32, dx=config.dx,
                                     p_reconstruction="newton")
        t1 = evolve_field(model, config, u0, M0)
        t2 = evolve_field(model, newton_config, u0, M0)
        assert np.max(np.abs(t1[-1].u - t2[-1].u)) <= 1e-10

    @pytest.mark.parametrize("reconstruction", ["closed_form", "newton"])
    def test_sections_hold_grid_arrays(self, reconstruction):
        # the field path has one fibre coordinate: u, M and P are (K,) arrays
        K = 32
        dx = 1.0 / K
        x = dx * np.arange(K)
        config = SolverConfig(dt=dx / 8.0, t_final=0.05, K=K, dx=dx, boundary="dirichlet",
                              p_reconstruction=reconstruction)
        traj = evolve_field(PerfectGasModel(), config, x + 0.03 * np.sin(2.0 * np.pi * x),
                            0.01 * np.sin(2.0 * np.pi * x))
        assert len(traj) == 14
        for s in traj:
            assert s.x.shape == s.u.shape == s.M.shape == s.P.shape == (K,)

    def test_refuses_a_profile_that_is_not_one_dimensional(self):
        # the (1, K) layout of a fibre axis, and a profile of another length, are
        # refused by name, not broadcast or run on their own grid
        model, config, x, u0, M0 = self._wave(16, t_final=0.1)
        for u, M, name, shape in [(np.zeros((1, 16)), M0, "u", r"\(1, 16\)"),
                                  (u0, np.zeros((1, 16)), "M", r"\(1, 16\)"),
                                  (u0, np.zeros(8), "M", r"\(8,\)"),
                                  (np.zeros(12), np.zeros(12), "u", r"\(12,\)")]:
            with pytest.raises(ValueError, match=rf"the {name} profile must have shape "
                                                 rf"\(16,\), got {shape}"):
                evolve_field(model, config, u, M)
        for u, shape in [(np.zeros((1, 16)), r"\(1, 16\)"), (np.zeros(12), r"\(12,\)")]:
            with pytest.raises(ValueError, match=rf"the u profile must have shape "
                                                 rf"\(16,\), got {shape}"):
                reconstruct_P(u, model, config)


def _roll_ddx(a, dx, boundary="periodic"):
    """Reference: the np.roll central difference and one-sided ends."""
    if boundary == "periodic":
        return (np.roll(a, -1, axis=-1) - np.roll(a, 1, axis=-1)) / (2.0 * dx)
    out = np.empty_like(a)
    out[..., 1:-1] = (a[..., 2:] - a[..., :-2]) / (2.0 * dx)
    out[..., 0] = (-3.0 * a[..., 0] + 4.0 * a[..., 1] - a[..., 2]) / (2.0 * dx)
    out[..., -1] = (3.0 * a[..., -1] - 4.0 * a[..., -2] + a[..., -3]) / (2.0 * dx)
    return out


class TestDdx:
    """The slice stencil gives the np.roll formulas bit for bit."""

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("shape", [(2, 8), (5, 8, 2)], ids=["grid", "gauge"])
    def test_floats(self, boundary, shape):
        a = np.random.default_rng(3).uniform(-2.0, 2.0, shape)
        before = a.copy()
        # one component of a (T, K, 2) array is read through a view with
        # stride 2 along the grid axis
        view = a[..., 0] if len(shape) == 3 else a
        out = ddx(view, 0.37, boundary)
        expected = _roll_ddx(view, 0.37, boundary)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert np.array_equal(out, expected)
        assert np.array_equal(a, before)

    def test_integers(self):
        a = np.arange(24).reshape(2, 12) ** 2
        assert np.array_equal(ddx(a, 0.3), _roll_ddx(a, 0.3))
        # the one-sided ends once wrote into an integer array and truncated;
        # both boundaries now give the float derivative
        out = ddx(a, 0.3, "dirichlet")
        assert out.dtype == np.float64
        assert np.array_equal(out, _roll_ddx(a.astype(float), 0.3, "dirichlet"))


def _slope_kernel(system):
    """d2H/dP_a dP_b, row-major, compiled on its own."""
    P_names = system.chart.p_names[-system.chart.n:]
    return compile_exprs([e.diff(P) for e in system.dH_dp[-1] for P in P_names],
                         system.args, numpy=True)


def _reference_field_rk4(model, config, u0, M0):
    """Reference field RK4: the np.roll stencil, stacked right-hand sides and
    the Newton loop on one argument tuple with separate stress and slope
    kernels, as the field stepper was first written.  Each Newton solve
    after the first starts one step, with the last converged slope, from
    the last converged stress.  Returns the snapshots as (t, u, M, P)."""
    system = model.hamiltonian.system
    n, dx, boundary = model.chart.n, config.dx, config.boundary
    stress_slope = _slope_kernel(system)
    x = config.x0 + dx * np.arange(u0.shape[-1])
    prev = []  # (P, du/dx, slope) of each converged solve

    def reconstruct(t, u, M):
        du_dx = _roll_ddx(u, dx, boundary)
        P = np.asarray(model.reconstruct_P(du_dx), dtype=float)
        if config.p_reconstruction == "closed_form":
            return P
        if prev:
            P_prev, target_prev, slope_prev = prev[-1]
            P = P_prev + (du_dx[0] - target_prev) / slope_prev
        for _ in range(config.newton_max_iter):
            args = (t, x, *u, *M, *P)
            residual = np.atleast_1d(system.stress(*args)[0]) - du_dx[0]
            slope = np.broadcast_to(np.atleast_1d(stress_slope(*args)[0]),
                                    residual.shape)
            if np.max(np.abs(residual)) <= config.newton_tol:
                prev.append((P, du_dx[0], slope))
                return P
            P = P - residual / slope
        raise AssertionError("the reference Newton loop did not converge")

    def rhs(t, u, M, P=None):
        if P is None:
            P = reconstruct(t, u, M)
        values = [np.broadcast_to(np.atleast_1d(v), x.shape)
                  for v in system.evolution(t, x, *u, *M, *P)]
        du = np.stack(values[:n])
        dM = -np.stack(values[n:]) - _roll_ddx(P, dx, boundary)
        if boundary == "dirichlet":
            du[:, 0] = du[:, -1] = 0.0
            dM[:, 0] = dM[:, -1] = 0.0
        return du, dM

    dt = config.dt
    u, M = np.array(u0, dtype=float), np.array(M0, dtype=float)
    P = reconstruct(0.0, u, M)
    out = [(0.0, u, M, P)]
    for k in range(1, int(round(config.t_final / dt)) + 1):
        t = (k - 1) * dt
        k1u, k1M = rhs(t, u, M, P)
        k2u, k2M = rhs(t + dt / 2, u + dt / 2 * k1u, M + dt / 2 * k1M)
        k3u, k3M = rhs(t + dt / 2, u + dt / 2 * k2u, M + dt / 2 * k2M)
        k4u, k4M = rhs(t + dt, u + dt * k3u, M + dt * k3M)
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        M = M + dt / 6 * (k1M + 2 * k2M + 2 * k3M + k4M)
        P = reconstruct(k * dt, u, M)
        out.append((k * dt, u, M, P))
    return out


class TestFieldStepperReference:
    """evolve_field equals the reference stepper bit for bit.  Both call the
    same numpy and libm, so the comparison holds on any platform, where
    pinned digests would not."""

    def _assert_equal(self, model, config, u0, M0):
        traj = evolve_field(model, config, u0, M0)
        reference = _reference_field_rk4(model, config, u0[None], M0[None])
        assert len(traj) == len(reference) > 2
        for s, (t, u, M, P) in zip(traj, reference):
            assert s.t == t
            assert np.array_equal(s.u, u[0]) and np.array_equal(s.M, M[0])
            assert np.array_equal(s.P, P[0])

    def test_periodic_wave(self):
        K = 64
        dx = 2.0 * np.pi / K
        x = dx * np.arange(K)
        config = SolverConfig(dt=dx / 4.0, t_final=0.5, K=K, dx=dx)
        self._assert_equal(WaveModel(), config, np.sin(2 * x), -2.0 * np.cos(2 * x))

    def test_dirichlet_perfect_gas_newton(self):
        K = 32
        dx = 1.0 / K
        x = dx * np.arange(K)
        config = SolverConfig(dt=dx / 8.0, t_final=0.1, K=K, dx=dx, boundary="dirichlet",
                              p_reconstruction="newton")
        model = PerfectGasModel()
        self._assert_equal(model, config, x + 0.03 * np.sin(2.0 * np.pi * x),
                           0.01 * np.sin(2.0 * np.pi * x))


class TestReconstructP:
    def test_wave_closed_form(self):
        K = 64
        dx = 2.0 * np.pi / K
        config = SolverConfig(dt=dx / 4, t_final=1.0, K=K, dx=dx)
        x = dx * np.arange(K)
        P = reconstruct_P(np.sin(x), WaveModel(), config)
        assert np.max(np.abs(P + np.cos(x))) <= dx ** 2

    def test_constant_field(self):
        config = SolverConfig(dt=0.01, t_final=1.0, K=16, dx=0.1)
        P = reconstruct_P(np.full(16, 2.5), WaveModel(), config)
        assert np.allclose(P, 0.0)

    def test_gas_newton_round_trip(self):
        # the Newton solve reproduces the closed-form reconstruction
        model = PerfectGasModel()
        K = 32
        dx = 1.0 / K
        x = dx * np.arange(K)
        u = x + 0.05 * np.sin(2 * np.pi * x)  # monotone profile, du/dx > 0
        closed = SolverConfig(dt=1e-3, t_final=1.0, K=K, dx=dx, boundary="dirichlet")
        newton = SolverConfig(dt=1e-3, t_final=1.0, K=K, dx=dx, boundary="dirichlet",
                              p_reconstruction="newton")
        P1 = reconstruct_P(u, model, closed)
        P2 = reconstruct_P(u, model, newton)
        assert np.max(np.abs(P1 - P2)) <= 1e-10

    def test_newton_failure_reported(self):
        model = PerfectGasModel()
        # negative deformation gradient is outside the state relation's domain;
        # the Newton solve starts from the closed form, which refuses it
        for reconstruction in ("closed_form", "newton"):
            config = SolverConfig(dt=1e-3, t_final=1.0, K=16, dx=0.1,
                                  p_reconstruction=reconstruction)
            with pytest.raises(ValueError, match="positive"):
                reconstruct_P(-2.0 * 0.1 * np.arange(16), model, config)

    def test_newton_non_convergence_raises(self):
        # the closed form solves the constraint at step 0 to rounding, so one
        # Newton evaluation suffices there; the second stage of step 1 starts
        # one Newton step from that stress, taken with its slope, and that
        # step does not close the gap to the tolerance, so the error names
        # the grid point of the largest residual left
        model = PerfectGasModel()
        K = 32
        dx = 1.0 / K
        dt = dx / 8.0
        x = dx * np.arange(K)
        u = x + 0.03 * np.sin(2.0 * np.pi * x)
        M = 0.01 * np.sin(2.0 * np.pi * x)
        config = SolverConfig(dt=dt, t_final=0.1, K=K, dx=dx, boundary="dirichlet",
                              p_reconstruction="newton", newton_max_iter=1)
        system = model.hamiltonian.system
        du_dx = ddx(u, dx, "dirichlet")
        P = np.asarray(model.reconstruct_P(du_dx), dtype=float)
        assert np.abs(system.stress(0.0, x, u, M, P)[0] - du_dx).max() <= config.newton_tol
        slope = _slope_kernel(system)(0.0, x, u, M, P)[0]
        k1u, k1M, _ = _FieldSystem(model, config).rhs(0.0, x, u, M, P)
        u2, M2 = u + dt / 2 * k1u, M + dt / 2 * k1M
        target = ddx(u2, dx, "dirichlet")
        P2 = P + (target - du_dx) / slope
        residual = np.abs(system.stress(dt / 2, x, u2, M2, P2)[0] - target)
        index = int(np.argmax(residual))
        assert residual[index] > config.newton_tol
        with pytest.raises(NewtonError) as info:
            evolve_field(model, config, u, M)
        assert info.value.index == index
        assert info.value.residual == residual[index]
        assert str(info.value) == ("stress reconstruction did not converge at grid index "
                                   f"{index} (last residual {residual[index]:.3e})")

    def test_predicted_start_bounds_the_kernel_calls(self, monkeypatch):
        # the perfect gas at K = 128 with Dirichlet ends, dt = dx/8 to t = 0.5
        # (2,049 solves): from the predicted start every solve after the
        # first converges within two stress_and_slope calls
        model = PerfectGasModel()
        K = 128
        dx = 1.0 / K
        x = dx * np.arange(K)
        u0 = x + 0.0353546487410077 * np.sin(6.283185307179586 * x)
        M0 = 0.009504636963259353 * np.sin(6.283185307179586 * x)
        config = SolverConfig(dt=dx / 8.0, t_final=0.5, K=K, dx=dx, boundary="dirichlet",
                              p_reconstruction="newton")
        system = model.hamiltonian.system
        kernel, calls, per_solve = system.stress_and_slope, [0], []

        def counted(*args):
            calls[0] += 1
            return kernel(*args)

        def newton_P(self, *args):
            before = calls[0]
            P = newton(self, *args)
            per_solve.append(calls[0] - before)
            return P

        newton = _FieldSystem._newton_P
        monkeypatch.setitem(system.__dict__, "stress_and_slope", counted)
        monkeypatch.setattr(_FieldSystem, "_newton_P", newton_P)
        for _ in solver._field_sections(model, config, u0, M0):
            pass
        assert len(per_solve) == 2049
        assert max(per_solve[1:]) <= 2
        assert calls[0] <= 3600


class TestHdwResidual:
    def test_ode_trajectory_converges(self):
        h = _oscillator()
        norms = []
        for dt in (2e-3, 1e-3):
            traj = integrate_ode(h, OdeState(t=0.0, u=np.array([1.0]), p=np.array([0.0])),
                                 SolverConfig(dt=dt, t_final=1.0))
            norms.append(hdw_residual(traj, h, dt)["evolution_u"]["max"])
        # central time stencil dominates: second order
        assert abs(norms[0] / norms[1] - 4.0) <= 1.0

    def test_stationary_solution(self):
        chart = Chart(m=1, n=1)
        h = HamiltonianSection(chart, "p1_1")  # H independent of u at any point
        states = [OdeState(t=k * 0.1, u=np.array([k * 0.1]), p=np.array([2.0]))
                  for k in range(5)]
        norms = hdw_residual(states, h, 0.1)
        assert norms["evolution_u"]["max"] <= 1e-14
        assert norms["evolution_p"]["max"] <= 1e-14

    def test_field_exact_solution_sampled(self):
        model = WaveModel()
        norms_by_K = []
        for K in (32, 64):
            dx = 2 * np.pi / K
            dt = dx / 4
            x = dx * np.arange(K)
            traj = [GridSection(t=k * dt, x=x,
                                u=np.sin(x - k * dt),
                                M=-np.cos(x - k * dt),
                                P=-np.cos(x - k * dt))
                    for k in range(6)]
            norms = hdw_residual(traj, model.hamiltonian, dt, dx=dx)
            norms_by_K.append(max(norms[k]["max"] for k in norms))
        assert norms_by_K[0] / norms_by_K[1] == pytest.approx(4.0, rel=0.25)

    def test_field_refuses_two_fibre_coordinates(self):
        h = HamiltonianSection(Chart(m=2, n=2), "p1_1^2/2 + p1_2^2/2 - p2_1^2/2 - p2_2^2/2")
        x = np.linspace(0.0, 1.0, 16)
        traj = [GridSection(t=0.1 * k, x=x, u=np.zeros((2, 16)), M=np.zeros((2, 16)),
                            P=np.zeros((2, 16))) for k in range(3)]
        with pytest.raises(ValueError, match=re.escape(
                "field residuals need one fibre coordinate, n = 1; got Chart(m=2, n=2)")):
            hdw_residual(traj, h, 0.1, dx=x[1])

    def test_needs_three_snapshots(self):
        h = _oscillator()
        with pytest.raises(ValueError, match="snapshots"):
            hdw_residual([OdeState(0.0, np.zeros(1), np.zeros(1))] * 2, h, 0.1)

    def test_evolved_field_residual_converges(self):
        model = WaveModel()
        norms = []
        for K in (32, 64):
            dx = 2 * np.pi / K
            config = SolverConfig(dt=dx / 4, t_final=0.5, K=K, dx=dx)
            x = dx * np.arange(K)
            traj = evolve_field(model, config, np.sin(x), -np.cos(x))
            r = hdw_residual(traj, model.hamiltonian, config.dt, dx=dx)
            norms.append(max(r[k]["max"] for k in r))
        assert abs(norms[0] / norms[1] - 4.0) <= 1.2


def _whole_array_residual(traj, h, dt, dx=None, boundary="periodic"):
    """Reference: the residual norms of the whole trajectory at once, stacked."""
    def norms(r):
        return {"max": float(np.max(np.abs(r))), "l2": float(np.sqrt(np.mean(r ** 2)))}

    n = h.chart.n
    if h.chart.m == 1:
        t = np.array([s.t for s in traj])
        u = np.stack([s.u for s in traj])
        p = np.stack([s.p for s in traj])
        values = [np.broadcast_to(np.atleast_1d(v), t.shape)
                  for v in h.system.evolution(t, *u.T, *p.T)]
        res_u = (u[2:] - u[:-2]) / (2.0 * dt) - np.stack(values[:n], axis=1)[1:-1]
        res_p = (p[2:] - p[:-2]) / (2.0 * dt) + np.stack(values[n:], axis=1)[1:-1]
        return {"evolution_u": norms(res_u), "evolution_p": norms(res_p)}
    u = np.stack([s.u[None] for s in traj])
    M = np.stack([s.M[None] for s in traj])
    P = np.stack([s.P[None] for s in traj])
    t = np.array([s.t for s in traj])
    T, _, K = u.shape
    mid = slice(1, T - 1)
    args = (t[mid, None] * np.ones((1, K)), np.broadcast_to(traj[0].x, (T - 2, K)),
            *u[mid].swapaxes(0, 1), *M[mid].swapaxes(0, 1), *P[mid].swapaxes(0, 1))
    evolution = [np.broadcast_to(v, (T - 2, K)) for v in h.system.evolution(*args)]
    stress = [np.broadcast_to(v, (T - 2, K)) for v in h.system.stress(*args)]
    du_dt = (u[2:] - u[:-2]) / (2.0 * dt)
    dM_dt = (M[2:] - M[:-2]) / (2.0 * dt)
    ends = slice(2, -2) if boundary == "dirichlet" else slice(None)
    res_ut = [(du_dt[:, a] - evolution[a])[:, ends] for a in range(n)]
    res_ux = [(ddx(u[mid, a], dx, boundary) - stress[a])[:, ends] for a in range(n)]
    res_m = [(dM_dt[:, a] + ddx(P[mid, a], dx, boundary) + evolution[n + a])[:, ends]
             for a in range(n)]
    return {"evolution_u": norms(np.stack(res_ut)), "constraint_P": norms(np.stack(res_ux)),
            "evolution_M": norms(np.stack(res_m))}


def _residual_case(case, snapshots):
    """(trajectory, section, dt, dx, boundary) with the given number of snapshots."""
    if case == "ode":
        h = HamiltonianSection(Chart(m=1, n=2), HENON_HEILES)
        initial = OdeState(t=0.0, u=np.array([0.12, -0.2]), p=np.array([0.05, 0.1]))
        dt = 1e-3
        traj = integrate_ode(h, initial, SolverConfig(dt=dt, t_final=(snapshots - 1) * dt))
        return traj, h, dt, None, "periodic"
    K = 32
    if case == "wave":
        model, dx, boundary = WaveModel(), 2.0 * np.pi / K, "periodic"
        dt = dx / 4.0
        u0, M0 = np.sin(dx * np.arange(K)), -np.cos(dx * np.arange(K))
    else:
        model = PerfectGasModel()
        dx, boundary = 1.0 / K, "dirichlet"
        dt = dx / 8.0
        x = dx * np.arange(K)
        u0, M0 = x + 0.03 * np.sin(2.0 * np.pi * x), 0.01 * np.sin(2.0 * np.pi * x)
    config = SolverConfig(dt=dt, t_final=(snapshots - 1) * dt, K=K, dx=dx, boundary=boundary)
    traj = evolve_field(model, config, u0, M0)
    return traj, model.hamiltonian, dt, dx, boundary


class TestStreamedResidual:
    """``hdw_residual`` over chunks gives the norms of the whole-array formula."""

    @pytest.mark.parametrize("case, chunk", [("ode", solver._TABLE_ROWS),
                                             ("wave", solver._CHUNK),
                                             ("gas", solver._CHUNK)])
    @pytest.mark.parametrize("extra", [None, 1, 2, "twice"])
    def test_matches_the_whole_array_formula(self, case, chunk, extra):
        snapshots = 3 if extra is None else 2 * chunk + 3 if extra == "twice" else chunk + extra
        traj, h, dt, dx, boundary = _residual_case(case, snapshots)
        assert len(traj) == snapshots
        streamed = hdw_residual(traj, h, dt, dx=dx, boundary=boundary)
        whole = _whole_array_residual(traj, h, dt, dx=dx, boundary=boundary)
        assert streamed.keys() == whole.keys()
        assert any(norms["max"] > 0.0 for norms in whole.values())
        for key in whole:
            assert streamed[key]["max"] == whole[key]["max"]
            assert streamed[key]["l2"] == pytest.approx(whole[key]["l2"], rel=1e-15, abs=0)

    @pytest.mark.parametrize("case, chunk", [("ode", solver._TABLE_ROWS),
                                             ("wave", solver._CHUNK)])
    def test_a_nan_in_an_early_chunk_propagates(self, case, chunk):
        traj, h, dt, dx, boundary = _residual_case(case, 2 * chunk + 3)
        state = traj[5]
        if case == "ode":
            traj[5] = OdeState(t=state.t, u=np.array([np.nan, state.u[1]]), p=state.p)
        else:
            traj[5] = GridSection(t=state.t, x=state.x, u=state.u, M=state.M + np.nan,
                                  P=state.P)
        norms = hdw_residual(traj, h, dt, dx=dx, boundary=boundary)
        assert np.isnan(norms["evolution_u"]["max"]) or np.isnan(norms["evolution_M"]["max"])
        assert all(np.isnan(r["max"]) == np.isnan(r["l2"]) for r in norms.values())


class TestTimeGrid:
    """The snapshot after step k is at k*dt, not at a running sum of dt."""

    def test_ode(self):
        traj = integrate_ode(_oscillator(), OdeState(t=0.0, u=np.array([1.0]),
                                                     p=np.array([0.0])),
                             SolverConfig(dt=0.2, t_final=40.0))
        assert len(traj) == 201 and traj[-1].t == 200 * 0.2 == 40.0
        assert [s.t for s in traj] == [k * 0.2 for k in range(201)]

    def test_field(self):
        K = 16
        dx = 2.0 * np.pi / K
        config = SolverConfig(dt=0.1, t_final=20.0, K=K, dx=dx)
        x = dx * np.arange(K)
        traj = evolve_field(WaveModel(), config, np.sin(x), -np.cos(x))
        assert len(traj) == 201 and traj[-1].t == 200 * 0.1 == 20.0
        assert [s.t for s in traj] == [k * 0.1 for k in range(201)]

    def test_t_final_off_the_grid_rounds_the_step_count(self):
        # 6.5 steps round to 6 (half to even), as before
        traj = integrate_ode(_oscillator(), OdeState(t=0.0, u=np.array([1.0]),
                                                     p=np.array([0.0])),
                             SolverConfig(dt=0.2, t_final=1.3))
        assert len(traj) == 7 and traj[-1].t == 6 * 0.2


# forced Henon-Heiles, as in the benchmark's mechanics workload
HENON_HEILES = "p1_1^2/2 + p1_2^2/2 + u1^2/2 + u2^2/2 + u1^2*u2 - u2^3/3 + 0.003*x1*u1"


def _tree_walk_rk4(h, state, dt, steps):
    """Reference RK4: array stages, every derivative evaluated by a tree walk."""
    chart = h.chart
    dH_dp = [h.H.diff(name) for name in chart.p_names]
    dH_du = [h.H.diff(name) for name in chart.u_names]

    def rhs(t, u, p):
        b = {"x1": t, **dict(zip(chart.u_names, u)), **dict(zip(chart.p_names, p))}
        return (np.array([e.eval(b) for e in dH_dp]), np.array([-e.eval(b) for e in dH_du]))

    t, u, p = state.t, state.u, state.p
    out = [(t, u, p)]
    for k in range(1, steps + 1):
        k1u, k1p = rhs(t, u, p)
        k2u, k2p = rhs(t + dt / 2, u + dt / 2 * k1u, p + dt / 2 * k1p)
        k3u, k3p = rhs(t + dt / 2, u + dt / 2 * k2u, p + dt / 2 * k2p)
        k4u, k4p = rhs(t + dt, u + dt * k3u, p + dt * k3p)
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        p = p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        t = state.t + k * dt  # the exact time grid, not a running sum
        out.append((t, u, p))
    return out


class TestHamiltonianSystem:
    def _henon_heiles(self):
        h = HamiltonianSection(Chart(m=1, n=2), HENON_HEILES)
        return h, OdeState(t=0.0, u=np.array([0.12, -0.2]), p=np.array([0.05, 0.1]))

    def test_cached_on_the_section(self):
        h = _oscillator()
        assert h.system is h.system
        assert HamiltonianSection(h.chart, h.H).system is not h.system

    def test_integrate_ode_is_bit_identical_to_tree_walk(self):
        h, initial = self._henon_heiles()
        traj = integrate_ode(h, initial, SolverConfig(dt=1e-3, t_final=2.0))
        reference = _tree_walk_rk4(h, initial, 1e-3, 2000)
        assert len(traj) == len(reference)
        for s, (t, u, p) in zip(traj, reference):
            assert s.t == t and np.array_equal(s.u, u) and np.array_equal(s.p, p)

    def test_integrate_ode_matches_dop853(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        h, initial = self._henon_heiles()
        final = integrate_ode(h, initial, SolverConfig(dt=1e-3, t_final=5.0))[-1]

        def rhs(t, y):
            u1, u2, p1, p2 = y
            return [p1, p2, -(u1 + 2 * u1 * u2 + 0.003 * t), -(u2 + u1 ** 2 - u2 ** 2)]

        ref = scipy_integrate.solve_ivp(rhs, (0.0, final.t), [*initial.u, *initial.p],
                                        method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
        assert np.max(np.abs(np.concatenate([final.u, final.p]) - ref)) <= 1e-10

    def test_derivative_with_3000_terms_compiles(self):
        # the generated source is flat, so its size is not bounded by the
        # parser's nesting limit
        text = " + ".join(f"{(-1) ** k * k}*u1^{k}*p1_1" for k in range(1, 3001))
        h = HamiltonianSection(Chart(m=1, n=1), simplify(parse(text)))
        assert str(h.system.dH_du[0]).count("p1_1") == 3000
        b = {"x1": 0.0, "u1": 0.99, "p1_1": 0.5}
        assert h.system.hamilton(0.0, 0.99, 0.5) == \
            (h.system.dH_dp[0][0].eval(b), -h.system.dH_du[0].eval(b))

    def test_non_finite_state_raises(self):
        # du/dt = p, dp/dt = u grows like e^t and overflows near t = 710; the
        # error names the first non-finite step of the reference and its time
        h = model_td_mechanics("-u1^2/2")
        initial = OdeState(t=0.0, u=np.array([1.0]), p=np.array([0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            reference = _tree_walk_rk4(h, initial, 1.0, 2000)
        k, (t, _, _) = next((k, row) for k, row in enumerate(reference)
                            if not np.isfinite(np.concatenate(row[1:])).all())
        with pytest.raises(FloatingPointError) as info:
            integrate_ode(h, initial, SolverConfig(dt=1.0, t_final=2000.0))
        assert str(info.value) == f"non-finite state at step {k} (t = {t})"

    def test_domain_error_in_stage_3_propagates_unchanged(self, monkeypatch):
        h, initial = self._henon_heiles()
        kernel, calls, error = h.system.hamilton, [], DomainError("ln of non-positive value")

        def hamilton(*args):
            calls.append(args[0])
            if len(calls) == 3:
                raise error
            return kernel(*args)

        monkeypatch.setattr(h.system, "hamilton", hamilton)
        with pytest.raises(DomainError) as info:
            integrate_ode(h, initial, SolverConfig(dt=1e-3, t_final=1.0))
        assert info.value is error and calls == [0.0, 5e-4, 5e-4]

    def test_chained_steps_equal_the_integrated_rows(self):
        # a dyadic dt keeps the running time t + dt on the grid t0 + k*dt, so
        # the forcing sees the same stage times in both
        h, initial = self._henon_heiles()
        dt = 2.0 ** -10
        rows = integrate_ode(h, initial, SolverConfig(dt=dt, t_final=200 * dt))
        assert len(rows) == 201
        state = initial
        for row in rows[1:]:
            state = step_ode_rk4(state, h, dt)
            assert state.t == row.t and np.array_equal(state.u, row.u) \
                and np.array_equal(state.p, row.p)

    @pytest.mark.parametrize("make", [lambda: PerfectGasModel(),
                                      WaveModel], ids=["perfect-gas", "wave"])
    def test_stress_and_slope_equal_the_separate_kernels(self, make):
        # the wave model's slope is a constant, returned as a scalar
        system = make().hamiltonian.system
        x = np.linspace(0.0, 1.0, 16)
        args = [0.25, x, 1.0 + x, 0.1 * x, 0.3 + x]  # t, x, u, M, P
        fused = system.stress_and_slope(*args)
        separate = (system.stress(*args)[0], _slope_kernel(system)(*args)[0])
        assert len(fused) == 2
        for value, expected in zip(fused, separate):
            assert np.shape(value) == np.shape(expected)
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()

    def test_stress_and_slope_keep_the_domain_checks(self):
        system = PerfectGasModel().hamiltonian.system
        x = np.linspace(0.0, 1.0, 16)
        P = 0.3 + x
        P[5] = 0.0
        args = [0.25, x, 1.0 + x, 0.1 * x, P]
        errors = []
        for kernel in (system.stress_and_slope, system.stress, _slope_kernel(system)):
            with pytest.raises(DomainError) as info:
                kernel(*args)
            errors.append(str(info.value))
        assert errors == ["division by zero"] * 3

    def test_scalar_time_is_bit_identical_to_a_time_grid(self, monkeypatch):
        wave = WaveModel()
        forced = types.SimpleNamespace(
            chart=wave.chart, reconstruct_P=wave.reconstruct_P,
            hamiltonian=HamiltonianSection(
                wave.chart, simplify(parse(f"{wave.hamiltonian.H} + sin(x1)*u1"))))
        K = 32
        dx = 2.0 * np.pi / K
        x = dx * np.arange(K)
        config = SolverConfig(dt=dx / 4.0, t_final=0.5, K=K, dx=dx)

        def run():
            return evolve_field(forced, config, np.sin(x), -np.cos(x))

        traj = run()
        system = forced.hamiltonian.system
        kernel = system.evolution
        monkeypatch.setattr(system, "evolution",
                            lambda t, x, *fields: kernel(np.full_like(x, t), x, *fields))
        reference = run()
        assert len(traj) == len(reference)
        for s, r in zip(traj, reference):
            assert s.t == r.t and np.array_equal(s.u, r.u) and np.array_equal(s.M, r.M)

    def test_first_stage_reuses_the_snapshot_stress(self, monkeypatch):
        calls = []
        original = _FieldSystem.reconstruct_P

        def counted(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(_FieldSystem, "reconstruct_P", counted)
        K = 32
        dx = 2.0 * np.pi / K
        config = SolverConfig(dt=dx / 4.0, t_final=0.2, K=K, dx=dx, p_reconstruction="newton")
        x = dx * np.arange(K)
        traj = evolve_field(WaveModel(), config, np.sin(x), -np.cos(x))
        steps = len(traj) - 1
        assert len(calls) == 4 * steps + 1
