"""Desk-scale numerical integration of the first-order field equations.

The base coordinate x1 is designated as time.  For a one-dimensional
base the equations are the classical Hamilton ODEs and are integrated
with RK4.  For a 1+1-dimensional base (x1 = t, x2 = x) the method of
lines is used: u and M = p1 evolve by RK4 with second-order central
space differences, while the stress P = p2 is reconstructed each stage
from the spatial constraint du/dx = dH/dP.

The right-hand sides and the residuals evaluate H's derivatives through
the section's :class:`HamiltonianSystem`, whose kernels are generated
code that computes exactly what the expression trees would.  A step that
reaches a non-finite state raises :class:`FloatingPointError`.
"""

from __future__ import annotations

import math
import numbers
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .bundle import HamiltonianSection
from .expr import Neg, compile_exprs, define_kernel

__all__ = [
    "OdeState", "GridSection", "SolverConfig", "NewtonError", "HamiltonianSystem",
    "step_ode_rk4", "integrate_ode", "evolve_field", "reconstruct_P",
    "hdw_residual",
]


class NewtonError(RuntimeError):
    def __init__(self, index: int, residual: float):
        super().__init__(f"stress reconstruction did not converge at grid index "
                         f"{index} (last residual {residual:.3e})")
        self.index = index
        self.residual = residual


@dataclass(frozen=True)
class OdeState:
    """Mechanics state (m = 1): fiber values and momenta at time t."""

    t: float
    u: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class GridSection:
    """Discrete field section (m = 2) on a spatial grid at time t."""

    t: float
    x: np.ndarray
    u: np.ndarray  # shape (n, K)
    M: np.ndarray  # shape (n, K)
    P: np.ndarray  # shape (n, K)


# the largest dt/dx that warn_cfl lets pass
_CFL_LIMIT = 0.5


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_final: float
    K: int = 0
    dx: float = 0.0
    x0: float = 0.0
    boundary: str = "periodic"
    scheme: str = "rk4"
    p_reconstruction: str = "closed_form"
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        # the values come from model files: a bool is not taken for a number
        for key in ("dt", "t_final", "dx", "x0", "newton_tol"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"solver.{key} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise ValueError(f"solver.{key} must be finite, got an integer "
                                 f"beyond the float range") from None
            if not finite:
                raise ValueError(f"solver.{key} must be finite, got {value}")
        for key in ("K", "newton_max_iter"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"solver.{key} must be an integer, got {value!r}")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if self.t_final < 0.0:
            raise ValueError(f"solver.t_final must be non-negative, got {self.t_final}")
        if self.dx < 0.0:
            raise ValueError(f"solver.dx must be positive, got {self.dx}")
        if self.newton_tol < 0.0:
            raise ValueError(f"solver.newton_tol must be non-negative, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(f"solver.newton_max_iter must be at least 1, "
                             f"got {self.newton_max_iter}")
        if self.boundary not in ("periodic", "dirichlet"):
            raise ValueError(f"unknown boundary '{self.boundary}'")
        if self.scheme != "rk4":
            raise ValueError(f"unknown scheme '{self.scheme}'")
        if self.p_reconstruction not in ("closed_form", "newton"):
            raise ValueError(f"unknown reconstruction '{self.p_reconstruction}'")
        if self.K and self.K < 8:
            raise ValueError("need at least 8 grid points for the stencils")

    def warn_cfl(self):
        if self.dx and self.dt > _CFL_LIMIT * self.dx:
            warnings.warn(f"time step {self.dt} exceeds {_CFL_LIMIT} * dx = "
                          f"{_CFL_LIMIT * self.dx}; expect instability",
                          stacklevel=3)


# ---------------------------------------------------------------------------
# The Hamiltonian system shared by the solvers and the residual


class HamiltonianSystem:
    """The derivatives of one Hamiltonian section, derived once.

    ``dH_du[a]`` is dH/du^a and ``dH_dp[i][a]`` is dH/dp^(i+1)_(a+1); the
    stress P is the momentum of the last base direction.  The kernels are
    generated by :func:`hdw.expr.compile_exprs` on first use: each takes
    the chart's coordinates positionally in the order of :attr:`args`
    (x, then u, then p) and returns a tuple.  Obtain the system as
    ``h.system``, which the section caches.
    """

    def __init__(self, h: HamiltonianSection):
        chart = h.chart
        self.chart = chart
        self.args = chart.x_names + chart.u_names + chart.p_names
        self.dH_du = tuple(h.H.diff(name) for name in chart.u_names)
        self.dH_dp = tuple(tuple(h.H.diff(chart.p_name(i, a)) for a in range(1, chart.n + 1))
                           for i in range(1, chart.m + 1))

    @cached_property
    def hamilton(self):
        """Scalar kernel of Hamilton's equations (m = 1): (dH/dp..., -dH/du...)."""
        return compile_exprs(self.dH_dp[0] + tuple(Neg(e) for e in self.dH_du), self.args)

    @cached_property
    def evolution(self):
        """Vectorized kernel: (dH/dp^1_a..., dH/du^a...)."""
        return compile_exprs(self.dH_dp[0] + self.dH_du, self.args, numpy=True)

    @cached_property
    def stress(self):
        """Vectorized kernel: (dH/dP_a...)."""
        return compile_exprs(self.dH_dp[-1], self.args, numpy=True)

    @cached_property
    def stress_and_slope(self):
        """Vectorized kernel: (dH/dP_a..., d2H/dP_a dP_b... row-major), with
        the subtrees and domain checks the two share computed once."""
        stress, P_names = self.dH_dp[-1], self.chart.p_names[-self.chart.n:]
        return compile_exprs(stress + tuple(e.diff(P) for e in stress for P in P_names),
                             self.args, numpy=True)


# rows per ODE table, and snapshots per evaluated chunk of the field residual
_TABLE_ROWS = 1024
_CHUNK = 64


def _non_finite(step: int, t: float) -> FloatingPointError:
    return FloatingPointError(f"non-finite state at step {step} (t = {t})")


def _quiet():
    """numpy's overflow, invalid and divide warnings off, so that a finiteness
    check decides; never held across a ``yield``, or the consumer inherits it."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


# ---------------------------------------------------------------------------
# ODE case (m = 1)


class _OdeSystem:
    """Hamilton's equations of an m = 1 section on a state y = [u..., p...]
    of Python floats, stepped by ``steps(table, k0, stop, t0, dt, *y)``, the
    RK4 kernel of :func:`_rk4_kernel` bound to the section's ``hamilton``."""

    def __init__(self, h: HamiltonianSection):
        if h.chart.m != 1:
            raise ValueError("ODE stepping requires a one-dimensional base")
        self.steps = partial(_rk4_kernel(2 * h.chart.n), h.system.hamilton)


@lru_cache(maxsize=None)
def _rk4_kernel(width: int):
    """Generated ``kernel(f, table, k0, stop, t0, dt, y0, ...)``: classical
    RK4 steps k0+1 ... stop of y' = f(t, y) on ``width`` scalars, from the
    state y at t0 + k0*dt.  It appends the row t, y... of each step to
    ``table`` and returns the last state.  The stages and the update are
    written out per component with the operations of the array form
    ``y + dt/2 * k1`` ... in the same order; a non-finite state raises
    before its row is appended."""

    def each(code: str, sep: str = ", ") -> str:
        return sep.join(code.format(j) for j in range(width))

    source = (
        f"def kernel(f, table, k0, stop, t0, dt, {each('y{0}')}):\n"
        "    append, h, sixth = table.append, dt / 2, dt / 6\n"
        "    for k in range(k0 + 1, stop + 1):\n"
        "        t = t0 + (k - 1) * dt\n"
        f"        {each('a{0}')}, = f(t, {each('y{0}')})\n"
        f"        {each('b{0}')}, = f(t + h, {each('y{0} + h * a{0}')})\n"
        f"        {each('c{0}')}, = f(t + h, {each('y{0} + h * b{0}')})\n"
        f"        {each('d{0}')}, = f(t + dt, {each('y{0} + dt * c{0}')})\n"
        + each("        y{0} = y{0} + sixth * (a{0} + 2 * b{0} + 2 * c{0} + d{0})\n", "")
        + "        t = t0 + k * dt\n"
        f"        if not ({each('isfinite(y{0})', ' and ')}):\n"
        "            raise _non_finite(k, t)\n"
        f"        append(t); {each('append(y{0})', '; ')}\n"
        f"    return {each('y{0}')},\n")
    return define_kernel(source, {"isfinite": math.isfinite, "_non_finite": _non_finite},
                         "<rk4_kernel>")


def _floats(state: OdeState) -> list[float]:
    return [*map(float, state.u), *map(float, state.p)]


def step_ode_rk4(state: OdeState, h: HamiltonianSection, dt: float) -> OdeState:
    """One classical fourth-order step of the Hamilton equations; raises
    FloatingPointError if it reaches a non-finite state."""
    y = _OdeSystem(h).steps(array("d"), 0, 1, state.t, dt, *_floats(state))
    n = len(state.u)
    return OdeState(t=state.t + dt, u=np.array(y[:n]), p=np.array(y[n:]))


def integrate_ode(h: HamiltonianSection, initial: OdeState,
                  config: SolverConfig) -> list[OdeState]:
    """RK4 trajectory; raises FloatingPointError at the first non-finite state."""
    n = len(initial.u)
    rows = np.concatenate(list(_ode_tables(h, initial, config)))
    return [initial] + [OdeState(t=t, u=row[1:n + 1], p=row[n + 1:])
                        for t, row in zip(rows[1:, 0].tolist(), rows[1:])]


def _ode_tables(h: HamiltonianSection, initial: OdeState, config: SolverConfig):
    """The RK4 trajectory as tables of up to 1024 rows t, u..., p..., the
    initial state first; the state after step k is at t0 + k*dt."""
    steps = int(round(config.t_final / config.dt))
    system = _OdeSystem(h)
    t0, dt, y = initial.t, config.dt, _floats(initial)
    if not all(map(math.isfinite, y)):
        raise _non_finite(0, t0)
    width = 1 + len(y)
    table, k = array("d", [t0, *y]), 0  # raw doubles, no float objects
    while True:
        stop = min(k + _TABLE_ROWS - len(table) // width, steps)
        y = system.steps(table, k, stop, t0, dt, *y)
        yield np.frombuffer(table).reshape(-1, width)
        if stop == steps:
            return
        table, k = array("d"), stop


# ---------------------------------------------------------------------------
# Field case (m = 2)


def ddx(a: np.ndarray, dx: float, boundary: str = "periodic") -> np.ndarray:
    """Second-order first derivative along the last axis: central differences,
    and one-sided ones at the ends of a non-periodic grid."""
    a = np.asarray(a)
    d = np.empty(a.shape, np.result_type(a, 1.0))
    np.subtract(a[..., 2:], a[..., :-2], out=d[..., 1:-1])
    if boundary == "periodic":
        np.subtract(a[..., 1], a[..., -1], out=d[..., 0])
        np.subtract(a[..., 0], a[..., -2], out=d[..., -1])
    else:
        d[..., 0] = -3.0 * a[..., 0] + 4.0 * a[..., 1] - a[..., 2]
        d[..., -1] = 3.0 * a[..., -1] - 4.0 * a[..., -2] + a[..., -3]
    d /= 2.0 * dx
    return d


class _FieldSystem:
    def __init__(self, model, config: SolverConfig):
        if model.chart.m != 2:
            raise ValueError("the field solver handles a 1+1-dimensional base")
        if config.p_reconstruction == "newton" and model.chart.n != 1:
            raise ValueError("Newton reconstruction implemented for scalar fibers")
        self.model = model
        self.n = model.chart.n
        self.config = config
        self.system = model.hamiltonian.system
        self._last: tuple | None = None  # (P, target, slope) of the last converged solve

    def reconstruct_P(self, t: float, x: np.ndarray, u: np.ndarray,
                      M: np.ndarray) -> np.ndarray:
        du_dx = ddx(u, self.config.dx, self.config.boundary)
        if self.config.p_reconstruction == "closed_form":
            return np.asarray(self.model.reconstruct_P(du_dx), dtype=float)
        return self._newton_P(t, x, u, M, du_dx)

    def _newton_P(self, t, x, u, M, du_dx) -> np.ndarray:
        """Newton's solve of dH/dP = du/dx.  The first solve starts from the
        model's closed form; each later one starts one Newton step, taken
        with the last converged slope, from the last converged P:
        P0 = P_prev + (target - target_prev) / slope_prev."""
        cfg = self.config
        target = du_dx[0]
        if self._last is not None:
            P_prev, target_prev, slope_prev = self._last
            P = P_prev + (target - target_prev) / slope_prev
        else:
            P = np.asarray(self.model.reconstruct_P(du_dx), dtype=float)
        residual = None
        for _ in range(cfg.newton_max_iter):
            # each a grid row or a scalar; the (K,) target broadcasts them
            stress, slope = self.system.stress_and_slope(t, x, *u, *M, *P)
            residual = stress - target
            if np.maximum.reduce(np.abs(residual), None) <= cfg.newton_tol:
                self._last = (P, target, slope)
                return P
            P = P - residual / slope
        worst = int(np.argmax(np.abs(residual)))
        raise NewtonError(worst, float(np.abs(residual[worst]).max()))

    def rhs(self, t: float, x: np.ndarray, u: np.ndarray, M: np.ndarray,
            P: np.ndarray | None = None):
        """(du/dt, dM/dt, P); P is reconstructed from u unless given."""
        if P is None:
            P = self.reconstruct_P(t, x, u, M)
        n = self.n
        du, dM = np.empty_like(u), np.empty_like(u)
        values = self.system.evolution(t, x, *u, *M, *P)
        for a in range(n):  # a kernel value is a grid row or a scalar
            du[a] = values[a]
            dM[a] = values[n + a]
        np.negative(dM, out=dM)
        dM -= ddx(P, self.config.dx, self.config.boundary)
        if self.config.boundary == "dirichlet":
            du[:, 0] = du[:, -1] = 0.0
            dM[:, 0] = dM[:, -1] = 0.0
        return du, dM, P


def evolve_field(model, config: SolverConfig, u0: np.ndarray,
                 M0: np.ndarray) -> list[GridSection]:
    """Method-of-lines trajectory of the field equations.

    Deterministic: identical configs produce bit-identical output.  Each
    step's first stage reuses the stress of the snapshot it starts from,
    and the snapshot after step k is at t = k*dt.  Raises
    FloatingPointError at the first non-finite state, and at the first
    state outside the model's stress relation (a ValueError of its
    ``reconstruct_P``, such as a non-positive gas deformation gradient).
    """
    return list(_field_sections(model, config, u0, M0))


def _field_sections(model, config: SolverConfig, u0: np.ndarray, M0: np.ndarray):
    """The snapshots of :func:`evolve_field`, one at a time."""
    config.warn_cfl()
    system = _FieldSystem(model, config)
    K = config.K or u0.shape[-1]
    x = config.x0 + config.dx * np.arange(K)
    u = np.atleast_2d(np.asarray(u0, dtype=float)).copy()
    M = np.atleast_2d(np.asarray(M0, dtype=float)).copy()
    t = 0.0
    dt = config.dt
    k = 0
    try:
        for k in range(int(round(config.t_final / dt)) + 1):
            with _quiet():
                if k:
                    k1u, k1M, _ = system.rhs(t, x, u, M, P)
                    k2u, k2M, _ = system.rhs(t + dt / 2, x, u + dt / 2 * k1u, M + dt / 2 * k1M)
                    k3u, k3M, _ = system.rhs(t + dt / 2, x, u + dt / 2 * k2u, M + dt / 2 * k2M)
                    k4u, k4M, _ = system.rhs(t + dt, x, u + dt * k3u, M + dt * k3M)
                    u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
                    M = M + dt / 6 * (k1M + 2 * k2M + 2 * k3M + k4M)
                    t = k * dt
                if not (np.isfinite(u).all() and np.isfinite(M).all()):
                    raise _non_finite(k, t)
                P = system.reconstruct_P(t, x, u, M)
            yield GridSection(t=t, x=x, u=u, M=M, P=P)
    except ValueError as exc:
        raise FloatingPointError(f"invalid state at step {k} (t = {t}): {exc}") from None


def reconstruct_P(u: np.ndarray, model, config: SolverConfig) -> np.ndarray:
    """Pointwise solve of the spatial constraint du/dx = dH/dP at t = 0 and
    zero momentum density M."""
    system = _FieldSystem(model, config)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    x = config.x0 + config.dx * np.arange(u.shape[-1])
    return system.reconstruct_P(0.0, x, u, np.zeros_like(u))


# ---------------------------------------------------------------------------
# Residual of the first-order equations along a trajectory


def hdw_residual(traj, h: HamiltonianSection, dt: float,
                 dx: float | None = None,
                 boundary: str = "periodic") -> dict[str, dict[str, float]]:
    """Central-difference residual norms of the field equations.

    For m = 1 expects a trajectory of :class:`OdeState`; for m = 2 a
    trajectory of :class:`GridSection` at uniform time spacing ``dt``.
    """
    if len(traj) < 3:
        raise ValueError("need at least 3 snapshots for the time stencil")
    residual = _ResidualNorms(h, dt, dx, boundary)
    if h.chart.m == 1:
        for i in range(0, len(traj), _TABLE_ROWS):
            part = traj[i:i + _TABLE_ROWS]
            residual.add(np.column_stack(([s.t for s in part], [s.u for s in part],
                                          [s.p for s in part])))
    else:
        for s in traj:
            residual.add([s])
    return residual.norms()


class _ResidualNorms:
    """Residual norms of the first-order equations along a trajectory that
    is fed in order, without holding it.

    ``add`` takes the next snapshots: for m = 1 a table of rows t, u...,
    p..., for m = 2 a list of :class:`GridSection`.  Once a chunk of new
    snapshots is held (``_TABLE_ROWS`` rows, or ``_CHUNK`` sections), it is
    evaluated with the whole-trajectory formula together with the two
    snapshots before it, so every snapshot but the first and the last is
    the centre of one time stencil.  Per residual the running max |r| (a
    nan stays nan), the chunk sums of r^2 and the count are kept.
    """

    def __init__(self, h: HamiltonianSection, dt: float, dx: float | None = None,
                 boundary: str = "periodic"):
        chart = h.chart
        if chart.m == 1:
            self._join, self._evaluate = np.concatenate, self._ode
            self._chunk = _TABLE_ROWS
        elif chart.m == 2:
            if dx is None:
                raise ValueError("dx is required for field residuals")
            self._join, self._evaluate = _sections, self._field
            self._chunk = _CHUNK
        else:
            raise ValueError("residuals implemented for m in (1, 2)")
        self.system, self.n, self.dt, self.dx, self.boundary = h.system, chart.n, dt, dx, boundary
        self._held: list = []
        self._count = 0
        self.snapshots = 0
        self._norms: dict[str, list] = {}  # key -> [max |r|, chunk sums of r^2, count]

    def add(self, snapshots) -> None:
        self._held.append(snapshots)
        self._count += len(snapshots)
        self.snapshots += len(snapshots)
        if self._count >= self._chunk + 2:
            self._flush()

    def norms(self) -> dict[str, dict[str, float]]:
        """Max and root-mean-square norm of each residual so far."""
        if self.snapshots < 3:
            raise ValueError("need at least 3 snapshots for the time stencil")
        if self._count > 2:
            self._flush()
        return {key: {"max": worst, "l2": math.sqrt(math.fsum(sums) / count)}
                for key, (worst, sums, count) in self._norms.items()}

    def _flush(self) -> None:
        chunk = self._join(self._held)
        with _quiet():  # an overflow leaves a non-finite norm, which the caller checks
            for key, parts in self._evaluate(chunk).items():
                norm = self._norms.setdefault(key, [0.0, [], 0])
                for r in parts:
                    norm[0] = float(np.maximum(norm[0], np.max(np.abs(r))))
                    norm[1].append(float(np.sum(np.square(r))))
                    norm[2] += r.size
        self._held = [chunk[-2:]]
        self._count = 2

    def _ode(self, rows: np.ndarray) -> dict[str, list[np.ndarray]]:
        n, dt = self.n, self.dt
        columns = np.ascontiguousarray(rows.T)
        t, u, p = columns[0], columns[1:n + 1], columns[n + 1:]  # u, p: (n, T)
        values = [np.broadcast_to(np.atleast_1d(v), t.shape)
                  for v in self.system.evolution(t, *u, *p)]
        du_dt = (u[:, 2:] - u[:, :-2]) / (2.0 * dt)
        dp_dt = (p[:, 2:] - p[:, :-2]) / (2.0 * dt)
        return {"evolution_u": [du_dt - np.stack(values[:n])[:, 1:-1]],
                "evolution_p": [dp_dt + np.stack(values[n:])[:, 1:-1]]}

    def _field(self, traj: list[GridSection]) -> dict[str, list[np.ndarray]]:
        n, dt, dx, boundary = self.n, self.dt, self.dx, self.boundary
        u = np.stack([s.u for s in traj])  # (T, n, K)
        M = np.stack([s.M for s in traj])
        P = np.stack([s.P for s in traj])
        t = np.array([s.t for s in traj])
        x = traj[0].x
        T, _, K = u.shape
        interior = slice(1, T - 1)
        args = (t[interior, None] * np.ones((1, K)), np.broadcast_to(x, (T - 2, K)),
                *u[interior].swapaxes(0, 1), *M[interior].swapaxes(0, 1),
                *P[interior].swapaxes(0, 1))
        evolution = [np.broadcast_to(v, (T - 2, K)) for v in self.system.evolution(*args)]
        stress = [np.broadcast_to(v, (T - 2, K)) for v in self.system.stress(*args)]

        du_dt = (u[2:] - u[:-2]) / (2.0 * dt)
        dM_dt = (M[2:] - M[:-2]) / (2.0 * dt)
        res_ut, res_ux, res_m = [], [], []
        for a in range(n):
            res_ut.append(du_dt[:, a] - evolution[a])
            res_ux.append(ddx(u[interior, a], dx, boundary) - stress[a])
            res_m.append(dM_dt[:, a] + ddx(P[interior, a], dx, boundary) + evolution[n + a])
        if boundary == "dirichlet":
            res_ut = [r[:, 2:-2] for r in res_ut]
            res_ux = [r[:, 2:-2] for r in res_ux]
            res_m = [r[:, 2:-2] for r in res_m]
        return {"evolution_u": res_ut, "constraint_P": res_ux, "evolution_M": res_m}


def _sections(parts: list[list[GridSection]]) -> list[GridSection]:
    return [s for part in parts for s in part]

