"""The four benchmark workloads: seeded inputs and output checks.

Each workload is one ``hdw`` CLI command.  ``make`` draws the workload's
parameters from the seed and returns the model file to write (or None) and
the command line; ``check`` returns the problems found in the outputs of
one op (an empty list when the output is correct).  The checks use
oracles independent of hdw: SciPy for mechanics, closed forms for the
wave and the perfect gas.
"""

from __future__ import annotations

import math

import numpy as np

from tracing import SUITES


def _last_rows(path, count: int) -> np.ndarray:
    """The last ``count`` CSV rows of ``path`` as floats."""
    data = path.read_bytes()
    rows = data.rstrip(b"\n").rsplit(b"\n", count)[-count:]
    return np.array([[float(v) for v in row.split(b",")] for row in rows])


def _num(value: float) -> str:
    """A float in the model language, with every digit kept."""
    return repr(float(value))


class Certify:
    """``hdw verify`` over all suites, without ``--out``.

    ``verification.json`` holds ``runtime_s`` and is not byte-stable, so the
    op compares stdout instead.
    """

    name = "certify"

    def make(self, seed: int):
        params = {"verify_seed": seed}
        return params, None, ["verify", "--seed", str(seed)], [], 0

    def check(self, params, out_dir, stdout: str) -> list[str]:
        lines = stdout.splitlines()
        passed = [ln for ln in lines if ln.startswith("[PASS] ")]
        problems = []
        if len(passed) != len(SUITES):
            problems.append(f"{len(passed)} of {len(SUITES)} suites passed")
        if not lines or lines[-1] != f"all {len(SUITES)} suite(s) passed":
            problems.append("missing final pass line")
        return problems


class Mechanics:
    """Forced Henon-Heiles system on a custom m=1, n=2 chart; 20k RK4 steps."""

    name = "mechanics"
    dt, t_final = 1e-3, 20.0
    tol = 1e-10  # max abs deviation of the final state from DOP853

    def make(self, seed: int):
        rng = np.random.default_rng(seed)
        c = float(rng.uniform(-5e-3, 5e-3))
        while True:  # bounded orbits: energy below half the escape energy 1/6
            u1, u2, p1, p2 = (float(v) for v in rng.uniform(-0.25, 0.25, 4))
            energy = (p1 ** 2 + p2 ** 2 + u1 ** 2 + u2 ** 2) / 2 + u1 ** 2 * u2 - u2 ** 3 / 3
            if energy < 1 / 12:
                break
        sign = "+" if c >= 0 else "-"
        model = {
            "name": "forced_henon_heiles",
            "chart": {"m": 1, "n": 2},
            "hamiltonian": "p1_1^2/2 + p1_2^2/2 + u1^2/2 + u2^2/2 + u1^2*u2 - u2^3/3 "
                           f"{sign} {_num(abs(c))}*x1*u1",
            "initial": {"u": [_num(u1), _num(u2)], "p": [_num(p1), _num(p2)]},
            "solver": {"dt": self.dt, "t_final": self.t_final},
        }
        params = {"c": c, "y0": [u1, u2, p1, p2]}
        steps = int(round(self.t_final / self.dt))
        return params, model, ["simulate"], ["trajectory.csv", "manifest.json"], steps

    def check(self, params, out_dir, stdout: str) -> list[str]:
        from scipy.integrate import solve_ivp
        t, *state = _last_rows(out_dir / "trajectory.csv", 1)[0]
        if not abs(t - self.t_final) < 1e-9:
            return [f"final time {t} != {self.t_final}"]
        c = params["c"]

        def rhs(time, y):
            u1, u2, p1, p2 = y
            return [p1, p2, -(u1 + 2 * u1 * u2 + c * time), -(u2 + u1 ** 2 - u2 ** 2)]

        ref = solve_ivp(rhs, (0.0, t), params["y0"], method="DOP853",
                        rtol=1e-13, atol=1e-13).y[:, -1]
        err = float(np.max(np.abs(np.array(state) - ref)))
        return [] if err <= self.tol else [f"final state off DOP853 by {err:.3e} > {self.tol}"]


class Wave:
    """Travelling sine wave on the built-in wave model, K=512, to t=2."""

    name = "wave"
    K, t_final = 512, 2.0

    def make(self, seed: int):
        rng = np.random.default_rng(seed)
        A = float(rng.uniform(0.5, 1.5))
        k = int(rng.integers(1, 4))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        dx = 2 * math.pi / self.K
        model = {
            "model": "wave",
            "initial": {"u": [f"{_num(A)}*sin({k}*x2 + {_num(phi)})"],
                        "M": [f"-{_num(A * k)}*cos({k}*x2 + {_num(phi)})"]},
            "solver": {"dt": dx / 4, "t_final": self.t_final, "K": self.K, "dx": dx},
        }
        steps = int(round(self.t_final / (dx / 4)))
        params = {"A": A, "k": k, "phi": phi, "dx": dx}
        return params, model, ["simulate"], ["trajectory.csv", "manifest.json"], steps

    def check(self, params, out_dir, stdout: str) -> list[str]:
        rows = _last_rows(out_dir / "trajectory.csv", self.K)
        t, x, u = rows[:, 0], rows[:, 1], rows[:, 2]
        A, k, dx = params["A"], params["k"], params["dx"]
        exact = A * np.sin(k * (x - t) + params["phi"])
        err = float(np.max(np.abs(u - exact)))
        # twice the leading phase error of the second-order central stencil
        bound = 2 * A * k * t[0] * (k * dx) ** 2 / 6
        return [] if err <= bound else [f"u off the exact wave by {err:.3e} > {bound:.3e}"]


class GasNewton:
    """Perfect gas with Newton stress reconstruction and Dirichlet ends, K=128."""

    name = "gas-newton"
    K, t_final = 128, 0.5
    gamma = 1.4  # default GasConstants; the state relation is P = (gamma-1) F^-gamma
    rtol = 1e-10

    def make(self, seed: int):
        rng = np.random.default_rng(seed)
        eps = float(rng.uniform(0.02, 0.05))  # du/dx = 1 + 2 pi eps cos(.) > 0
        amp = float(rng.uniform(0.0, 0.01))
        dx = 1.0 / self.K
        two_pi = _num(2 * math.pi)
        model = {
            "model": "perfect_gas",
            "initial": {"u": [f"x2 + {_num(eps)}*sin({two_pi}*x2)"],
                        "M": [f"{_num(amp)}*sin({two_pi}*x2)"]},
            "solver": {"dt": dx / 8, "t_final": self.t_final, "K": self.K, "dx": dx,
                       "boundary": "dirichlet", "p_reconstruction": "newton"},
        }
        steps = int(round(self.t_final / (dx / 8)))
        params = {"eps": eps, "amp": amp, "dx": dx}
        return params, model, ["simulate"], ["trajectory.csv", "manifest.json"], steps

    def check(self, params, out_dir, stdout: str) -> list[str]:
        rows = _last_rows(out_dir / "trajectory.csv", self.K)
        u, P = rows[:, 2], rows[:, 4]
        dx = params["dx"]
        F = np.empty_like(u)
        F[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        F[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx)
        F[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dx)
        if np.any(F <= 0.0):
            return ["deformation gradient lost positivity"]
        closed = (self.gamma - 1.0) * F ** -self.gamma
        err = float(np.max(np.abs(P / closed - 1.0)))
        return [] if err <= self.rtol else [f"P off the closed form by {err:.3e} > {self.rtol}"]


WORKLOADS = {w.name: w for w in (Certify(), Mechanics(), Wave(), GasNewton())}
