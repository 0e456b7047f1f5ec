import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hdw
from hdw import cli
from hdw.bundle import Chart
from hdw.cli import _field_blocks, _ode_blocks, _write_csv, main
from hdw.solver import GridSection, OdeState, evolve_field, integrate_ode


def write_model(tmp_path, data, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def unstable_wave_model(tmp_path):
    # dt = 10 dx: the explicit scheme blows up long before t_final
    dx = 2 * 3.141592653589793 / 64
    return write_model(tmp_path, {
        "model": "wave",
        "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
        "solver": {"dt": 1.0, "t_final": 1000.0, "K": 64, "dx": dx},
    })


@pytest.fixture
def oscillator_model(tmp_path):
    return write_model(tmp_path, {
        "name": "oscillator",
        "chart": {"m": 1, "n": 1},
        "hamiltonian": "p1_1^2/2 + u1^2/2",
        "currents": [{"name": "action", "F": "u1*p1_1"}],
        "initial": {"u": ["1"], "p": ["0"]},
        "solver": {"dt": 0.01, "t_final": 0.1},
    })


@pytest.fixture
def wave_model(tmp_path):
    K = 32
    dx = 2 * 3.141592653589793 / K
    return write_model(tmp_path, {
        "model": "wave",
        "currents": [{"name": "flux", "Y": ["1"], "beta": ["0", "0"]}],
        "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
        "solver": {"dt": dx / 4, "t_final": 0.2, "K": K, "dx": dx},
    })


class TestParseCheck:
    def test_valid(self, capsys):
        assert main(["parse-check", "p1_1^2/2"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid(self, capsys):
        assert main(["parse-check", "u1 + * 2"]) == 2
        assert "offset 5" in capsys.readouterr().err

    def test_mixed(self):
        assert main(["parse-check", "u1", "((("]) == 2

    def test_oversized_expression_is_reported_and_the_next_one_printed(self, capsys):
        # expanding the power would form 658,920 products of terms
        assert main(["parse-check", "(u1+u2+u3+u4)^30", "u1"]) == 2
        out, err = capsys.readouterr()
        assert out == "ok: u1\n"
        assert err.startswith("error: expression too large") and "131072" in err


class TestBracket:
    def test_prints_expression_and_value(self, oscillator_model, capsys):
        code = main(["bracket", "--model", oscillator_model,
                     "--at", "x1=0,u1=1,p1_1=2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "action:" in out
        assert "3" in out  # frozen oscillator value

    def test_unknown_current(self, oscillator_model, capsys):
        assert main(["bracket", "--model", oscillator_model,
                     "--current", "nope"]) == 2
        assert "available" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        assert main(["bracket", "--model", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("model, point, expected", [
        ({"chart": {"m": 2, "n": 2},
          "hamiltonian": "p1_1^2/2 + p2_2^2/2 + p1_2*p2_1 + sin(x1*u1) + exp(u2)*p2_1"
                         " + ln(1 + u1^2)*x2",
          "currents": [{"name": "flux", "Y": ["sin(u2)", "x1*u1"],
                        "beta": ["exp(x2)*u1", "ln(2 + u2^2)"]},
                       {"name": "weighted", "Y": ["u1^2", "1"], "beta": ["0", "x1*u2"]}]},
         "x1=0.5,x2=-0.25,u1=0.75,u2=-1,p1_1=0.5,p1_2=-0.5,p2_1=1.25,p2_2=2",
         "flux: p1_1*p1_2*x1 + p1_1*p2_1*cos(u2) + p1_1*exp(x2) + p1_2*p2_2*x1 + p1_2*u1"
         " + p2_1*p2_2*cos(u2) - p2_1*u1*x1*exp(u2) + 2*p2_2*u2/(u2^2 + 2) + p2_2*x1*exp(u2)"
         " - 2*u1*x2*sin(u2)/(u1^2 + 1) - x1*cos(u1*x1)*sin(u2)\n"
         "  at p1_1=0.5, p1_2=-0.5, p2_1=1.25, p2_2=2, u1=0.75, u2=-1, x1=0.5, x2=-0.25:"
         " 0.12949226329964408\n"
         "weighted: 2*p1_1^2*u1 + 2*p1_2*p2_1*u1 + 2*p2_1*u1*exp(u2) - p2_1*exp(u2)"
         " + p2_2*x1 - 2*u1^3*x2/(u1^2 + 1) - u1^2*x1*cos(u1*x1)\n"
         "  at p1_1=0.5, p1_2=-0.5, p2_1=1.25, p2_2=2, u1=0.75, u2=-1, x1=0.5, x2=-0.25:"
         " 0.54071938206931303\n"),
        ({"chart": {"m": 1, "n": 2},
          "hamiltonian": "p1_1^2/2 + exp(p1_2)/3 + sin(u1)*ln(2 + u2^2) + x1*u1",
          "currents": [{"name": "q", "F": "exp(p1_1)*u2 + p1_2^3 + sin(x1*u1)"}]},
         "x1=0.5,u1=0.75,u2=-1,p1_1=0.5,p1_2=-0.5",
         "q: p1_1*x1*cos(u1*x1) - 6*p1_2^2*u2*sin(u1)/(u2^2 + 2) + u1*cos(u1*x1)"
         " - u2*x1*exp(p1_1) - u2*cos(u1)*exp(p1_1)*ln(u2^2 + 2)"
         " + 0.3333333333333333*exp(p1_1)*exp(p1_2)\n"
         "  at p1_1=0.5, p1_2=-0.5, u1=0.75, u2=-1, x1=0.5: 3.7543330054636206\n"),
    ], ids=["m2-currents", "m1-density"])
    def test_stdout_is_pinned(self, model, point, expected, tmp_path, capsys):
        assert main(["bracket", "--model", write_model(tmp_path, model), "--at", point]) == 0
        assert capsys.readouterr().out == expected


class TestSimulate:
    def test_ode_outputs(self, oscillator_model, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--model", oscillator_model,
                     "--out", str(out)]) == 0
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,u1,p1_1"
        assert len(csv) == 12  # header + 11 snapshots
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model"] == "oscillator"
        assert manifest["residual_norms"]["evolution_u"]["max"] < 1e-3

    def test_field_outputs(self, wave_model, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--model", wave_model, "--out", str(out)]) == 0
        csv = (out / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,x,u1,M1,P1"

    def test_byte_stable(self, wave_model, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--model", wave_model, "--out", str(out1)])
        main(["simulate", "--model", wave_model, "--out", str(out2)])
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_unstable_run_exits_3_without_output(self, tmp_path, capsys):
        path = unstable_wave_model(tmp_path)
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="instability"):
            assert main(["simulate", "--model", path, "--out", str(out)]) == 3
        assert "non-finite state at step" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_domain_error_in_the_right_hand_side_exits_3(self, tmp_path, capsys):
        # dp/dt = -(ln(u1) + 1) drives u1 = 0.05 below zero within t = 1
        path = write_model(tmp_path, {
            "chart": {"m": 1, "n": 1},
            "hamiltonian": "p1_1^2/2 + u1*ln(u1)",
            "initial": {"u": ["0.05"], "p": ["-2"]},
            "solver": {"dt": 0.01, "t_final": 1.0},
        })
        assert main(["simulate", "--model", path, "--out", str(tmp_path / "run")]) == 3
        assert "ln of non-positive value" in capsys.readouterr().err

    def test_domain_error_inside_a_step_exits_3_without_output(self, tmp_path, capsys):
        # u1 reaches 0 with speed about 0.55: in step 2688 the last stage's state
        # u1 + dt*k3 is negative, after two tables were already written
        path = write_model(tmp_path, {
            "chart": {"m": 1, "n": 1},
            "hamiltonian": "p1_1^2/2 + u1*ln(u1)",
            "initial": {"u": ["0.5"], "p": ["-1"]},
            "solver": {"dt": 2e-4, "t_final": 2.0},
        })
        assert main(["simulate", "--model", path, "--out", str(tmp_path / "run")]) == 3
        assert "ln of non-positive value" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_deep_parsed_hamiltonian(self, tmp_path):
        # a 3000-term sum straight from the parser is far deeper than the
        # recursion limit
        path = write_model(tmp_path, {
            "chart": {"m": 1, "n": 1},
            "hamiltonian": "p1_1^2/2" + " + u1^2/6000" * 3000,
            "initial": {"u": ["1"], "p": ["0"]},
            "solver": {"dt": 0.01, "t_final": 0.1},
        })
        out = tmp_path / "run"
        assert main(["simulate", "--model", path, "--out", str(out)]) == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 12

    def test_invalid_gas_state_exits_3_without_output(self, tmp_path, capsys):
        # the periodic stencil wraps u = x2 + ...: du/dx < 0 at the grid ends
        K = 64
        path = write_model(tmp_path, {
            "model": "perfect_gas",
            "initial": {"u": ["x2 + 0.03*sin(6.283185307179586*x2)"], "M": ["0"]},
            "solver": {"dt": 1 / K / 8, "t_final": 0.1, "K": K, "dx": 1 / K},
        })
        out = tmp_path / "run"
        assert main(["simulate", "--model", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: invalid state at step 0")
        assert "deformation gradient must be positive" in err
        assert not out.exists()

    def test_newton_non_convergence_exits_3_without_output(self, tmp_path, capsys):
        # one Newton step per solve leaves a residual above newton_tol once the
        # warm start lags the state
        K = 128
        path = write_model(tmp_path, {
            "model": "perfect_gas",
            "initial": {"u": ["x2 + 0.03*sin(6.283185307179586*x2)"],
                        "M": ["0.01*sin(6.283185307179586*x2)"]},
            "solver": {"dt": 1 / K / 8, "t_final": 0.01, "K": K, "dx": 1 / K,
                       "boundary": "dirichlet", "p_reconstruction": "newton",
                       "newton_max_iter": 1},
        })
        out = tmp_path / "run"
        assert main(["simulate", "--model", path, "--out", str(out)]) == 3
        assert re.fullmatch(r"numeric failure: stress reconstruction did not converge at "
                            r"grid index \d+ \(last residual \d\.\d{3}e-\d+\)\n",
                            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        {"chart": {"m": 1, "n": 1}, "hamiltonian": "p1_1^2/2 + u1^2/2",
         "initial": {"u": ["1"], "p": ["0"]}, "solver": {"dt": 1e-9, "t_final": 2.0}},
        {"model": "wave", "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
         "solver": {"dt": 1e-9, "t_final": 2.0, "K": 32, "dx": 0.2}},
        # 25,000,001 rows of t, u1, p1_1: 75.0M values, 50.0M without t
        {"chart": {"m": 1, "n": 1}, "hamiltonian": "p1_1^2/2 + u1^2/2",
         "initial": {"u": ["1"], "p": ["0"]}, "solver": {"dt": 4e-8, "t_final": 1.0}},
        # 500,001 snapshots of t, x, u1, M1, P1 at K = 32: 80.0M values, 48.0M
        # without t and x
        {"model": "wave", "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
         "solver": {"dt": 2e-6, "t_final": 1.0, "K": 32, "dx": 0.2}},
    ], ids=["ode", "field", "ode-with-t", "field-with-t-and-x"])
    def test_oversized_request_exits_2_before_integrating(self, model, tmp_path, capsys,
                                                          monkeypatch):
        def integrate(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(cli, "_ode_tables", integrate)
        monkeypatch.setattr(cli, "_field_sections", integrate)
        path = write_model(tmp_path, model)
        out = tmp_path / "run"
        assert main(["simulate", "--model", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "request stores" in err and f"limit of {cli.MAX_STORED_VALUES}" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:time step:UserWarning")
    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_failed_run_leaves_no_files(self, existing, tmp_path):
        path = unstable_wave_model(tmp_path)
        out = tmp_path / "runs" / "unstable"
        if existing:
            out.mkdir(parents=True)
            (out / "trajectory.csv").write_bytes(b"t,x,u1,M1,P1\n0,0,0,0,0\n")
        assert main(["simulate", "--model", path, "--out", str(out)]) == 3
        if existing:
            assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv"]
            assert (out / "trajectory.csv").read_bytes() == b"t,x,u1,M1,P1\n0,0,0,0,0\n"
        else:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @staticmethod
    def _simulate_with_runtime_warnings_as_errors(path: str, tmp_path) -> str:
        """Exit 3 from ``hdw simulate`` run under ``-W error::RuntimeWarning``,
        with no warning or traceback and no output left; its stderr."""
        src = str(Path(hdw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hdw.cli",
                               "simulate", "--model", path, "--out", str(tmp_path / "run")],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
        return proc.stderr

    def test_unstable_run_exits_3_when_runtime_warnings_are_errors(self, tmp_path):
        # the finiteness check decides, not a numpy overflow warning on the way
        err = self._simulate_with_runtime_warnings_as_errors(unstable_wave_model(tmp_path),
                                                             tmp_path)
        assert "numeric failure: non-finite state at step" in err

    @pytest.mark.parametrize("model", [
        {"model": "wave", "initial": {"u": ["1e300*sin(x2)*1e10"], "M": ["-cos(x2)"]},
         "solver": {"dt": 0.01, "t_final": 0.1, "K": 32, "dx": 0.2}},
        {"chart": {"m": 1, "n": 1}, "hamiltonian": "p1_1^2/2 + u1^2/2",
         "initial": {"u": ["1e999"], "p": ["0"]}, "solver": {"dt": 0.01, "t_final": 0.1}},
    ], ids=["field", "mechanics"])
    def test_non_finite_initial_data_fail_at_step_0(self, model, tmp_path):
        err = self._simulate_with_runtime_warnings_as_errors(write_model(tmp_path, model),
                                                             tmp_path)
        assert err == "numeric failure: non-finite state at step 0 (t = 0.0)\n"

    def test_peak_memory_does_not_grow_with_the_run(self, tmp_path):
        # the trajectory is written and checked in one pass, never held
        K = 256
        dx = 2 * 3.141592653589793 / K
        peaks = []
        for t_final in (0.5, 4.0):
            path = write_model(tmp_path, {
                "model": "wave",
                "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
                "solver": {"dt": dx / 4, "t_final": t_final, "K": K, "dx": dx},
            }, f"wave-{t_final}.json")
            tracemalloc.start()
            try:
                assert main(["simulate", "--model", path,
                             "--out", str(tmp_path / str(t_final))]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 ** 20

    def test_missing_solver_block(self, tmp_path):
        path = write_model(tmp_path, {
            "chart": {"m": 1, "n": 1},
            "hamiltonian": "p1_1^2/2",
            "initial": {"u": ["0"], "p": ["0"]},
        })
        assert main(["simulate", "--model", path, "--out", str(tmp_path)]) == 2


def _per_value_csv(header: list[str], rows) -> str:
    """Reference rendering: one format(v, ".17g") per value, lines joined."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _first_difference(text: str, expected: str):
    """None, or the first differing line as (number, got, expected); cheaper
    to report than a diff of two large texts."""
    got, want = text.split("\n"), expected.split("\n")
    for i in range(max(len(got), len(want))):
        line = got[i] if i < len(got) else None
        if line != (want[i] if i < len(want) else None):
            return i, line, want[i] if i < len(want) else None
    return None


def _ode_rows(traj):
    return [[s.t, *s.u, *s.p] for s in traj]


def _field_rows(traj):
    rows = []
    for s in traj:
        for k in range(len(s.x)):
            rows.append([s.t, s.x[k], s.u[k], s.M[k], s.P[k]])
    return rows


@pytest.fixture
def recorded(monkeypatch):
    """The trajectories the CLI integrates, in call order, as the list
    wrappers of the generators it consumes return them."""
    trajs = []
    for name, listed in (("_ode_tables", integrate_ode), ("_field_sections", evolve_field)):
        def record(*args, _original=getattr(cli, name), _listed=listed):
            trajs.append(_listed(*args))
            return _original(*args)
        monkeypatch.setattr(cli, name, record)
    return trajs


class TestTrajectoryCsv:
    """``trajectory.csv`` has the bytes of the per-value rendering."""

    @pytest.mark.parametrize("model", [
        {"chart": {"m": 1, "n": 2},
         "hamiltonian": "p1_1^2/2 + p1_2^2/2 + u1^2/2 + u2^2/2 + u1^2*u2 - u2^3/3",
         "initial": {"u": ["0.1", "-0.2"], "p": ["0.3", "0"]},
         "solver": {"dt": 0.01, "t_final": 25.0}},  # 2501 rows: three tables
        {"model": "wave", "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
         "solver": {"dt": 0.05, "t_final": 0.5, "K": 32, "dx": 0.19634954084936207}},
        {"model": "perfect_gas",
         "initial": {"u": ["x2 + 0.03*sin(6.283185307179586*x2)"], "M": ["0"]},
         "solver": {"dt": 0.00390625, "t_final": 0.1, "K": 32, "dx": 0.03125,
                    "boundary": "dirichlet"}},
    ], ids=["ode", "wave", "perfect_gas"])
    def test_matches_per_value_rendering(self, model, tmp_path, recorded):
        out = tmp_path / "run"
        assert main(["simulate", "--model", write_model(tmp_path, model),
                     "--out", str(out)]) == 0
        [traj] = recorded
        rows = _ode_rows(traj) if isinstance(traj[0], OdeState) else _field_rows(traj)
        text = (out / "trajectory.csv").read_text()
        header = text.split("\n", 1)[0].split(",")
        assert _first_difference(text, _per_value_csv(header, rows)) is None

    def test_edge_values(self, tmp_path, csv_edge_values):
        # every edge value in every column: t, u, p of the ODE rows, and t, x,
        # u, M, P of the field rows, over several blocks of snapshots
        values = np.array(csv_edge_values)
        ode = [OdeState(t=v, u=np.roll(values, -k)[:2], p=np.roll(values, -k)[2:4])
               for k, v in enumerate(values)]
        field = [GridSection(t=v, x=values, u=np.roll(values, k),
                             M=np.roll(values[::-1], k), P=-np.roll(values, 2 * k))
                 for k, v in enumerate(values)]
        for name, blocks, rows in [("ode", _ode_blocks([np.array(_ode_rows(ode))]),
                                    _ode_rows(ode)),
                                   ("field", _field_blocks(field), _field_rows(field))]:
            header = ["c"] * len(rows[0])
            _write_csv(tmp_path / name, header, blocks)
            text = (tmp_path / name).read_text()
            assert _first_difference(text, _per_value_csv(header, rows)) is None


class TestModelFileValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_model(tmp_path, {"chart": {"m": 1, "n": 1},
                                      "hamiltonian": "0", "frobnicate": 1})
        assert main(["bracket", "--model", path]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path):
        path = write_model(tmp_path, {"chart": {"m": 1, "n": 1, "q": 2},
                                      "hamiltonian": "0"})
        assert main(["bracket", "--model", path]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bracket", "--model", str(path)]) == 2

    def test_unknown_builtin(self, tmp_path):
        path = write_model(tmp_path, {"model": "antigravity"})
        assert main(["bracket", "--model", path]) == 2

    def test_hamiltonian_out_of_scope(self, tmp_path):
        path = write_model(tmp_path, {"chart": {"m": 1, "n": 1},
                                      "hamiltonian": "u7"})
        assert main(["bracket", "--model", path]) == 2

    @pytest.mark.parametrize("key", ["Y", "beta"])
    def test_current_off_the_chart_names_the_variable(self, key, tmp_path, capsys):
        current = {"name": "q", "Y": ["0"], "beta": ["0", "0"]}
        current[key] = ["q7"] + current[key][1:]
        path = write_model(tmp_path, {"chart": {"m": 2, "n": 1}, "hamiltonian": "p1_1^2/2",
                                      "currents": [current]})
        assert main(["bracket", "--model", path]) == 2
        assert capsys.readouterr().err == (f"error: {path}: currents[1].{key}[1] references "
                                           f"unknown variables ['q7']\n")

    def test_oversized_chart_exits_2_before_any_name_is_built(self, tmp_path, capsys,
                                                              monkeypatch):
        # m + n + m*n = 16 + 240 + 3840 is at the limit of 4096, and 1 + 2048 + 2048
        # one above it
        assert cli.ModelFile({"chart": {"m": 16, "n": 240}, "hamiltonian": "u240"}).chart.n == 240

        def names(chart):
            raise AssertionError("chart names built")

        monkeypatch.setattr(Chart, "names", property(names))
        path = write_model(tmp_path, {"chart": {"m": 1, "n": 2048}, "hamiltonian": "0"})
        assert main(["bracket", "--model", path]) == 2
        assert capsys.readouterr().err == (f"error: {path}: chart m=1, n=2048 has 4097 "
                                           f"names, above the limit of {cli.MAX_CHART_NAMES}\n")

    def test_current_mixing_forms(self, tmp_path, capsys):
        path = write_model(tmp_path, {
            "chart": {"m": 2, "n": 1}, "hamiltonian": "0",
            "currents": [{"name": "x", "F": "u1", "Y": ["1"]}]})
        assert main(["bracket", "--model", path]) == 2
        assert "mixes" in capsys.readouterr().err


class TestVerify:
    def test_single_suite(self, capsys, tmp_path):
        code = main(["verify", "--suite", "m1-reduction",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] mechanics_reduction" in out
        payload = json.loads((tmp_path / "verification.json").read_text())
        assert payload[0]["passed"] is True

    def test_report_is_byte_stable(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["verify", "--suite", "m1-reduction", "--suite", "connection",
                         "--out", str(out)]) == 0
        report = (out1 / "verification.json").read_bytes()
        assert report == (out2 / "verification.json").read_bytes()
        assert b"runtime_s" not in report
        timings = json.loads((out1 / "timings.json").read_text())
        assert set(timings) == {"mechanics_reduction", "connection_class"}

    def test_seed_flag(self, capsys):
        assert main(["verify", "--suite", "m1-reduction", "--seed", "9"]) == 0

    def test_unknown_suite_is_usage_error(self):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_usage_error_on_no_command(self):
        assert main([]) == 2


def test_numeric_failure_exit_code(tmp_path):
    # {u1, ln(p1_1)} = 1/p1_1, so evaluating at p1_1=0 is a numeric failure (3)
    path = write_model(tmp_path, {
        "chart": {"m": 1, "n": 1},
        "hamiltonian": "ln(p1_1)",
        "currents": [{"name": "q", "F": "u1"}],
    })
    assert main(["bracket", "--model", path, "--at", "x1=0,u1=1,p1_1=0"]) == 3


@pytest.mark.parametrize("key, value", [("t_final", float("inf")), ("dt", float("nan"))])
def test_non_finite_solver_value_exits_2_without_output(key, value, tmp_path, capsys):
    solver = {"dt": 0.01, "t_final": 0.1}
    solver[key] = value
    path = write_model(tmp_path, {
        "chart": {"m": 1, "n": 1},
        "hamiltonian": "p1_1^2/2 + u1^2/2",
        "initial": {"u": ["1"], "p": ["0"]},
        "solver": solver,
    })
    assert ("Infinity" if value > 0 else "NaN") in Path(path).read_text()
    out = tmp_path / "run"
    assert main(["simulate", "--model", path, "--out", str(out)]) == 2
    assert f"solver.{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("newton_max_iter", 0, "solver.newton_max_iter must be at least 1"),
    ("newton_max_iter", 1.5, "solver.newton_max_iter must be an integer"),
    ("newton_max_iter", True, "solver.newton_max_iter must be an integer"),
    ("dt", "0.001", "solver.dt must be a number"),
    ("t_final", 10 ** 400, "solver.t_final must be finite"),
    ("newton_tol", -1, "solver.newton_tol must be non-negative"),
    ("newton_tol", True, "solver.newton_tol must be a number"),
    ("K", 128.5, "solver.K must be an integer"),
    ("t_final", -1, "solver.t_final must be non-negative"),
], ids=["max_iter-0", "max_iter-float", "max_iter-bool", "dt-string", "t_final-huge-int",
        "tol-negative", "tol-bool", "K-float", "t_final-negative"])
def test_bad_solver_value_exits_2_without_output(key, value, message, tmp_path, capsys):
    K = 128
    solver = {"dt": 1 / K / 8, "t_final": 0.01, "K": K, "dx": 1 / K,
              "boundary": "dirichlet", "p_reconstruction": "newton"}
    solver[key] = value
    path = write_model(tmp_path, {
        "model": "perfect_gas",
        "initial": {"u": ["x2 + 0.03*sin(6.283185307179586*x2)"], "M": ["0"]},
        "solver": solver,
    })
    out = tmp_path / "run"
    assert main(["simulate", "--model", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}, got ") and "Traceback" not in err
    assert not out.exists()


_OSCILLATOR = {"chart": {"m": 1, "n": 1}, "hamiltonian": "p1_1^2/2 + u1^2/2",
               "initial": {"u": ["1"], "p": ["0"]}, "solver": {"dt": 0.01, "t_final": 0.1}}
_WAVE = {"model": "wave", "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
         "solver": {"dt": 0.05, "t_final": 0.1, "K": 16, "dx": 0.4}}


@pytest.mark.parametrize("base, change, message", [
    (_OSCILLATOR, {"chart": {"m": [1], "n": 1}}, "chart.m must be an integer"),
    (_OSCILLATOR, {"chart": {"m": 1.5, "n": 1}}, "chart.m must be an integer"),
    (_OSCILLATOR, {"chart": {"m": True, "n": 1}}, "chart.m must be an integer"),
    (_OSCILLATOR, {"chart": {"m": 1}}, "chart.n must be an integer"),
    (_OSCILLATOR, {"chart": {"m": 0, "n": 1}}, "chart dimensions must be at least 1"),
    (_OSCILLATOR, {"chart": [1, 1]}, "chart must be an object"),
    (_OSCILLATOR, {"hamiltonian": 5}, "hamiltonian must be a string"),
    (_OSCILLATOR, {"currents": [5]}, "currents[1] must be an object"),
    (_OSCILLATOR, {"currents": "abc"}, "currents must be a list"),
    (_OSCILLATOR, {"currents": [{"F": 2}]}, "currents[1].F must be a string"),
    (_OSCILLATOR, {"initial": {"u": [1.0], "p": ["0"]}}, "initial.u[1] must be a string"),
    (_OSCILLATOR, {"solver": {"dt": 1e-300, "t_final": 1e300}}, "request takes t_final / dt"),
    ({"model": "td_mechanics", "potential": 3, **_OSCILLATOR}, {},
     "potential must be a string"),
    (_WAVE, {"solver": {"dt": 0.05, "t_final": 0.1, "K": 16, "dx": -0.1}},
     "solver.dx must be positive"),
    (_WAVE, {"initial": {"u": [1.0], "M": ["0"]}}, "initial.u[1] must be a string"),
    # a key the model does not read is refused, not ignored
    (_WAVE, {"initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"], "p": ["0"]}},
     "unknown key(s) ['p'] in"),
    (_OSCILLATOR, {"initial": {"u": ["1"], "p": ["0"], "M": ["0"]}},
     "unknown key(s) ['M'] in"),
    (_WAVE, {"initial": {"u": ["sin(x2)", "0"], "M": ["-cos(x2)"]}},
     "expected one 'u' profile, got 2"),
    (_WAVE, {"initial": {"u": ["sin(x2)"]}}, "expected one 'M' profile, got 0"),
], ids=["m-list", "m-float", "m-bool", "n-missing", "m-zero", "chart-list",
        "hamiltonian-number", "current-number", "currents-string", "F-number",
        "initial-number", "steps-infinite", "potential-number", "dx-negative",
        "profile-number", "field-initial-p", "mechanics-initial-M", "two-u-profiles",
        "M-profile-missing"])
def test_bad_model_file_exits_2_without_output(base, change, message, tmp_path, capsys):
    model = {**base, **change}
    if model.get("model"):
        model.pop("chart", None), model.pop("hamiltonian", None)
    out = tmp_path / "run"
    assert main(["simulate", "--model", write_model(tmp_path, model),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_a_failed_manifest_write_keeps_the_earlier_run(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    model = dict(_OSCILLATOR)
    assert main(["simulate", "--model", write_model(tmp_path, model), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["manifest.json", "trajectory.csv"]

    write_text = Path.write_text

    def failing(self, *args, **kwargs):
        if "manifest" in self.name:
            raise OSError("no space left on device")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    model["solver"] = {"dt": 0.01, "t_final": 0.2}
    assert main(["simulate", "--model", write_model(tmp_path, model), "--out", str(out)]) == 2
    assert f"error: cannot write {out}: no space left" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_failed_timings_write_leaves_no_report(tmp_path, monkeypatch, capsys):
    out = tmp_path / "new" / "report"
    write_text = Path.write_text

    def failing(self, *args, **kwargs):
        if "timings" in self.name:
            raise OSError(28, "No space left on device")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)
    assert main(["verify", "--suite", "m1-reduction", "--out", str(out)]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["verify", "--suite", "m1-reduction"],
                                     ["simulate", "--model", "MODEL"]], ids=["verify", "simulate"])
def test_an_unwritable_out_exits_2_without_output(command, tmp_path, capsys):
    # --out under a regular file cannot be created: an error line, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "runs" / "run"
    model = write_model(tmp_path, _OSCILLATOR)
    argv = [model if arg == "MODEL" else arg for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "model.json"]
    assert blocker.read_text() == ""


_ZEROS = "0 + " * 3000  # a parsed sum far deeper than the recursion limit


@pytest.mark.parametrize("model, entry, shallow", [
    ({"chart": {"m": 1, "n": 1}, "hamiltonian": "p1_1^2/2 + u1^2/2",
      "initial": {"u": ["0.5"], "p": ["0"]}, "solver": {"dt": 0.01, "t_final": 0.1}},
     "u", "0.5"),
    ({"model": "wave", "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"]},
      "solver": {"dt": 0.05, "t_final": 0.1, "K": 16, "dx": 0.39269908169872414}},
     "u", "sin(x2)"),
], ids=["ode", "field"])
def test_deep_parsed_initial_data(model, entry, shallow, tmp_path):
    rows = []
    for name, text in (("shallow", shallow), ("deep", _ZEROS + shallow)):
        model["initial"][entry] = [text]
        out = tmp_path / name
        assert main(["simulate", "--model", write_model(tmp_path, model, f"{name}.json"),
                     "--out", str(out)]) == 0
        rows.append((out / "trajectory.csv").read_text().splitlines()[1])
    assert rows[0] == rows[1]


def test_initial_value_with_a_variable_is_refused_before_evaluation(tmp_path, capsys):
    # ln(0) would fail first if the value were evaluated
    model = {"chart": {"m": 1, "n": 1}, "hamiltonian": "p1_1^2/2 + u1^2/2",
             "initial": {"u": ["ln(0) + u1"], "p": ["0"]},
             "solver": {"dt": 0.01, "t_final": 0.1}}
    assert main(["simulate", "--model", write_model(tmp_path, model),
                 "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: initial value may not use variables, got ['u1']\n"


def test_parse_check_infinite_constant(capsys):
    assert main(["parse-check", "1e400"]) == 0
    assert capsys.readouterr().out == "ok: 1e999\n"


def test_parse_check_nan_constant_is_usage_error(capsys):
    assert main(["parse-check", "1e400/1e400"]) == 2
    assert "the constant nan has no printed form" in capsys.readouterr().err


def test_parse_check_leading_minus_after_double_dash(capsys):
    assert main(["parse-check", "--", "-u1"]) == 0
    assert capsys.readouterr().out == "ok: -u1\n"


@pytest.mark.parametrize("text", ["(" * 2000 + "u1" + ")" * 2000, "-" * 3000 + "u1"],
                         ids=["parentheses", "unary-minus"])
def test_parse_check_too_deeply_nested_is_usage_error(text, capsys):
    assert main(["parse-check", "--", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested too deeply at offset 100")
    assert "Traceback" not in err
