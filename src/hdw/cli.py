"""Command-line front end.

Subcommands: ``bracket``, ``simulate``, ``verify``, ``parse-check``.
Exit codes: 0 success, 1 verification failure, 2 usage, parse or output
error, 3 numeric failure.  Output is byte-stable: CSV values use 17 significant
digits and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bracket import bracket_affine
from .bundle import Chart, Current, DensityCoefficient, HamiltonianSection
from .expr import DomainError, ExprError, ParseError, compile_exprs, parse, simplify
from .models import (ContinuumSpec, GasConstants, PerfectGasModel, WaveModel,
                     model_td_mechanics)
from .solver import NewtonError, OdeState, SolverConfig, _field_sections, _quiet, \
    _ode_tables, _ResidualNorms
from .verify import run_suites, SUITES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# a simulation writes (steps + 1) x columns values to trajectory.csv, about
# 1.5 GB of text at this limit; it holds one block of them at a time
MAX_STORED_VALUES = 2 ** 26
# values per block of trajectory.csv, in whole rows (whole snapshots, at
# least one, for fields); formatting takes about 200 bytes per value
_BLOCK_VALUES = 2048


class ModelFileError(Exception):
    pass


class OutputError(Exception):
    """The output directory could not be created or written."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object", int: "an integer"}


def _expect(value, kind: type, where: str):
    """``value`` if it has the JSON type ``kind`` (a bool is no integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ModelFileError(f"{where} must be {_JSON_TYPES[kind]}, "
                             f"got {json.dumps(value)[:40]}")
    return value


def _texts(value, where: str) -> list[str]:
    """A JSON list of expression strings."""
    return [_expect(e, str, f"{where}[{k}]")
            for k, e in enumerate(_expect(value, list, where), start=1)]


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ModelFileError(f"unknown key(s) {unknown} in {where}; "
                             f"allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# Model files

_SOLVER_KEYS = {"dt", "t_final", "K", "dx", "x0", "boundary", "scheme",
                "p_reconstruction", "newton_tol", "newton_max_iter"}


class ModelFile:
    """Parsed and validated model description.

    JSON schema (unknown keys rejected):

    .. code-block:: json

        {
          "name": "label",
          "model": "wave | perfect_gas | td_mechanics",
          "potential": "u1^2/2",
          "chart": {"m": 1, "n": 1},
          "hamiltonian": "p1_1^2/2 + u1^2/2",
          "currents": [{"name": "q", "F": "u1"},
                       {"name": "flux", "Y": ["1"], "beta": ["0", "0"]}],
          "initial": {"u": ["sin(x2)"], "M": ["-cos(x2)"], "p": ["0"]},
          "solver": {"dt": 0.01, "t_final": 1.0, "K": 128, "dx": 0.05}
        }

    ``model`` selects a built-in theory; otherwise ``chart`` and
    ``hamiltonian`` define a custom one.  Current entries carry either a
    plain density coefficient ``F`` (m = 1) or the pair ``Y``/``beta``
    (m >= 2).  Initial data are expressions in the spatial coordinate
    x2 for fields, or constant expressions for mechanics.  Every field
    has the JSON type shown, and chart dimensions are integers >= 1.
    """

    def __init__(self, data: dict, source: str = "<model>"):
        if not isinstance(data, dict):
            raise ModelFileError(f"{source}: top level must be an object")
        _check_keys(data, {"name", "model", "potential", "chart", "hamiltonian",
                           "currents", "initial", "solver"}, source)
        self.source = source
        self.name = data.get("name", data.get("model", "custom"))
        self.field_model = None  # built-in object with reconstruct_P, if any

        builtin = data.get("model")
        if builtin is not None:
            self.hamiltonian = self._build_builtin(builtin, data)
        else:
            if "chart" not in data or "hamiltonian" not in data:
                raise ModelFileError(f"{source}: need either 'model' or both "
                                     f"'chart' and 'hamiltonian'")
            chart_obj = _expect(data["chart"], dict, f"{source}: chart")
            _check_keys(chart_obj, {"m", "n"}, f"{source}: chart")
            chart = Chart(**{k: _expect(chart_obj.get(k), int, f"{source}: chart.{k}")
                             for k in ("m", "n")})
            self.hamiltonian = HamiltonianSection(
                chart, parse(_expect(data["hamiltonian"], str, f"{source}: hamiltonian")))
        self.chart = self.hamiltonian.chart

        self.currents: dict[str, Current | DensityCoefficient] = {}
        for k, entry in enumerate(_expect(data.get("currents", []), list,
                                          f"{source}: currents"), start=1):
            where = f"{source}: currents[{k}]"
            _check_keys(_expect(entry, dict, where), {"name", "F", "Y", "beta"}, where)
            name = _expect(entry.get("name", f"current{k}"), str, f"{where}.name")
            if "F" in entry:
                if "Y" in entry or "beta" in entry:
                    raise ModelFileError(f"{where} mixes 'F' with 'Y'/'beta'")
                self.currents[name] = DensityCoefficient(
                    self.chart, parse(_expect(entry["F"], str, f"{where}.F")))
            else:
                if "Y" not in entry or "beta" not in entry:
                    raise ModelFileError(f"{where} needs 'F' or both 'Y' and 'beta'")
                self.currents[name] = Current(self.chart,
                                              tuple(map(parse, _texts(entry["Y"], f"{where}.Y"))),
                                              tuple(map(parse, _texts(entry["beta"],
                                                                      f"{where}.beta"))),
                                              name=name)

        initial = _expect(data.get("initial", {}), dict, f"{source}: initial")
        _check_keys(initial, {"u", "M", "p"}, f"{source}: initial")
        self.initial = {k: _texts(v, f"{source}: initial.{k}") for k, v in initial.items()}

        solver_obj = _expect(data.get("solver", {}), dict, f"{source}: solver")
        _check_keys(solver_obj, _SOLVER_KEYS, f"{source}: solver")
        self.solver_data = solver_obj

    def _build_builtin(self, builtin: str, data: dict) -> HamiltonianSection:
        if builtin == "wave":
            model = WaveModel()
            self.field_model = model
            return model.hamiltonian
        if builtin == "perfect_gas":
            model = PerfectGasModel(ContinuumSpec(gas=GasConstants()))
            self.field_model = model
            return model.hamiltonian
        if builtin == "td_mechanics":
            potential = _expect(data.get("potential", "0"), str, f"{self.source}: potential")
            return model_td_mechanics(parse(potential))
        raise ModelFileError(f"{self.source}: unknown built-in model "
                             f"'{builtin}' (wave, perfect_gas, td_mechanics)")

    def solver_config(self) -> SolverConfig:
        if "dt" not in self.solver_data or "t_final" not in self.solver_data:
            raise ModelFileError(f"{self.source}: solver needs 'dt' and 't_final'")
        return SolverConfig(**self.solver_data)


def load_model(path: str) -> ModelFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelFileError(f"cannot read model file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: not valid JSON ({exc})") from exc
    return ModelFile(data, source=path)


# ---------------------------------------------------------------------------
# Subcommands


def _parse_point(text: str) -> dict[str, float]:
    binding = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ModelFileError(f"evaluation point entry '{item}' is not name=value")
        name, _, value = item.partition("=")
        try:
            binding[name.strip()] = float(value)
        except ValueError as exc:
            raise ModelFileError(f"bad value in point entry '{item}'") from exc
    return binding


def cmd_bracket(args) -> int:
    model = load_model(args.model)
    if not model.currents:
        raise ModelFileError(f"{model.source}: no currents defined")
    if args.current:
        if args.current not in model.currents:
            raise ModelFileError(f"unknown current '{args.current}'; available: "
                                 f"{sorted(model.currents)}")
        names = [args.current]
    else:
        names = sorted(model.currents)

    points = [_parse_point(p) for p in args.at or []]
    for name in names:
        expr = bracket_affine(model.currents[name], model.hamiltonian).F
        print(f"{name}: {expr}")
        for point in points:
            spec = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(point.items()))
            print(f"  at {spec}: {_fmt(expr.eval(point))}")
    return EXIT_OK


def _eval_constant(text: str) -> float:
    """Value of a constant expression; compiled, so a deep parsed tree is fine."""
    return compile_exprs([parse(text)], [])()[0]


def _eval_profile(exprs: list[str], x: np.ndarray, chart: Chart) -> np.ndarray:
    rows = []
    for text in exprs:
        e = parse(text)
        extra = e.variables() - {"x2"}
        if extra:
            raise ModelFileError(f"initial profile may only use x2, got {sorted(extra)}")
        # compiled rather than walked, so a deep parsed tree is fine
        value = compile_exprs([e], ["x2"], numpy=True)(x)[0]
        rows.append(np.broadcast_to(np.atleast_1d(value), x.shape))
    if len(rows) != chart.n:
        raise ModelFileError(f"expected {chart.n} initial profiles, got {len(rows)}")
    return np.stack(rows)


def _json(obj, allow_nan: bool = True) -> str:
    """Byte-stable JSON text."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=allow_nan) + "\n"


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write a CSV file block by block, so its full text is never in memory;
    each block is the bytes of whole rows."""
    with path.open("wb") as f:
        f.write(",".join(header).encode() + b"\n")
        for block in blocks:
            f.write(block)


def _ode_blocks(tables):
    """Blocks of about ``_BLOCK_VALUES`` values, rows t, u..., p... of the
    tables."""
    from .csvtext import join_rows, slots  # see _field_blocks
    for table in tables:
        step = max(1, _BLOCK_VALUES // table.shape[1])
        for i in range(0, len(table), step):
            yield join_rows(slots(table[i:i + step]))


def _field_blocks(sections):
    """Blocks of whole snapshots, about ``_BLOCK_VALUES`` values of u, M and P
    each: rows t, x, then u, M, P of each fiber coordinate.  Each t and the
    shared grid x are formatted once."""
    # imported on first use: building its tables takes about 0.5 MiB of
    # resident memory, which hdw verify has no use for
    from .csvtext import WORDS, join_rows, slots

    def text(batch) -> bytes:
        S, (n, K) = len(batch), batch[0].u.shape
        values = slots(np.concatenate([[s.t for s in batch]] + [
            np.stack([s.u, s.M, s.P], axis=1).ravel() for s in batch]))
        rows = np.empty((S, K, 2 + 3 * n, WORDS), dtype=x_slots.dtype)
        rows[:, :, 0] = values[:S, None]
        rows[:, :, 1] = x_slots
        rows[:, :, 2:] = values[S:].reshape(S, 3 * n, K, WORDS).transpose(0, 2, 1, 3)
        return join_rows(rows)

    batch, x_slots = [], None
    for s in sections:
        if x_slots is None:
            n, K = s.u.shape
            per_block = max(1, _BLOCK_VALUES // (3 * n * K))
            x_slots = slots(s.x)
        batch.append(s)
        if len(batch) == per_block:
            yield text(batch)
            batch = []
    if batch:
        yield text(batch)


def _fed(items, add):
    """The items, each passed to ``add`` as it goes by."""
    for item in items:
        add(item)
        yield item


def _check_size(config: SolverConfig, columns: int) -> None:
    steps = config.t_final / config.dt
    if not math.isfinite(steps):
        raise ModelFileError(f"request takes t_final / dt = {steps} steps, above the "
                             f"limit of {MAX_STORED_VALUES} stored values")
    steps = round(steps)
    size = (steps + 1) * columns
    if size > MAX_STORED_VALUES:
        raise ModelFileError(f"request stores {size} values ({steps + 1} snapshots "
                             f"x {columns}), above the limit of {MAX_STORED_VALUES}")


@contextlib.contextmanager
def _output_dir(path: str):
    """Create the directory ``path`` and yield it.

    If the block raises, the directories created here are removed again
    (deepest first, each only if empty), and an ``OSError`` is reported as an
    :class:`OutputError`.
    """
    out = Path(path)
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except BaseException as exc:
        for d in created:
            with contextlib.suppress(OSError):
                d.rmdir()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {out}: {exc}") from exc
        raise


@contextlib.contextmanager
def _staged(out: Path, *names: str):
    """Yield temporary paths in ``out`` for the files ``names``.

    They are renamed to those files only when the block has written them all,
    so a failure never leaves one new file beside an earlier run's other; on
    any failure they are removed.
    """
    partial = {name: out / f".{name}.{os.getpid()}.tmp" for name in names}
    try:
        yield partial
        for name, path in partial.items():
            path.replace(out / name)
    except BaseException:
        for path in partial.values():
            path.unlink(missing_ok=True)
        raise


def cmd_simulate(args) -> int:
    with _output_dir(args.out or ".") as out:
        model = load_model(args.model)
        config = model.solver_config()
        chart = model.chart

        if chart.m == 1:
            u0 = np.array([_eval_constant(e) for e in model.initial.get("u", [])])
            p0 = np.array([_eval_constant(e) for e in model.initial.get("p", [])])
            if u0.shape != (chart.n,) or p0.shape != (chart.n,):
                raise ModelFileError(f"mechanics initial data needs {chart.n} 'u' "
                                     f"and {chart.n} 'p' entries")
            _check_size(config, 2 * chart.n)
            residual = _ResidualNorms(model.hamiltonian, config.dt)
            tables = _ode_tables(model.hamiltonian, OdeState(t=0.0, u=u0, p=p0), config)
            header = ["t"] + list(chart.u_names) + list(chart.p_names)
            blocks = _ode_blocks(_fed(tables, residual.add))
        elif chart.m == 2:
            if model.field_model is None:
                raise ModelFileError("field simulation needs a built-in model "
                                     "(closed-form stress reconstruction)")
            if not config.K or not config.dx:
                raise ModelFileError("field simulation needs solver.K and solver.dx")
            _check_size(config, 3 * chart.n * config.K)
            x = config.x0 + config.dx * np.arange(config.K)
            with _quiet():  # a non-finite profile fails at step 0, not as a numpy warning
                u0 = _eval_profile(model.initial.get("u", []), x, chart)
                M0 = _eval_profile(model.initial.get("M", []), x, chart)
            residual = _ResidualNorms(model.hamiltonian, config.dt, config.dx, config.boundary)
            sections = _field_sections(model.field_model, config, u0, M0)
            header = ["t", "x"]
            for a in range(1, chart.n + 1):
                header += [f"u{a}", f"M{a}", f"P{a}"]
            blocks = _field_blocks(_fed(sections, lambda s: residual.add([s])))
        else:
            raise ModelFileError("simulation supports base dimensions 1 and 2")

        with _staged(out, "trajectory.csv", "manifest.json") as partial:
            _write_csv(partial["trajectory.csv"], header, blocks)
            norms = residual.norms()
            try:
                manifest = _json({
                    "model": model.name,
                    "config": {k: v for k, v in sorted(model.solver_data.items())},
                    "snapshots": residual.snapshots,
                    "residual_norms": norms,
                }, allow_nan=False)
            except ValueError as exc:
                raise FloatingPointError(f"non-finite residual norm ({exc})") from None
            partial["manifest.json"].write_text(manifest)
    print(f"wrote {out / 'trajectory.csv'} ({residual.snapshots} snapshots)")
    return EXIT_OK


def cmd_verify(args) -> int:
    with _output_dir(args.out) if args.out else contextlib.nullcontext() as out:
        try:
            reports = run_suites(args.suite or None, seed=args.seed)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_USAGE
        for report in reports:
            print(report.summary())
        if out is not None:
            with _staged(out, "verification.json", "timings.json") as partial:
                partial["verification.json"].write_text(_json([r.to_dict() for r in reports]))
                partial["timings.json"].write_text(
                    _json({r.name: r.details["runtime_s"] for r in reports}))
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(f"all {len(reports)} suite(s) passed")
    return EXIT_OK


def cmd_parse_check(args) -> int:
    status = EXIT_OK
    for text in args.expression:
        try:
            e = parse(text)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = EXIT_USAGE
            continue
        print(f"ok: {simplify(e)}")
    return status


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdw",
        description="Brackets, solvers and verification for first-order "
                    "Hamiltonian field theories in local coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="print a current-Hamiltonian bracket")
    p.add_argument("--model", required=True, help="model file (JSON)")
    p.add_argument("--current", help="current name (default: all)")
    p.add_argument("--at", action="append", metavar="BINDING",
                   help="evaluation point, e.g. 'x1=0,u1=1,p1_1=2' (repeatable)")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("simulate", help="integrate the evolution equations")
    p.add_argument("--model", required=True, help="model file (JSON)")
    p.add_argument("--out", help="output directory (default: cwd)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="suite name (repeatable; default: all)")
    p.add_argument("--seed", type=int,
                   help="seed of the jacobi suite's finite-difference oracle")
    p.add_argument("--out", help="directory for the JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("parse-check", help="parse expressions and print them back")
    p.add_argument("expression", nargs="+",
                   help="expression text; after --, one may start with a minus: "
                        "hdw parse-check -- -u1")
    p.set_defaults(func=cmd_parse_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModelFileError, OutputError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, NewtonError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
