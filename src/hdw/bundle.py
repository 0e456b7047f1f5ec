"""Coordinate model of the configuration bundle and its observables.

A chart fixes the flat variable namespace: base coordinates ``x1..xm``,
fiber coordinates ``u1..un`` and momenta ``pI_A`` for the pair (base
index I, fiber index A).  The distinguished extended-momentum coordinate
is the reserved name ``pext``.

Currents are stored in decomposed form: a vertical-field coefficient
vector Y^a(x, u) together with form coefficients b^i(x, u); the induced
coefficient of the i-th component is  Y^a p^i_a + b^i.  For a
one-dimensional base every function of (x, u, p) is an observable and
the decomposition is not used; such observables are plain density
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .expr import Expression, NormalForm, Var, parse

EXTENDED_MOMENTUM = "pext"


@dataclass(frozen=True)
class Chart:
    """Local coordinates with base dimension ``m`` and fiber dimension ``n``."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("chart dimensions must be at least 1")

    def x_name(self, i: int) -> str:
        if not 1 <= i <= self.m:
            raise IndexError(f"base index {i} out of range 1..{self.m}")
        return f"x{i}"

    def u_name(self, a: int) -> str:
        if not 1 <= a <= self.n:
            raise IndexError(f"fiber index {a} out of range 1..{self.n}")
        return f"u{a}"

    def p_name(self, i: int, a: int) -> str:
        return f"p{self.x_name(i)[1:]}_{self.u_name(a)[1:]}"

    @property
    def x_names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, self.m + 1))

    @property
    def u_names(self) -> tuple[str, ...]:
        return tuple(f"u{a}" for a in range(1, self.n + 1))

    @property
    def p_names(self) -> tuple[str, ...]:
        return tuple(self.p_name(i, a)
                     for i in range(1, self.m + 1) for a in range(1, self.n + 1))

    @cached_property
    def names(self) -> frozenset[str]:
        return frozenset(self.x_names) | frozenset(self.u_names) | frozenset(self.p_names)

    def p(self, i: int, a: int) -> Var:
        return Var(self.p_name(i, a))

    def check_scope(self, e: Expression, where: str) -> None:
        extra = e.variables() - self.names
        if extra:
            raise ValueError(f"{where} references unknown variables {sorted(extra)}")


def _as_expr(e) -> Expression:
    return parse(e) if isinstance(e, str) else e


@dataclass(frozen=True)
class HamiltonianSection:
    """A Hamiltonian section in local coordinates: (x, u, -H, p)."""

    chart: Chart
    H: Expression

    def __post_init__(self):
        object.__setattr__(self, "H", _as_expr(self.H))
        self.chart.check_scope(self.H, "Hamiltonian")

    @cached_property
    def system(self):
        """H's derivatives, derived on first use: a :class:`hdw.solver.HamiltonianSystem`."""
        from .solver import HamiltonianSystem
        return HamiltonianSystem(self)


@dataclass(frozen=True)
class DensityCoefficient:
    """Coefficient F(x, u, p) of the volume form in a density."""

    chart: Chart
    F: Expression

    def __post_init__(self):
        object.__setattr__(self, "F", _as_expr(self.F))
        self.chart.check_scope(self.F, "density coefficient")


@dataclass(frozen=True)
class Current:
    """Observable stored as the pair (Y, beta); requires m >= 2.

    ``Y`` holds n vertical-field coefficients and ``beta`` holds m form
    coefficients, all functions of (x, u) only.
    """

    chart: Chart
    Y: tuple[Expression, ...]
    beta: tuple[Expression, ...]
    name: str = ""

    def __post_init__(self):
        if self.chart.m < 2:
            raise ValueError("currents in decomposed form require base dimension >= 2; "
                             "use a DensityCoefficient for m = 1")
        object.__setattr__(self, "Y", tuple(_as_expr(e) for e in self.Y))
        object.__setattr__(self, "beta", tuple(_as_expr(e) for e in self.beta))
        if len(self.Y) != self.chart.n:
            raise ValueError(f"expected {self.chart.n} Y coefficients, got {len(self.Y)}")
        if len(self.beta) != self.chart.m:
            raise ValueError(f"expected {self.chart.m} beta coefficients, got {len(self.beta)}")


class _ObservableForms:
    """The forms of an observable with component coefficients ``components``."""

    @cached_property
    def _field(self) -> tuple[tuple[NormalForm, ...], tuple[tuple[NormalForm, ...], ...]]:
        """Its Hamiltonian vector field (vu, vp), derived once from the C^i:
        vu[a] = dC^1/dp^1_a (Y^a for a current) and vp[i][a] = -dC^i/du^a."""
        chart, C = self.chart, self.components
        return (tuple(C[0].diff(chart.p_name(1, a)) for a in range(1, chart.n + 1)),
                tuple(tuple(-Ci.diff(u) for u in chart.u_names) for Ci in C))


@dataclass(frozen=True)
class CurrentForms(_ObservableForms):
    """The normal forms of a current's coefficients ``Y`` and ``beta``.

    Brackets compose these without emitting trees.
    """

    chart: Chart
    Y: tuple[NormalForm, ...]
    beta: tuple[NormalForm, ...]

    @staticmethod
    def of(c: Current) -> "CurrentForms":
        return CurrentForms(c.chart, tuple(map(NormalForm.of, c.Y)),
                            tuple(map(NormalForm.of, c.beta)))

    def to_current(self) -> Current:
        return Current(self.chart, tuple(f.to_expr() for f in self.Y),
                       tuple(f.to_expr() for f in self.beta))

    @cached_property
    def components(self) -> tuple[NormalForm, ...]:
        """The m component coefficients  C^i = Y^a p^i_a + b^i."""
        chart = self.chart
        return tuple(
            NormalForm.sum([y * NormalForm.atom(chart.p_name(i, a))
                            for a, y in enumerate(self.Y, start=1)] + [b])
            for i, b in enumerate(self.beta, start=1))


@dataclass(frozen=True)
class DensityForm(_ObservableForms):
    """The normal form of a density coefficient's ``F``, for the m = 1 brackets."""

    chart: Chart
    F: NormalForm

    @property
    def components(self) -> tuple[NormalForm]:
        """``(F,)``: on a one-dimensional base the observable is its one component."""
        return (self.F,)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    offending: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.valid


def validate_current(c: Current | CurrentForms, chart: Chart | None = None) -> ValidationReport:
    """Check that no coefficient of ``c`` depends on a momentum variable.

    Reads the variables of the coefficients' normal forms, so a momentum
    that cancels (``p1_1 - p1_1``) is no dependence.
    """
    if isinstance(c, Current):
        c = CurrentForms.of(c)
    chart = chart or c.chart
    forbidden = frozenset(chart.p_names) | {EXTENDED_MOMENTUM}
    offending: dict[str, tuple[str, ...]] = {}
    for label, exprs in (("Y", c.Y), ("beta", c.beta)):
        for k, e in enumerate(exprs, start=1):
            bad = e.variables() & forbidden
            if bad:
                offending[f"{label}[{k}]"] = tuple(sorted(bad))
    return ValidationReport(valid=not offending, offending=offending)


def require_valid(c: Current | CurrentForms) -> None:
    report = validate_current(c)
    if not report:
        raise ValueError(f"invalid current: momentum dependence in {report.offending}")
