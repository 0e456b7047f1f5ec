"""Bracket and isomorphism operations in local coordinates.

All operations return symbolic expressions; evaluation is a separate
step, which enables both simplify-to-zero checks and numeric sampling
from one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundle import (Chart, Current, CurrentDifferential, DensityCoefficient,
                     HamiltonianSection, coefficient_derivative, d_current,
                     require_valid)
from .expr import Const, Expression, NormalForm, simplify


@dataclass(frozen=True)
class PhaseComponents:
    """Vertical-differential components of a Hamiltonian section.

    ``Au[a]`` is the u-coefficient and ``Ap[i][a]`` the momentum
    coefficient, indexed by base direction i and fiber index a.
    """

    Au: tuple
    Ap: tuple


@dataclass(frozen=True)
class GammaSection:
    """Canonical representative of the Hamiltonian-connection class.

    ``hu[i][a]`` are the horizontal u-components and ``hp[a]`` the trace
    part of the momentum components; the trace-free momentum directions
    are unconstrained and never stored.
    """

    hu: tuple
    hp: tuple


@dataclass(frozen=True)
class VerticalField:
    """Vertical vector field attached to an observable.

    ``vu[a]`` are the fiber components, ``vp[i][b]`` the momentum
    components; ``vpext`` is the extended-momentum component when the
    extended field is requested.
    """

    vu: tuple
    vp: tuple
    vpext: Expression | None = None


def _neg(x):
    if isinstance(x, Expression):
        return (-NormalForm.of(x)).to_expr()
    return -x


def dh_components(h: HamiltonianSection) -> PhaseComponents:
    """Vertical differential of a Hamiltonian section: (dH/du, dH/dp)."""
    chart = h.chart
    Au = tuple(h.H.diff(chart.u_name(a)) for a in range(1, chart.n + 1))
    Ap = tuple(
        tuple(h.H.diff(chart.p_name(i, a)) for a in range(1, chart.n + 1))
        for i in range(1, chart.m + 1)
    )
    return PhaseComponents(Au=Au, Ap=Ap)


def sharp_aff(pc: PhaseComponents) -> GammaSection:
    """Isomorphism from phase components to connection-class components."""
    hu = tuple(tuple(row) for row in pc.Ap)
    hp = tuple(_neg(a) for a in pc.Au)
    return GammaSection(hu=hu, hp=hp)


def a_hat(g: GammaSection) -> PhaseComponents:
    """Inverse of :func:`sharp_aff`."""
    Au = tuple(_neg(p) for p in g.hp)
    Ap = tuple(tuple(row) for row in g.hu)
    return PhaseComponents(Au=Au, Ap=Ap)


def gamma_h(h: HamiltonianSection) -> GammaSection:
    """Connection-class components of the evolution operator for ``h``."""
    return sharp_aff(dh_components(h))


@dataclass(frozen=True)
class ConnectionCheck:
    is_hamiltonian: bool
    max_residual: float


def _default_samples(chart: Chart, count: int = 20, seed: int = 0) -> list[dict[str, float]]:
    rng = np.random.default_rng(seed)
    names = sorted(chart.names)
    return [{name: float(v) for name, v in zip(names, rng.uniform(-1.0, 1.0, len(names)))}
            for _ in range(count)]


def connection_is_hamiltonian(Hu: Sequence[Sequence], Hp: Sequence[Sequence[Sequence]],
                              h: HamiltonianSection,
                              samples: Sequence[dict] | None = None,
                              tol: float = 1e-9) -> ConnectionCheck:
    """Decide whether connection coefficients define an evolution operator for ``h``.

    ``Hu[i][a]`` is the u-coefficient of the i-th horizontal lift and
    ``Hp[i][a][j]`` its p^j_a coefficient.  Only the u-coefficients and
    the momentum trace are constrained: Hu must equal dH/dp and the
    trace sum_i Hp[i][a][i] must equal -dH/du.  Trace-free momentum
    perturbations are accepted.
    """
    chart = h.chart
    m, n = chart.m, chart.n
    if len(Hu) != m or any(len(row) != n for row in Hu):
        raise ValueError(f"Hu must have shape ({m}, {n})")
    if len(Hp) != m or any(len(row) != n for row in Hp) or \
            any(len(cell) != m for row in Hp for cell in row):
        raise ValueError(f"Hp must have shape ({m}, {n}, {m})")

    def as_form(v) -> NormalForm:
        return NormalForm.of(v if isinstance(v, Expression) else Const(float(v)))

    H = NormalForm.of(h.H)
    forms: list[NormalForm] = []
    for i in range(1, m + 1):
        for a in range(1, n + 1):
            forms.append(NormalForm.sum([as_form(Hu[i - 1][a - 1]), -H.diff(chart.p_name(i, a))]))
    for a in range(1, n + 1):
        forms.append(NormalForm.sum([as_form(Hp[i - 1][a - 1][i - 1]) for i in range(1, m + 1)]
                                    + [H.diff(chart.u_name(a))]))

    if not any(f.terms for f in forms):
        return ConnectionCheck(is_hamiltonian=True, max_residual=0.0)

    residuals = [f.to_expr() for f in forms]
    if samples is None:
        samples = _default_samples(chart)
    worst = 0.0
    for binding in samples:
        for r in residuals:
            worst = max(worst, abs(r.eval(binding)))
    return ConnectionCheck(is_hamiltonian=worst <= tol, max_residual=worst)


def bracket_affine(c: Current | DensityCoefficient, h: HamiltonianSection) -> DensityCoefficient:
    """Pairing of an observable with a Hamiltonian section.

    The explicit base-derivative terms plus :func:`bracket_linear` of
    ``c`` with H read as a density coefficient.  For a one-dimensional
    base the observable is a plain density coefficient f(x, u, p) and the
    result is the time-dependent Poisson formula
    df/dx + df/du dH/dp - df/dp dH/du.
    """
    chart = h.chart
    if isinstance(c, DensityCoefficient):
        if chart.m != 1:
            raise ValueError("plain density observables are only defined for m = 1; "
                             "supply a Current for m >= 2")
        explicit = [NormalForm.of(c.F).diff(chart.x_name(1))]
    else:
        require_valid(c)
        explicit = [coefficient_derivative(c, i, chart.x_name(i))
                    for i in range(1, chart.m + 1)]
    linear = _linear_form(c, NormalForm.of(h.H))
    return DensityCoefficient(chart, NormalForm.sum(explicit + [linear]).to_expr())


def bracket_linear(c: Current | DensityCoefficient,
                   F: DensityCoefficient) -> DensityCoefficient:
    """Bilinear bracket of an observable with a density coefficient.

    This is the linear part of :func:`bracket_affine` in its second
    argument.  For m = 1 both arguments are density coefficients and the
    result is the canonical Poisson bracket.
    """
    if isinstance(c, DensityCoefficient):
        if F.chart.m != 1:
            raise ValueError("plain density observables are only defined for m = 1")
    else:
        require_valid(c)
    return DensityCoefficient(F.chart, _linear_form(c, NormalForm.of(F.F)).to_expr())


def _linear_form(c: Current | DensityCoefficient, g: NormalForm) -> NormalForm:
    """Normal form of the bracket of a valid ``c`` with the density coefficient ``g``."""
    chart = c.chart
    terms: list[NormalForm] = []
    if isinstance(c, DensityCoefficient):
        f = NormalForm.of(c.F)
        for a in range(1, chart.n + 1):
            ua, pa = chart.u_name(a), chart.p_name(1, a)
            terms.append(f.diff(ua) * g.diff(pa))
            terms.append(-(f.diff(pa) * g.diff(ua)))
    else:
        for a in range(1, chart.n + 1):
            ua = chart.u_name(a)
            for i in range(1, chart.m + 1):
                terms.append(coefficient_derivative(c, i, ua) * g.diff(chart.p_name(i, a)))
            terms.append(-(g.diff(ua) * NormalForm.of(c.Y[a - 1])))
    return NormalForm.sum(terms)


def current_bracket(a: Current, b: Current) -> Current:
    """Lie bracket on observables: -([Y,Z], i_Y d(beta_b) - i_Z d(beta_a))."""
    chart = a.chart
    if chart != b.chart:
        raise ValueError("currents must share a chart")
    if chart.m < 2:
        raise ValueError("the current bracket requires m >= 2; "
                         "use bracket_linear on density coefficients for m = 1")
    require_valid(a)
    require_valid(b)
    Y = [NormalForm.of(e) for e in a.Y]
    Z = [NormalForm.of(e) for e in b.Y]

    def transport(qa: Expression, qb: Expression) -> Expression:
        """-(Y^c d(qb)/du^c - Z^c d(qa)/du^c) for matching components qa of a, qb of b."""
        fa, fb = NormalForm.of(qa), NormalForm.of(qb)
        terms = []
        for c, u in enumerate(chart.u_names):
            terms.append(-(Y[c] * fb.diff(u)))
            terms.append(Z[c] * fa.diff(u))
        return NormalForm.sum(terms).to_expr()

    Y_out = [transport(ya, yb) for ya, yb in zip(a.Y, b.Y)]
    beta_out = [transport(alpha, beta) for alpha, beta in zip(a.beta, b.beta)]
    return Current(chart, tuple(Y_out), tuple(beta_out))


def hamiltonian_field(c: Current, extended: bool = False) -> VerticalField:
    """Vertical vector field generated by an observable.

    With ``extended=True`` the extended-momentum component is included.
    """
    require_valid(c)
    dc: CurrentDifferential = d_current(c)
    chart = c.chart
    vu = tuple(simplify(y) for y in c.Y)
    vp = tuple(
        tuple(_neg(dc.cu[b][i]) for b in range(chart.n))
        for i in range(chart.m)
    )
    vpext = _neg(dc.c0) if extended else None
    return VerticalField(vu=vu, vp=vp, vpext=vpext)


def representation_residual(a: Current, b: Current, h: HamiltonianSection,
                            samples: Sequence[dict] | dict) -> float:
    """Max absolute defect of the affine-representation identity.

    residual = {{a,b}, h} - {a, {b,h}}_l + {b, {a,h}}_l  at each sample.
    """
    lhs = bracket_affine(current_bracket(a, b), h)
    r1 = bracket_linear(a, bracket_affine(b, h))
    r2 = bracket_linear(b, bracket_affine(a, h))
    residual = NormalForm.sum([NormalForm.of(lhs.F), -NormalForm.of(r1.F),
                               NormalForm.of(r2.F)]).to_expr()

    if isinstance(samples, dict):
        arrays = {k: np.asarray(v, dtype=float) for k, v in samples.items()}
    else:
        names = sorted(set().union(*(s.keys() for s in samples)))
        arrays = {name: np.array([s[name] for s in samples], dtype=float)
                  for name in names}
    values = np.atleast_1d(residual.eval_many(arrays))
    return float(np.max(np.abs(values))) if values.size else 0.0
