"""Bracket and isomorphism operations in local coordinates.

All operations return symbolic expressions.  The brackets are composed
on normal forms, so a nested bracket builds no intermediate tree: each
public bracket emits its result once.  A residual is a list of normal
forms and is decided by its coefficients, never by evaluating it:
:func:`connection_is_hamiltonian` and :func:`representation_residual`
report the largest |coefficient| left.  The derivatives of a
Hamiltonian section are read from ``h.system``, which derives them once.
An observable's Hamiltonian vector field V_c is derived once, and read by
the brackets, as {c, g}_l = -V_c(g), by :func:`hamiltonian_field` and by
the defect pairing of :func:`hdw.verify._law_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bundle import (Current, CurrentForms, DensityCoefficient, DensityForm,
                     HamiltonianSection, _as_expr, require_valid)
from .expr import Const, Expression, NormalForm


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
    components and ``vpext`` the extended-momentum component.
    """

    vu: tuple
    vp: tuple
    vpext: Expression


def _neg(x):
    if isinstance(x, Expression):
        return (-NormalForm.of(x)).to_expr()
    return -x


def dh_components(h: HamiltonianSection) -> PhaseComponents:
    """Vertical differential of a Hamiltonian section: (dH/du, dH/dp), from ``h.system``."""
    return PhaseComponents(Au=h.system.dH_du, Ap=h.system.dH_dp)


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


# the largest |coefficient| a connection residual may keep: a trace split as
# -(1/3)*dH/du over three diagonal slots leaves terms of about 5.6e-17
_COEFFICIENT_TOL = 1e-9


def _terms_left(forms: Iterable[NormalForm]) -> list[float]:
    """The |coefficient| of each term left in the residual ``forms``."""
    return [abs(c) for f in forms for c in f.terms.values()]


def _largest(left: Sequence[float]) -> float:
    """The largest of the |coefficients| ``left``: 0.0 when there is none, nan
    when one is nan."""
    return math.nan if any(map(math.isnan, left)) else max(left, default=0.0)


def connection_is_hamiltonian(Hu: Sequence[Sequence], Hp: Sequence[Sequence[Sequence]],
                              h: HamiltonianSection) -> ConnectionCheck:
    """Decide whether connection coefficients define an evolution operator for ``h``.

    ``Hu[i][a]`` is the u-coefficient of the i-th horizontal lift and
    ``Hp[i][a][j]`` its p^j_a coefficient, each an expression, its text or
    a number on the chart of ``h``.  Only the u-coefficients and the
    momentum trace are constrained: Hu must equal dH/dp and the trace
    sum_i Hp[i][a][i] must equal -dH/du.  Trace-free momentum perturbations
    are accepted.  The residuals are normal forms, so an identity that the
    normal form does not reduce (sin^2 + cos^2 = 1) is not recognised.
    """
    chart = h.chart
    m, n = chart.m, chart.n
    if len(Hu) != m or any(len(row) != n for row in Hu):
        raise ValueError(f"Hu must have shape ({m}, {n})")
    if len(Hp) != m or any(len(row) != n for row in Hp) or \
            any(len(cell) != m for row in Hp for cell in row):
        raise ValueError(f"Hp must have shape ({m}, {n}, {m})")

    def as_form(v, where: str) -> NormalForm:
        e = _as_expr(v) if isinstance(v, (str, Expression)) else Const(float(v))
        chart.check_scope(e, where)
        return NormalForm.of(e)

    system = h.system
    worst = _largest(_terms_left(_connection_forms(
        [[as_form(v, f"Hu[{i}][{a}]") for a, v in enumerate(row)] for i, row in enumerate(Hu)],
        [[[as_form(v, f"Hp[{i}][{a}][{j}]") for j, v in enumerate(cell)]
          for a, cell in enumerate(row)] for i, row in enumerate(Hp)],
        [NormalForm.of(e) for e in system.dH_du],
        [[NormalForm.of(e) for e in row] for row in system.dH_dp])))
    return ConnectionCheck(is_hamiltonian=worst <= _COEFFICIENT_TOL, max_residual=worst)


def _connection_forms(Hu: Sequence[Sequence[NormalForm]],
                      Hp: Sequence[Sequence[Sequence[NormalForm]]],
                      dH_du: Sequence[NormalForm],
                      dH_dp: Sequence[Sequence[NormalForm]]) -> list[NormalForm]:
    """The residuals Hu - dH/dp and sum_i Hp[i][a][i] + dH/du that
    :func:`connection_is_hamiltonian` decides on, from the normal forms of the
    coefficients and of H's derivatives."""
    m, n = len(dH_dp), len(dH_du)
    forms = [NormalForm.sum([Hu[i][a], -dH_dp[i][a]]) for i in range(m) for a in range(n)]
    forms += [NormalForm.sum([Hp[i][a][i] for i in range(m)] + [dH_du[a]]) for a in range(n)]
    return forms


def bracket_affine(c: Current | DensityCoefficient, h: HamiltonianSection) -> DensityCoefficient:
    """Pairing of an observable with a Hamiltonian section.

    The explicit base-derivative terms plus :func:`bracket_linear` of
    ``c`` with H read as a density coefficient.  For a one-dimensional
    base the observable is a plain density coefficient f(x, u, p) and the
    result is the time-dependent Poisson formula
    df/dx + df/du dH/dp - df/dp dH/du.
    """
    _check_charts(c, h)
    return DensityCoefficient(h.chart, _affine_form(_forms(c), NormalForm.of(h.H)).to_expr())


def bracket_linear(c: Current | DensityCoefficient,
                   F: DensityCoefficient) -> DensityCoefficient:
    """Bilinear bracket of an observable with a density coefficient.

    This is the linear part of :func:`bracket_affine` in its second
    argument.  For m = 1 both arguments are density coefficients and the
    result is the canonical Poisson bracket.
    """
    _check_charts(c, F)
    return DensityCoefficient(F.chart, _linear_form(_forms(c), NormalForm.of(F.F)).to_expr())


def current_bracket(a: Current, b: Current) -> Current:
    """Lie bracket on observables: -([Y,Z], i_Y d(beta_b) - i_Z d(beta_a))."""
    _check_charts(a, b)
    return _current_bracket_forms(_forms(a), _forms(b)).to_current()


def _check_charts(*args) -> None:
    """Refuse arguments that do not share one chart."""
    charts = [x.chart for x in args]
    if any(chart != charts[0] for chart in charts):
        raise ValueError(f"the arguments must share a chart, got {charts}")


# The brackets on normal forms: a current is a CurrentForms, a plain density
# observable a DensityForm.  Both are read through their component
# coefficients C^i, and an m = 1 density is the case C = (F,).


def _forms(c: Current | DensityCoefficient) -> CurrentForms | DensityForm:
    """The forms of a current, checked for momentum dependence, or of a density,
    checked for a one-dimensional base."""
    if isinstance(c, DensityCoefficient):
        if c.chart.m != 1:
            raise ValueError("plain density observables are only defined for m = 1")
        return DensityForm(c.chart, NormalForm.of(c.F))
    forms = CurrentForms.of(c)
    require_valid(forms)
    return forms


def _explicit_forms(c: CurrentForms | DensityForm) -> list[NormalForm]:
    """The explicit base-derivative terms dC^i/dx^i of :func:`bracket_affine`
    for a valid ``c``."""
    return [Ci.diff(x) for Ci, x in zip(c.components, c.chart.x_names)]


def _affine_form(c: CurrentForms | DensityForm, H: NormalForm) -> NormalForm:
    """Normal form of :func:`bracket_affine` for a valid ``c`` and the form ``H``
    of the Hamiltonian."""
    return NormalForm.sum(_explicit_forms(c) + [_linear_form(c, H)])


def _linear_pairs(c: CurrentForms | DensityForm,
                  g: NormalForm) -> list[tuple[NormalForm, NormalForm]]:
    """The (x, y) pairs whose products x*y sum to the bracket of a valid ``c``
    with the density coefficient ``g``, read from the field (vu, vp) of ``c``:
    -(vp[i][a] dg/dp^i_a + vu[a] dg/du^a)."""
    chart, (vu, vp) = c.chart, c._field
    pairs = []
    for a, ua in enumerate(chart.u_names):
        pairs += [(-vpi[a], g.diff(chart.p_name(i, a + 1))) for i, vpi in enumerate(vp, start=1)]
        pairs.append((-g.diff(ua), vu[a]))
    return pairs


def _linear_form(c: CurrentForms | DensityForm, g: NormalForm) -> NormalForm:
    """Normal form of the bracket of a valid ``c`` with the density coefficient ``g``."""
    return NormalForm.dot(_linear_pairs(c, g))


def _current_bracket_pairs(a: CurrentForms,
                           b: CurrentForms) -> list[list[tuple[NormalForm, NormalForm]]]:
    """Per coefficient of :func:`current_bracket` (Y, then beta), the pairs whose
    products sum to it: -(Y^c d(fb)/du^c - Z^c d(fa)/du^c) for the matching
    coefficients fa of a and fb of b."""
    u_names = a.chart.u_names
    return [[pair for Yc, Zc, u in zip(a.Y, b.Y, u_names)
             for pair in ((-Yc, fb.diff(u)), (Zc, fa.diff(u)))]
            for fa, fb in zip(a.Y + a.beta, b.Y + b.beta)]


def _current_bracket_forms(a: CurrentForms, b: CurrentForms) -> CurrentForms:
    """:func:`current_bracket` of valid currents on one chart."""
    forms = tuple(map(NormalForm.dot, _current_bracket_pairs(a, b)))
    n = a.chart.n
    return CurrentForms(a.chart, forms[:n], forms[n:])


def _representation_form(a: CurrentForms, b: CurrentForms, H: NormalForm) -> NormalForm:
    """{{a,b},h} - {a,{b,h}}_l + {b,{a,h}}_l for valid currents and the form ``H``
    of the Hamiltonian: empty when the identity holds.

    The three brackets are summed as one :meth:`NormalForm.dot`, so each
    coefficient is rounded once.
    """
    ab = _current_bracket_forms(a, b)
    one = NormalForm.constant(1.0)
    return NormalForm.dot([(e, one) for e in _explicit_forms(ab)]
                          + _linear_pairs(ab, H)
                          + _linear_pairs(a, -_affine_form(b, H))
                          + _linear_pairs(b, _affine_form(a, H)))


def hamiltonian_field(c: Current | DensityCoefficient) -> VerticalField:
    """Extended Hamiltonian vector field of an observable: the field (vu, vp)
    that the brackets read, as trees, and vpext = -dC^i/dx^i."""
    forms = _forms(c)
    vu, vp = forms._field
    return VerticalField(vu=tuple(f.to_expr() for f in vu),
                         vp=tuple(tuple(f.to_expr() for f in row) for row in vp),
                         vpext=(-NormalForm.sum(_explicit_forms(forms))).to_expr())


def representation_residual(a: Current, b: Current, h: HamiltonianSection) -> float:
    """Largest |coefficient| left in the affine-representation identity's residual
    {{a,b}, h} - {a, {b,h}}_l + {b, {a,h}}_l; 0.0 when the identity holds."""
    _check_charts(a, b, h)
    form = _representation_form(_forms(a), _forms(b), NormalForm.of(h.H))
    return _largest(_terms_left([form]))
