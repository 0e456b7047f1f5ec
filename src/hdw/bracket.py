"""Bracket and isomorphism operations in local coordinates.

All operations return symbolic expressions; evaluation is a separate
step, which enables both simplify-to-zero checks and numeric sampling
from one implementation.  The brackets are composed on normal forms, so
a nested bracket builds no intermediate tree: each public bracket emits
its result once.  A sampled residual is a list of normal forms, and
:func:`_max_abs_at` evaluates each non-empty one through the tree walk.
The derivatives of a Hamiltonian section are read from ``h.system``,
which derives them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bundle import (Chart, Current, CurrentDifferential, CurrentForms,
                     DensityCoefficient, DensityForm, HamiltonianSection,
                     coefficient_derivative, d_current, require_valid)
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


def _default_samples(chart: Chart, count: int = 20, seed: int = 0) -> dict[str, np.ndarray]:
    names = sorted(chart.names)
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, len(names)))
    return dict(zip(names, points.T))


def _max_abs_at(forms: Iterable[NormalForm], samples: Sequence[dict] | dict) -> float:
    """Largest absolute value of the non-empty ``forms`` at ``samples``, a list
    of points or a dict of arrays; 0.0 when every form is empty.

    Each non-empty form is evaluated by the tree walk of its tree
    (:meth:`Expression.eval_many`), and a nan value is returned as nan.
    """
    if not isinstance(samples, dict):
        samples = {name: [s[name] for s in samples] for name in set().union(*samples)}
    return float(np.max([np.max(np.abs(f.to_expr().eval_many(samples)), initial=0.0)
                         for f in forms if f.terms], initial=0.0))


def connection_is_hamiltonian(Hu: Sequence[Sequence], Hp: Sequence[Sequence[Sequence]],
                              h: HamiltonianSection,
                              samples: Sequence[dict] | dict | None = None,
                              tol: float = 1e-9) -> ConnectionCheck:
    """Decide whether connection coefficients define an evolution operator for ``h``.

    ``Hu[i][a]`` is the u-coefficient of the i-th horizontal lift and
    ``Hp[i][a][j]`` its p^j_a coefficient.  Only the u-coefficients and
    the momentum trace are constrained: Hu must equal dH/dp and the
    trace sum_i Hp[i][a][i] must equal -dH/du.  Trace-free momentum
    perturbations are accepted.  ``samples`` is a list of points or a dict
    of arrays, 20 uniform points in [-1, 1] by default.
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

    dH_du, dH_dp = h.system.dH_du, h.system.dH_dp
    forms = [NormalForm.sum([as_form(Hu[i][a]), -NormalForm.of(dH_dp[i][a])])
             for i in range(m) for a in range(n)]
    forms += [NormalForm.sum([as_form(Hp[i][a][i]) for i in range(m)] + [NormalForm.of(dH_du[a])])
              for a in range(n)]
    worst = _max_abs_at(forms, _default_samples(chart) if samples is None else samples)
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
    if isinstance(c, DensityCoefficient) and chart.m != 1:
        raise ValueError("plain density observables are only defined for m = 1; "
                         "supply a Current for m >= 2")
    return DensityCoefficient(chart, _affine_form(_forms(c), NormalForm.of(h.H)).to_expr())


def bracket_linear(c: Current | DensityCoefficient,
                   F: DensityCoefficient) -> DensityCoefficient:
    """Bilinear bracket of an observable with a density coefficient.

    This is the linear part of :func:`bracket_affine` in its second
    argument.  For m = 1 both arguments are density coefficients and the
    result is the canonical Poisson bracket.
    """
    if isinstance(c, DensityCoefficient) and F.chart.m != 1:
        raise ValueError("plain density observables are only defined for m = 1")
    return DensityCoefficient(F.chart, _linear_form(_forms(c), NormalForm.of(F.F)).to_expr())


def current_bracket(a: Current, b: Current) -> Current:
    """Lie bracket on observables: -([Y,Z], i_Y d(beta_b) - i_Z d(beta_a))."""
    _check_pair(a, b)
    return _current_bracket_forms(_forms(a), _forms(b)).to_current()


def _check_pair(a: Current, b: Current) -> None:
    if a.chart != b.chart:
        raise ValueError("currents must share a chart")
    if a.chart.m < 2:
        raise ValueError("the current bracket requires m >= 2; "
                         "use bracket_linear on density coefficients for m = 1")


# The brackets on normal forms: a current is a CurrentForms, a plain density
# observable a DensityForm.


def _forms(c: Current | DensityCoefficient) -> CurrentForms | DensityForm:
    """The forms of a current, checked for momentum dependence, or of a density."""
    if isinstance(c, DensityCoefficient):
        return DensityForm(c.chart, NormalForm.of(c.F))
    forms = CurrentForms.of(c)
    require_valid(forms)
    return forms


def _explicit_forms(c: CurrentForms | DensityForm) -> list[NormalForm]:
    """The explicit base-derivative terms of :func:`bracket_affine` for a valid ``c``."""
    chart = c.chart
    if isinstance(c, DensityForm):
        return [c.F.diff(chart.x_name(1))]
    return [coefficient_derivative(c, i, chart.x_name(i)) for i in range(1, chart.m + 1)]


def _affine_form(c: CurrentForms | DensityForm, H: NormalForm) -> NormalForm:
    """Normal form of :func:`bracket_affine` for a valid ``c`` and the form ``H``
    of the Hamiltonian."""
    return NormalForm.sum(_explicit_forms(c) + [_linear_form(c, H)])


def _linear_pairs(c: CurrentForms | DensityForm,
                  g: NormalForm) -> list[tuple[NormalForm, NormalForm]]:
    """The (x, y) pairs whose products x*y sum to the bracket of a valid ``c``
    with the density coefficient ``g``."""
    chart = c.chart
    pairs = []
    if isinstance(c, DensityForm):
        f = c.F
        for a in range(1, chart.n + 1):
            ua, pa = chart.u_name(a), chart.p_name(1, a)
            pairs.append((f.diff(ua), g.diff(pa)))
            pairs.append((-f.diff(pa), g.diff(ua)))
    else:
        for a in range(1, chart.n + 1):
            ua = chart.u_name(a)
            for i in range(1, chart.m + 1):
                pairs.append((coefficient_derivative(c, i, ua), g.diff(chart.p_name(i, a))))
            pairs.append((-g.diff(ua), c.Y[a - 1]))
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


def hamiltonian_field(c: Current, extended: bool = False) -> VerticalField:
    """Vertical vector field generated by an observable.

    With ``extended=True`` the extended-momentum component is included.
    """
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
    _check_pair(a, b)
    return _max_abs_at([_representation_form(_forms(a), _forms(b), NormalForm.of(h.H))], samples)
