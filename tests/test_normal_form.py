"""Properties of the canonical normal form behind ``simplify`` and ``diff``.

Random trees mix every node type, including functions, quotients and
negative powers.  Values are compared with a tolerance scaled by the
tree's condition: the sum of the magnitudes its rounding errors can
reach, so that cancellation in either form does not read as a bug.
"""

import math

import numpy as np
import pytest

from hdw.expr import (FUNCTIONS, Add, Const, Div, DomainError, Func, Mul,
                      Neg, Pow, Sub, Var, parse, simplify)
from hdw.models import PerfectGasModel, WaveModel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

NAMES = ("x1", "u1", "p1_1")
POINTS = [dict(zip(NAMES, p)) for p in
          np.random.default_rng(17).uniform(-2.0, 2.0, (3, len(NAMES))).tolist()]
UNDEFINED = (DomainError, OverflowError, ZeroDivisionError)

variables = st.sampled_from([Var(n) for n in NAMES])


def _trees(constants, branches):
    return st.recursive(st.one_of(variables, st.sampled_from([Const(c) for c in constants])),
                        lambda children: st.one_of(*(b(children) for b in branches)),
                        max_leaves=8)


def _binary(node):
    return lambda children: st.builds(node, children, children)


POLYNOMIAL = (_binary(Add), _binary(Sub), _binary(Mul), lambda c: st.builds(Neg, c),
              lambda c: st.builds(Pow, c, st.integers(0, 3)))
trees = _trees((-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0),
               POLYNOMIAL + (_binary(Div),
                             lambda c: st.builds(Pow, c, st.integers(-2, -1)),
                             lambda c: st.builds(Func, st.sampled_from(FUNCTIONS), c)))
polynomials = _trees((-2.0, -1.0, 0.0, 1.0, 2.0, 3.0), POLYNOMIAL)


def _value_and_scale(e, b):
    """Value of ``e`` at ``b`` and a bound on the magnitudes its rounding sees."""
    t = type(e)
    if t is Const:
        return e.value, abs(e.value)
    if t is Var:
        return b[e.name], abs(b[e.name])
    if t is Neg:
        v, s = _value_and_scale(e.arg, b)
        return -v, s
    if t is Pow:
        v, s = _value_and_scale(e.base, b)
        if e.exponent >= 0:
            return e.eval(b), s ** e.exponent
        w = e.eval(b)
        return w, abs(w) * (1.0 + -e.exponent * s / abs(v))
    if t is Func:
        v, s = _value_and_scale(e.arg, b)
        w = e.eval(b)
        slope = {"sin": 1.0, "cos": 1.0, "exp": abs(w),
                 "ln": 1.0 / abs(v), "sqrt": 0.5 / abs(w) if w else math.inf}[e.name]
        return w, abs(w) + slope * s
    lv, ls = _value_and_scale(e.left, b)
    rv, rs = _value_and_scale(e.right, b)
    w = e.eval(b)
    if t is Add or t is Sub:
        return w, ls + rs
    if t is Mul:
        return w, ls * rs
    return w, (ls + abs(w) * rs) / abs(rv)  # Div


def _divides_by_zero(e) -> bool:
    """Some divisor in ``e`` is zero, up to rounding, or undefined at every point."""
    def vanishes(den, b):
        try:
            v, scale = _value_and_scale(den, b)
        except UNDEFINED:
            return True
        return abs(v) <= 1e-12 * (1.0 + scale)

    stack = [e]
    while stack:
        node = stack.pop()
        den = node.right if type(node) is Div else \
            node.base if type(node) is Pow and node.exponent < 0 else None
        if den is not None and all(vanishes(den, b) for b in POINTS):
            return True
        stack.extend(getattr(node, f) for f in ("arg", "left", "right", "base")
                     if hasattr(node, f))
    return False


def _canonical(e):
    """``simplify(e)``, or None when ``e`` divides by an identically zero value."""
    try:
        return simplify(e)
    except DomainError:
        assert _divides_by_zero(e), str(e)
        return None


def _close(a, b, scale, rel=1e-9):
    return abs(a - b) <= rel * (1.0 + scale)


def _defined_points(e):
    """(point, value, scale) where ``e`` evaluates to a finite value."""
    out = []
    for b in POINTS:
        try:
            v, s = _value_and_scale(e, b)
        except UNDEFINED:
            continue
        if math.isfinite(v) and math.isfinite(s):
            out.append((b, v, s))
    return out


@given(trees)
def test_simplify_preserves_values(e):
    s = _canonical(e)
    if s is None:
        return
    for b, v, scale in _defined_points(e):
        try:
            w = s.eval(b)
        except UNDEFINED:
            continue
        assert _close(w, v, scale), (str(e), str(s), b)


@given(trees)
def test_simplify_is_idempotent(e):
    s = _canonical(e)
    if s is None:
        return
    # substitute({}) copies the tree without the normal form its root carries
    assert simplify(s.substitute({})) == s
    assert simplify(s) is s


@given(trees)
def test_printed_canonical_tree_parses_back(e):
    s = _canonical(e)
    if s is None:
        return
    back = parse(str(s))
    for b, v, scale in _defined_points(e):
        try:
            w = back.eval(b)
        except UNDEFINED:
            continue
        assert _close(w, v, scale), (str(e), str(s), b)


@given(trees, st.sampled_from(NAMES))
def test_diff_matches_central_differences(e, var):
    if _canonical(e) is None:
        return
    d = e.diff(var)
    for b, v, scale in _defined_points(e):
        try:
            exact = d.eval(b)
            fd = []
            for h in (1e-4, 5e-5):
                up, dn = dict(b), dict(b)
                up[var] += h
                dn[var] -= h
                fd.append((e.eval(up) - e.eval(dn)) / (2.0 * h))
        except UNDEFINED:
            continue
        # trust the difference quotient only where halving h leaves it put
        if not _close(fd[0], fd[1], abs(fd[1]), rel=1e-6):
            continue
        assert _close(exact, fd[1], abs(exact) + scale, rel=1e-5), (str(e), var, b)


@given(polynomials)
def test_sympy_agrees_on_polynomials(e):
    sympy = pytest.importorskip("sympy")
    assert sympy.expand(sympy.sympify(str(simplify(e))) - sympy.sympify(str(e))) == 0


@pytest.mark.parametrize("model", [WaveModel, PerfectGasModel])
def test_builtin_hamiltonians_print_and_parse_back(model):
    H = model().hamiltonian.H
    text = str(H)
    assert "np." not in text
    back = parse(text)
    rng = np.random.default_rng(23)
    for _ in range(20):
        b = {"x1": 0.0, "x2": 0.0, "u1": 0.0,
             "p1_1": float(rng.uniform(-2.0, 2.0)), "p2_1": float(rng.uniform(0.1, 2.0))}
        assert back.eval(b) == pytest.approx(H.eval(b), rel=1e-14)


def test_const_holds_a_python_float():
    assert type(Const(np.float64(1.4)).value) is float
    assert str(Const(np.float64(1.4)) * Var("u1")) == "1.4*u1"


def test_long_sum_stays_shallow():
    # 3000 terms: normalizing walks the chain iteratively, and the emitted
    # tree is shallow enough to evaluate and print
    text = " + ".join(f"{(-1) ** k * k}*u1^{k}" for k in range(1, 3001))
    s = simplify(parse(text))
    exact = math.fsum((-1) ** k * k * 0.99 ** k for k in range(1, 3001))
    assert s.eval({"u1": 0.99}) == pytest.approx(exact, rel=1e-9)
    assert simplify(parse(str(s))) == s
