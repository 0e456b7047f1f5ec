"""Properties of the canonical normal form behind ``simplify`` and ``diff``.

Random trees mix every node type, including functions, quotients and
negative powers.  Values are compared with a tolerance scaled by the
tree's condition: the sum of the magnitudes its rounding errors can
reach, so that cancellation in either form does not read as a bug.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hdw.expr import (FUNCTIONS, Add, Const, Div, DomainError, Func, Mul,
                      NormalForm, Neg, Pow, Sub, UnboundVariableError, Var,
                      compile_exprs, parse, simplify)
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
    # replace(s) copies the tree without the normal form its root carries
    assert simplify(replace(s)) == s
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



def _outcome(compute):
    """Type, shape and bytes of each value ``compute`` returns, or its error."""
    try:
        with np.errstate(all="ignore"):
            return tuple((type(v), np.shape(v), np.asarray(v).tobytes()) for v in compute())
    except UNDEFINED as exc:
        return type(exc), str(exc)


@given(trees)
def test_compiled_scalar_kernel_is_bit_identical_to_eval(e):
    # e occurs twice, so the kernel shares its subtrees between the outputs
    exprs = [e, Mul(e, Var("u1"))]
    kernel = compile_exprs(exprs, NAMES)
    for b in POINTS:
        assert (_outcome(lambda: kernel(*(b[n] for n in NAMES)))
                == _outcome(lambda: [x.eval(b) for x in exprs])), str(e)


@given(trees)
def test_compiled_numpy_kernel_is_bit_identical_to_eval_many(e):
    exprs = [e, Mul(e, Var("u1"))]
    kernel = compile_exprs(exprs, NAMES, numpy=True)
    arrays = {n: np.array([b[n] for b in POINTS]) for n in NAMES}
    for b in (arrays, {**arrays, "x1": 0.5}):
        assert (_outcome(lambda: kernel(*(b[n] for n in NAMES)))
                == _outcome(lambda: [x.eval_many(b) for x in exprs])), str(e)


@pytest.mark.parametrize("numpy", [False, True])
def test_compiled_kernel_keeps_signed_zero_and_non_finite_constants(numpy):
    exprs = [Const(-0.0), Mul(Const(-0.0), Var("u1")), Add(Const(math.inf), Var("u1")),
             Mul(Const(math.nan), Var("u1"))]
    kernel = compile_exprs(exprs, ["u1"], numpy=numpy)
    u1 = np.array([2.0]) if numpy else 2.0
    expected = [x.eval_many({"u1": u1}) if numpy else x.eval({"u1": u1}) for x in exprs]
    assert _outcome(lambda: kernel(u1)) == _outcome(lambda: expected)


@pytest.mark.parametrize("numpy", [False, True])
def test_quotient_checks_its_denominator_before_its_numerator(numpy):
    # at u1 = 0 both the numerator ln(-u1) and the quotient are undefined:
    # the denominator's check comes first
    e = Div(Func("ln", Neg(Var("u1"))), Var("u1"))
    u1 = np.array([1.0, 0.0]) if numpy else 0.0
    kernel = compile_exprs([e], ["u1"], numpy=numpy)
    for compute in (lambda: kernel(u1),
                    lambda: [e.eval_many({"u1": u1}) if numpy else e.eval({"u1": u1})]):
        assert _outcome(compute) == (DomainError, "division by zero")


@pytest.mark.parametrize("text", [
    " + ".join(f"{k}*u1" if k % 2 else f"x1/{k}" for k in range(1, 3001)),
    "*".join("u1" if k % 3 else "x1" for k in range(3000)),
    " - ".join(f"u1^{k % 4}" if k % 2 else f"sin(x1*{k})" for k in range(3000)),
], ids=["sum", "product", "difference"])
def test_deep_parsed_trees_evaluate_and_print(text):
    e = parse(text)
    b = {"u1": 1.0001, "x1": 0.999}
    arrays = {"u1": np.array([1.0001, -0.5]), "x1": np.array([0.999, 1.0])}
    value, many = e.eval(b), e.eval_many(arrays)
    assert math.isfinite(value)
    kernels = [compile_exprs([e], ["u1", "x1"], numpy=numpy) for numpy in (False, True)]
    compiled = kernels[0](b["u1"], b["x1"]) + kernels[1](arrays["u1"], arrays["x1"])
    assert _outcome(lambda: compiled) == _outcome(lambda: [value, many])
    back = parse(str(e))
    assert _outcome(lambda: [back.eval(b), back.eval_many(arrays)]) == _outcome(lambda: compiled)
    assert repr(e).startswith(f"{type(e).__name__}('")


@pytest.mark.parametrize("node", [Mul, Div])
def test_simplify_walks_deep_right_nested_chains_iteratively(node):
    # u1 * (x1 * (u1 * ...)) and u1 / (x1 / (u1 / ...)), 3000 deep; the
    # parser refuses such nesting, so the chains are built in Python
    e = Var("u1")
    for k in range(3000):
        e = node(Var("x1" if k % 2 else "u1"), e)
    s = simplify(e)
    b = {"u1": 1.0001, "x1": 0.9998}
    assert s.eval(b) == pytest.approx(e.eval(b), rel=1e-12)
    assert NormalForm.of(e).terms == NormalForm.of(s).terms


def _tree_and_kernel_outcomes(tree, binding):
    """Outcomes of the tree walk of ``tree`` and of its compiled numpy kernel."""
    def outcome(compute):
        try:
            return _outcome(lambda: [compute()])
        except UnboundVariableError as exc:
            return type(exc), str(exc)

    def kernel():
        return compile_exprs([tree], list(binding), numpy=True)(*binding.values())[0]

    return outcome(lambda: tree.eval_many(binding)), outcome(kernel)


def _bindings():
    arrays = {n: np.array([b[n] for b in POINTS]) for n in NAMES}
    return [arrays, {**arrays, "x1": 0.5}, POINTS[0],
            {n: arrays[n] for n in NAMES[1:]}]  # x1 unbound


@pytest.mark.parametrize("text", [
    # 136 terms with mixed signs: several runs, some led by a negative term
    "sin(u1)*(u1 - x1 - 0.5)^15/(1 + p1_1^2)",
    # a sum atom under a function and a zero denominator at one point
    "exp(1/(u1 - x1))*(u1 + 2*x1 - p1_1 + 1)^9 - ln(u1^2 + 1)/(u1 - x1)^2",
    " - ".join(f"{k}*u1^{k}*sqrt(x1^2 + 1)" for k in range(1, 130)),
])
def test_long_form_eval_many_is_bit_identical_to_the_tree_walk(text):
    # the canonical tree of a long form against its compiled numpy kernel
    tree = simplify(parse(text))
    arrays = {n: np.array([b[n] for b in POINTS]) for n in NAMES}
    for b in _bindings() + [{**arrays, "u1": arrays["x1"]}]:
        walked, compiled = _tree_and_kernel_outcomes(tree, b)
        assert walked == compiled, b


def _monomials(form):
    """{monomial: coefficient}, a monomial being the frozenset of its (atom, exponent)."""
    atoms, rows = form._rows()
    return {frozenset((a, e) for a, e in zip(atoms, exps) if e): c for exps, c in rows}


# dense polynomials with arbitrary float coefficients give monomials many
# contributions each, and the canonical forms of trees give every kind of atom
dense_forms = st.lists(st.tuples(st.lists(st.sampled_from(NAMES[:2]), max_size=2),
                                 st.floats(-4.0, 4.0, allow_subnormal=False)),
                       min_size=2, max_size=6).map(NormalForm.polynomial)
tree_forms = trees.map(_canonical).filter(lambda e: e is not None).map(NormalForm.of)
forms = st.one_of(dense_forms, tree_forms)


@given(st.lists(st.tuples(forms, forms), min_size=2, max_size=4))
def test_dot_rounds_each_coefficient_once(pairs):
    # the oracle: every float product of two coefficients, summed exactly
    contributions = {}
    for x, y in pairs:
        for mx, cx in _monomials(x).items():
            for my, cy in _monomials(y).items():
                exps = dict(mx)
                for a, e in my:
                    exps[a] = exps.get(a, 0) + e
                key = frozenset((a, e) for a, e in exps.items() if e)
                contributions.setdefault(key, []).append(cx * cy)
    hypothesis.assume(all(math.isfinite(c) for parts in contributions.values() for c in parts))
    expected = {key: float(sum(map(Fraction, parts))) for key, parts in contributions.items()}
    assert _monomials(NormalForm.dot(pairs)) == {k: c for k, c in expected.items() if c != 0.0}


dyadic_trees = _trees((-2.0, -0.75, 0.0, 0.25, 1.0, 1.5, 3.0),
                      POLYNOMIAL + (lambda c: st.builds(Div, c, st.sampled_from(
                          [Const(2.0), Const(-4.0)])),))


@given(st.lists(st.tuples(dyadic_trees, dyadic_trees), min_size=1, max_size=3))
def test_dot_is_the_sum_of_the_products_on_dyadic_forms(pairs):
    forms = [(NormalForm.of(simplify(x)), NormalForm.of(simplify(y))) for x, y in pairs]
    # multiples of 2^-8 below 2^16: every product and sum of products is exact
    hypothesis.assume(all((c * 256.0).is_integer() and abs(c) <= 2.0 ** 16
                          for pair in forms for f in pair for c in f.terms.values()))
    assert NormalForm.dot(forms).key == NormalForm.sum([x * y for x, y in forms]).key
