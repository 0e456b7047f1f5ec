import math

import numpy as np
import pytest

from hdw.expr import (MAX_NESTING, MAX_PRODUCTS, Add, Const, Div, DomainError, ExprError, Func,
                      Mul, Neg, NormalForm, ParseError, Pow, SizeError, Sub, UnboundVariableError,
                      Var, _Check, compile_exprs, parse, simplify)


class TestParse:
    def test_power_over_division(self):
        e = parse("p1_1^2/2")
        assert e.eval({"p1_1": 4.0}) == 8.0

    def test_function_product(self):
        e = parse("sin(x1)*u1")
        assert isinstance(e, Mul)
        assert e.eval({"x1": math.pi / 2, "u1": 3.0}) == pytest.approx(3.0)

    def test_left_association(self):
        assert parse("8/4/2").eval({}) == 1.0
        assert parse("8-4-2").eval({}) == 2.0

    def test_precedence(self):
        assert parse("1 + 2*3").eval({}) == 7.0
        assert parse("2*3^2").eval({}) == 18.0
        assert parse("-2^2").eval({}) == -4.0

    def test_unary_minus(self):
        assert parse("--u1").eval({"u1": 5.0}) == 5.0
        assert parse("2*-u1").eval({"u1": 3.0}) == -6.0

    def test_whitespace_insignificant(self):
        a = parse("u1+p1_1 * 2")
        b = parse("u1 + p1_1*2")
        binding = {"u1": 0.5, "p1_1": -1.5}
        assert a.eval(binding) == b.eval(binding)

    def test_scientific_notation(self):
        assert parse("1.5e2").eval({}) == 150.0

    def test_negative_exponent(self):
        assert parse("u1^-2").eval({"u1": 2.0}) == 0.25

    def test_error_offset(self):
        with pytest.raises(ParseError) as info:
            parse("u1 + * 2")
        assert info.value.offset == 5
        assert info.value.expected  # non-empty expected-token set

    def test_error_on_fractional_exponent(self):
        with pytest.raises(ParseError) as info:
            parse("u1^2.5")
        assert "integer literal" in info.value.expected

    def test_error_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("u1 2")

    def test_error_unknown_character(self):
        with pytest.raises(ParseError) as info:
            parse("u1 @ 2")
        assert info.value.offset == 3

    def test_error_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("sin(u1")

    @pytest.mark.parametrize("open_, close", [("(", ")"), ("sin(", ")"), ("-", "")])
    def test_nesting_limit(self, open_, close):
        depth = MAX_NESTING - 1  # the outermost factor is the first level
        e = parse(open_ * depth + "u1" + close * depth)
        assert math.isfinite(e.eval({"u1": 0.5}))
        with pytest.raises(ParseError, match="nested too deeply") as info:
            parse(open_ * (depth + 1) + "u1" + close * (depth + 1))
        assert info.value.offset == len(open_) * (depth + 1)


class TestEval:
    def test_square(self):
        assert parse("x1^2").eval({"x1": 3.0}) == 9.0

    def test_sin_zero(self):
        assert parse("sin(x1)").eval({"x1": 0.0}) == 0.0

    def test_product(self):
        assert parse("u1*p1_1").eval({"u1": 2.0, "p1_1": 5.0}) == 10.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            parse("u1 + u2").eval({"u1": 1.0})

    @pytest.mark.parametrize("text,binding", [
        ("ln(x1)", {"x1": 0.0}),
        ("ln(x1)", {"x1": -1.0}),
        ("sqrt(x1)", {"x1": -4.0}),
        ("1/x1", {"x1": 0.0}),
        ("x1^0", {"x1": 0.0}),
    ])
    def test_domain_errors(self, text, binding):
        with pytest.raises(DomainError):
            parse(text).eval(binding)

    def test_eval_many_matches_scalar(self):
        e = parse("sin(x1)*u1 + exp(u1/4) - x1^3")
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2.0, 2.0, 50)
        us = rng.uniform(-2.0, 2.0, 50)
        vec = e.eval_many({"x1": xs, "u1": us})
        for k in range(50):
            assert vec[k] == pytest.approx(e.eval({"x1": xs[k], "u1": us[k]}), abs=1e-14)


class TestDiff:
    def test_power_rule(self):
        assert str(parse("u1^2").diff("u1")) == "2*u1"

    def test_independent_variable(self):
        assert parse("u1").diff("x1") == Const(0.0)

    def test_product_with_function(self):
        assert str(parse("sin(u1)*p1_1").diff("p1_1")) == "sin(u1)"

    @pytest.mark.parametrize("text", [
        "u1^3 - 2*u1*p1_1 + x1",
        "sin(u1*x1) + cos(p1_1)",
        "exp(u1/2)*p1_1^2",
        "ln(2 + u1^2)",
        "sqrt(4 + p1_1^2)",
        "u1/(1 + p1_1^2)",
    ])
    def test_against_central_differences(self, text):
        e = parse(text)
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(10):
            binding = {name: float(rng.uniform(-2.0, 2.0)) for name in e.variables()}
            for var in e.variables():
                up = dict(binding, **{var: binding[var] + h})
                dn = dict(binding, **{var: binding[var] - h})
                fd = (e.eval(up) - e.eval(dn)) / (2 * h)
                exact = e.diff(var).eval(binding)
                assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))


class TestSimplify:
    def test_annihilator(self):
        assert str(simplify(parse("u1*0 + x1"))) == "x1"

    def test_constant_fold(self):
        assert simplify(parse("2*3")) == Const(6.0)

    def test_identity_elimination(self):
        assert str(simplify(parse("(u1+0)^1"))) == "u1"

    def test_self_difference(self):
        assert simplify(parse("u1*p1_1 - u1*p1_1")) == Const(0.0)

    def test_commuted_product_cancels(self):
        u, p = Var("u1"), Var("p1_1")
        assert simplify(Add(Mul(u, p), Neg(Mul(p, u)))) == Const(0.0)

    def test_double_negation(self):
        assert simplify(Neg(Neg(Var("u1")))) == Var("u1")

    def test_constant_zero_denominator(self):
        with pytest.raises(DomainError):
            simplify(parse("u1/(2-2)"))

    def test_products_beyond_the_limit_are_refused(self):
        # forms of 400 and 256 terms; a product forms len x len products of
        # terms, a dot their sum over its pairs
        x = NormalForm.polynomial([(("u1",) * k, 1.0) for k in range(400)])
        y = NormalForm.polynomial([(("u2",) * k, 1.0) for k in range(256)])
        assert 256 * 400 <= MAX_PRODUCTS < 400 * 400 and 2 * 256 * 400 > MAX_PRODUCTS
        assert len((x * y).terms) == 256 * 400
        with pytest.raises(SizeError, match="160000 products of terms"):
            x * x
        with pytest.raises(SizeError, match="204800 products of terms"):
            NormalForm.dot([(x, y), (y, x)])
        with pytest.raises(SizeError):
            simplify(parse("(u1+u2+u3+u4)^30"))

    def test_preserves_values(self):
        rng = np.random.default_rng(3)
        e = parse("(u1 + 0)*1 + 0*p1_1 + x1^1 + sin(0) + 2*3 - u1*p1_1^0")
        s = simplify(e)
        for _ in range(100):
            binding = {n: float(rng.uniform(-2.0, 2.0)) for n in ("u1", "p1_1", "x1")}
            assert s.eval(binding) == pytest.approx(e.eval(binding), rel=1e-12)


class TestPrintParseRoundTrip:
    @pytest.mark.parametrize("text", [
        "u1^2/2 + p1_1^2/2",
        "-(u1 + p1_1)*x1",
        "sin(x1)*cos(u1) - exp(p1_1)",
        "1/(1 + u1^2)",
        "u1 - (p1_1 - x1)",
        "2*(u1 + 1)^3",
        "sqrt(1 + ln(2 + u1^2))",
    ])
    def test_round_trip(self, text):
        e = parse(text)
        back = parse(str(e))
        rng = np.random.default_rng(5)
        for _ in range(100):
            binding = {n: float(rng.uniform(-2.0, 2.0)) for n in ("u1", "p1_1", "x1")}
            assert back.eval(binding) == pytest.approx(e.eval(binding), rel=1e-12)

    def test_round_trip_after_diff(self):
        e = parse("sin(u1*p1_1)/(1 + u1^2)").diff("u1")
        back = parse(str(e))
        binding = {"u1": 0.7, "p1_1": -1.3}
        assert back.eval(binding) == pytest.approx(e.eval(binding), rel=1e-12)


def test_operator_sugar():
    u = Var("u1")
    e = (u + 1) * 2 - u / 4
    assert e.eval({"u1": 4.0}) == 9.0
    assert (u ** 2).eval({"u1": 3.0}) == 9.0
    with pytest.raises(TypeError):
        u ** 0.5


def test_expressions_hashable_and_immutable():
    assert parse("u1 + 1") == parse("u1 + 1")
    assert hash(Pow(Var("u1"), 2)) == hash(Pow(Var("u1"), 2))
    with pytest.raises(AttributeError):
        Var("u1").name = "u2"


def test_deep_trees_compare_and_hash_without_recursion():
    text = " + ".join(f"{k}*u1" for k in range(3000))
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != parse(text + " + 1") and a != parse(text.replace("2999*", "2998*"))
    # one node type for another, or an expression for a number, is not equal
    assert Add(_u, _p) != Sub(_u, _p) and Var("u1") != "u1" and Const(1.0) != 1.0
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))


def test_a_deep_built_tree_prints_and_parses_back_once_simplified():
    # print-and-parse-back holds for parsed and simplified trees: a product
    # built in Python 151 deep prints 150 parentheses, more than the parser
    # takes, and its simplified tree prints flat
    e = Var("u1")
    for k in range(150):
        e = Mul(Const(1.5) if k % 2 else Var("u2"), e)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(str(e))
    s = simplify(e)
    back = parse(str(s))
    for point in ({"u1": 0.7, "u2": 1.01}, {"u1": -2.0, "u2": -0.99}):
        assert back.eval(point) == s.eval(point) == pytest.approx(e.eval(point), rel=1e-13)


@pytest.mark.parametrize("e", [
    Const(math.inf), Const(-math.inf), Mul(Var("u1"), Const(-math.inf)),
    Pow(Const(-math.inf), 2), Add(Const(math.inf), Neg(Var("u1"))),
], ids=str)
def test_infinite_constants_print_and_parse_back(e):
    back = parse(str(e))
    for u1 in (-2.0, 0.5):
        assert back.eval({"u1": u1}) == e.eval({"u1": u1})


def test_nan_constant_has_no_printed_form():
    with pytest.raises(ExprError, match="nan"):
        str(Mul(Var("u1"), Const(math.nan)))


def test_nan_constant_has_a_repr():
    assert repr(Mul(Var("u1"), Const(math.nan))) == "Mul('u1*nan')"


_u, _p, _x = Var("u1"), Var("p1_1"), Var("x1")


@pytest.mark.parametrize("e, text", [
    (Add(_u, Add(_p, _x)), "u1 + p1_1 + x1"),
    (Sub(_u, Sub(_p, _x)), "u1 - (p1_1 - x1)"),
    (Sub(Sub(_u, _p), _x), "u1 - p1_1 - x1"),
    (Mul(Add(_u, _p), _x), "(u1 + p1_1)*x1"),
    (Mul(_u, Mul(_p, _x)), "u1*(p1_1*x1)"),
    (Div(Mul(_u, _p), _x), "u1*p1_1/x1"),
    (Div(_u, Div(_p, _x)), "u1/(p1_1/x1)"),
    (Neg(Add(_u, _p)), "-(u1 + p1_1)"),
    (Neg(Pow(_u, 2)), "-u1^2"),
    (Pow(Neg(_u), 2), "(-u1)^2"),
    (Pow(Const(-2.0), -3), "(-2)^-3"),
    (Func("sqrt", Sub(_u, _p)), "sqrt(u1 - p1_1)"),
])
def test_printed_parentheses(e, text):
    assert str(e) == text


# ---------------------------------------------------------------------------
# Array domain checks: one reduction each, holding where the comparison
# with 0.0 holds anywhere


def _float_arrays(hypothesis):
    """Float64 arrays of 0 to 2 dimensions, empty ones included, whose
    values are often nan, a signed zero, an infinity or a subnormal."""
    st, npst = hypothesis.strategies, pytest.importorskip("hypothesis.extra.numpy")
    edges = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                             2.2250738585072014e-308, -2.2250738585072014e-308])
    return npst.arrays(np.float64, npst.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                     max_side=5),
                       elements=st.one_of(edges, st.floats()))


@pytest.mark.parametrize("operator, compare", [("==", np.equal), ("<=", np.less_equal),
                                               ("<", np.less)])
def test_array_domain_check_holds_where_the_comparison_does(operator, compare):
    hypothesis = pytest.importorskip("hypothesis")
    check = _Check(operator, "")

    # a failing draw is reported as drawn: shrinking arrays can take minutes
    @hypothesis.settings(max_examples=200, deadline=None, phases=[hypothesis.Phase.generate])
    @hypothesis.given(_float_arrays(hypothesis))
    def run(x):
        assert bool(check.holds[True](x)) == bool(compare(x, 0.0).any()), x

    run()


@pytest.mark.parametrize("e, compare, message", [
    (Func("ln", Var("u1")), np.less_equal, "ln of non-positive value"),
    (Func("sqrt", Var("u1")), np.less, "sqrt of negative value"),
    (Div(Const(1.0), Var("u1")), np.equal, "division by zero"),
    (Pow(Var("u1"), -2), np.equal, "0^-2 is undefined"),
], ids=["ln", "sqrt", "division", "power"])
def test_compiled_kernel_and_eval_many_refuse_alike(e, compare, message):
    hypothesis = pytest.importorskip("hypothesis")
    kernel = compile_exprs([e], ["u1"], numpy=True)

    def outcome(compute):
        try:
            with np.errstate(all="ignore"):
                value = np.asarray(compute())
        except DomainError as exc:
            return str(exc)
        return value.shape, value.tobytes()

    @hypothesis.settings(max_examples=200, deadline=None, phases=[hypothesis.Phase.generate])
    @hypothesis.given(_float_arrays(hypothesis))
    def run(x):
        walked = outcome(lambda: e.eval_many({"u1": x}))
        assert outcome(lambda: kernel(x)[0]) == walked, x
        assert (walked == message) == bool(compare(x, 0.0).any()), x

    run()
