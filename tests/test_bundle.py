import numpy as np
import pytest

from hdw.bracket import current_bracket, hamiltonian_field
from hdw.bundle import (EXTENDED_MOMENTUM, Chart, Current, DensityCoefficient,
                        HamiltonianSection, current_coefficients,
                        validate_current)
from hdw.expr import Const, Var, parse


class TestChart:
    def test_names(self):
        chart = Chart(m=2, n=2)
        assert chart.x_names == ("x1", "x2")
        assert chart.u_names == ("u1", "u2")
        assert chart.p_names == ("p1_1", "p1_2", "p2_1", "p2_2")

    def test_momentum_count(self):
        chart = Chart(m=3, n=2)
        assert len(chart.p_names) == 6

    def test_name_sets_disjoint(self):
        chart = Chart(m=2, n=3)
        assert len(chart.names) == 2 + 3 + 6
        assert chart.names is chart.names  # built once: check_scope reads it per expression
        assert EXTENDED_MOMENTUM not in chart.names

    def test_index_bounds(self):
        chart = Chart(m=2, n=1)
        with pytest.raises(IndexError):
            chart.x_name(3)
        with pytest.raises(IndexError):
            chart.p_name(1, 2)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Chart(m=0, n=1)

    def test_scope_check(self):
        chart = Chart(m=1, n=1)
        with pytest.raises(ValueError, match="unknown variables"):
            HamiltonianSection(chart, "u1 + q7")


class TestValidateCurrent:
    def test_constants_valid(self):
        c = Current(Chart(m=2, n=1), ("1",), ("0", "0"))
        assert validate_current(c)

    def test_momentum_dependence_invalid(self):
        c = Current(Chart(m=2, n=1), ("p1_1",), ("0", "0"))
        report = validate_current(c)
        assert not report
        assert report.offending == {"Y[1]": ("p1_1",)}

    def test_xu_dependence_valid(self):
        c = Current(Chart(m=2, n=1), ("sin(u1)",), ("x2", "x1"))
        assert validate_current(c)

    def test_extended_momentum_forbidden(self):
        c = Current(Chart(m=2, n=1), ("1",), (EXTENDED_MOMENTUM, "0"))
        assert not validate_current(c)

    def test_m1_rejected_at_construction(self):
        with pytest.raises(ValueError, match="base dimension"):
            Current(Chart(m=1, n=1), ("1",), ("0",))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Current(Chart(m=2, n=2), ("1",), ("0", "0"))


class TestCurrentCoefficients:
    def test_constant_field(self):
        c = Current(Chart(m=2, n=1), ("1",), ("0", "0"))
        coeffs = current_coefficients(c)
        assert [str(e) for e in coeffs] == ["p1_1", "p2_1"]

    def test_zero_field_leaves_beta(self):
        c = Current(Chart(m=2, n=2), ("0", "0"), ("x1", "u2"))
        coeffs = current_coefficients(c)
        assert [str(e) for e in coeffs] == ["x1", "u2"]

    def test_general_assembly(self):
        c = Current(Chart(m=2, n=1), ("u1",), ("x2", "0"))
        coeffs = current_coefficients(c)
        binding = {"x1": 0.0, "x2": 3.0, "u1": 2.0, "p1_1": 5.0, "p2_1": 7.0}
        assert coeffs[0].eval(binding) == 13.0  # u1*p1_1 + x2
        assert coeffs[1].eval(binding) == 14.0

    def test_momentum_pattern(self):
        # the coefficients are affine in p with the block-diagonal pattern:
        # component i only sees the p^i_a column
        chart = Chart(m=2, n=2)
        c = Current(chart, ("sin(u1)", "x1*u2"), ("u1", "x2"))
        coeffs = current_coefficients(c)
        for i, coeff in enumerate(coeffs, start=1):
            for j in range(1, 3):
                for a in range(1, 3):
                    d = coeff.diff(chart.p_name(j, a))
                    if j != i:
                        assert d == Const(0.0)
            # the p^i_a slope is the same Y^a in every component
            assert str(coeff.diff(chart.p_name(i, 1))) == "sin(u1)"

    def test_round_trip(self):
        # Y^a is the p^1_a slope of C^1, and beta^i is C^i at p = 0
        chart = Chart(m=2, n=2)
        c = Current(chart, ("sin(u1)", "x1 + u2^2"), ("u1*x2", "x1"))
        coeffs = current_coefficients(c)
        Y = tuple(coeffs[0].diff(chart.p_name(1, a)) for a in range(1, chart.n + 1))
        rng = np.random.default_rng(1)
        for _ in range(50):
            b = {n: float(rng.uniform(-1.0, 1.0)) for n in sorted(chart.names)}
            at_p0 = {**b, **dict.fromkeys(chart.p_names, 0.0)}
            for got, want in zip(Y, c.Y):
                assert got.eval(b) == pytest.approx(want.eval(b), abs=1e-12)
            for got, want in zip(coeffs, c.beta):
                assert got.eval(at_p0) == pytest.approx(want.eval(b), abs=1e-12)


class TestDCurrent:
    """The differential dC of a current, as its Hamiltonian field reads it:
    vu = Y, vp[i][b] = -dC^i/du^b and vpext = -dC^i/dx^i."""

    @staticmethod
    def _field(*coefficients):
        return hamiltonian_field(Current(Chart(m=2, n=1), *coefficients), extended=True)

    def test_constant_form(self):
        v = self._field(("0",), ("5", "5"))
        assert v.vpext == Const(0.0)
        assert all(e == Const(0.0) for row in v.vp for e in row)
        assert v.vu == (Const(0.0),)

    def test_vertical_translation(self):
        # Y = d/du: only the fiber component survives
        v = self._field(("1",), ("0", "0"))
        assert v.vpext == Const(0.0)
        assert all(e == Const(0.0) for row in v.vp for e in row)
        assert v.vu == (Const(1.0),)

    def test_linear_vertical_field(self):
        v = self._field(("u1",), ("0", "0"))
        assert v.vpext == Const(0.0)
        assert [str(row[0]) for row in v.vp] == ["-p1_1", "-p2_1"]
        assert v.vu == (Var("u1"),)

    def test_base_dependence_enters_c0(self):
        v = self._field(("x1",), ("x2^2", "0"))
        assert v.vpext.eval({"x1": 0.0, "x2": 1.0, "p1_1": 4.0, "p2_1": 0.0}) == -4.0

    def test_linearity(self):
        chart = Chart(m=2, n=1)
        c1 = (("sin(u1)",), ("x1*u1", "x2"))
        c2 = (("u1^2",), ("x2", "0"))
        csum = (("sin(u1) + u1^2",), ("x1*u1 + x2", "x2"))
        v1, v2, vs = self._field(*c1), self._field(*c2), self._field(*csum)
        rng = np.random.default_rng(2)
        flat = lambda v: [v.vpext] + [e for row in v.vp for e in row] + list(v.vu)
        for _ in range(50):
            b = {n: float(rng.uniform(-1.0, 1.0)) for n in sorted(chart.names)}
            for a, bb, s in zip(flat(v1), flat(v2), flat(vs)):
                assert s.eval(b) == pytest.approx(a.eval(b) + bb.eval(b), abs=1e-12)


def test_string_coefficients_are_parsed():
    c = Current(Chart(m=2, n=1), ("sin(u1)",), ("0", "x1"))
    assert c.Y[0] == parse("sin(u1)")


def test_a_momentum_that_cancels_is_no_dependence():
    # validation reads the normal forms, as the brackets compose them
    chart = Chart(m=2, n=1)
    c = Current(chart, ("p1_1 - p1_1 + u1",), ("0", "x1"))
    assert validate_current(c)
    assert current_coefficients(c)[0].variables() == {"u1", "p1_1"}
    assert current_bracket(c, Current(chart, ("1",), ("0", "0"))).Y[0].variables() == set()
