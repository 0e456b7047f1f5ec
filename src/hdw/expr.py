"""Minimal symbolic expression engine.

Expression trees over named real variables with exact differentiation,
one canonical normal form, scalar and vectorized (numpy) evaluation,
and a recursive-descent parser for the textual grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' intlit)?
    base   := number | ident | func '(' expr ')' | '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'ln' | 'sqrt'

Whitespace is insignificant.  Exponents are restricted to constant
integers so differentiation stays closed-form.  Factors nest at most
:data:`MAX_NESTING` deep: each parenthesis, function call and unary minus
nests one.  Expressions are immutable and hashable, compared and hashed
by structure without recursion.  Printing a parsed or simplified tree
and re-parsing it yields an evaluation-equivalent tree (a tree built in
Python deeper than :data:`MAX_NESTING` prints text the parser refuses).

Evaluation, printing and :func:`compile_exprs` share one
iterative walk over the tree, driven by one table of operations, so any
tree that parses also evaluates and prints.

Canonical form.  Every expression has a :class:`NormalForm`: a sparse
sum of products, mapping monomials to float coefficients.  A monomial
is a product of atoms raised to integer powers.  An atom is a variable,
a function of a canonical argument (``sin(u1 + x1)``), or a sum of two
or more terms, which occurs only with negative powers
(``(u1^2 + 1)^-2``); products and positive powers of sums are expanded.
A fourth kind, the jet, is an undetermined smooth function or one of its
partial derivatives; it never comes from parsing, only from the provers.
Atoms are ordered by a structural key, so the normal form, and the tree
:func:`simplify` prints from it, is a pure function of the expression's
structure.  When several products or summands contribute to one
monomial, their coefficients are added with ``math.fsum``, so the result
does not depend on the order of the terms and ``f*g - g*f`` cancels to
the literal ``Const(0.0)``.

:func:`simplify` returns the tree of the normal form, and that tree
carries its normal form: simplifying it again takes O(1), and
:meth:`Expression.diff` and the bracket builders differentiate, add and
multiply the normal forms without re-normalizing.  A normal form is
evaluated through its tree: there are two evaluators, the tree walk
(:meth:`Expression.eval`, :meth:`Expression.eval_many`) and the kernels
of :func:`compile_exprs`, each bit-identical to the walk of its own
flavour; ``eval`` and ``eval_many`` may differ in the last bit on integer
powers (Python's ``**`` against numpy's ``power``).  ``simplify`` keeps
the value, up to rounding, wherever both the input and the output are
defined, and a constant zero denominator raises :class:`DomainError`.
It does not cancel non-monomial denominators (``(u1^2 - 1)/(u1 - 1)``
stays a quotient) and does not rewrite functions beyond folding
constant arguments.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping

import numpy as np

Binding = Mapping[str, float]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


class ExprError(Exception):
    """Base class for expression-engine errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(ExprError):
    pass


class SizeError(ExprError):
    """A normal-form product would form more than :data:`MAX_PRODUCTS` term products."""


# the most term products one NormalForm product or dot may form: the tests and
# suites form at most 12,544, (u1+u2+u3+u4)^30 forms 658,920
MAX_PRODUCTS = 1 << 17


def _check_products(count: int) -> None:
    if count > MAX_PRODUCTS:
        raise SizeError(f"expression too large: a product would form {count} products "
                        f"of terms, above the limit of {MAX_PRODUCTS}")


def _coerce(value) -> "Expression":
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


class Expression:
    """Immutable expression-tree node.

    The root of a tree built by :meth:`NormalForm.to_expr` keeps that
    normal form in the ``_nf`` slot; the slot is unset on other nodes.
    """

    __slots__ = ("_nf",)

    def eval(self, binding: Binding) -> float:
        return _evaluate(self, binding, False)

    def eval_many(self, binding: Mapping[str, np.ndarray]) -> np.ndarray:
        return _evaluate(self, binding, True)

    def diff(self, var: str) -> "Expression":
        """Exact derivative with respect to ``var``, in canonical form."""
        return NormalForm.of(self).diff(var).to_expr()

    def variables(self) -> frozenset[str]:
        """Names of the variables the expression mentions.

        Walks the tree without recursion, so a deep parsed tree is fine; a
        node that carries its normal form answers from it.
        """
        names: set[str] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            nf = getattr(node, "_nf", None)
            if nf is not None:
                names |= nf.variables()
            elif type(node) is Var:
                names.add(node.name)
            elif type(node) is not Const:
                stack += [getattr(node, f) for f in _op(node).operands]
        return frozenset(names)

    def __eq__(self, other):
        """Structural equality: same node types and equal fields, compared
        without recursion, so a deep parsed tree is fine."""
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Expression):
                    stack.append((x, y))
                elif not (x is y or x == y):
                    return False
        return True

    def __hash__(self) -> int:
        """Equal for equal trees; computed by the tree walk, without recursion."""
        hashes: list[int] = []
        for node, op in _steps(self):
            if op is None:
                hashes.append(hash(node.value if type(node) is Const else node.name))
            elif type(op) is _Op:
                hashes.append(hash((op.form, *_pop(hashes, op), *op.params_of(node, False))))
        return hashes[0]

    def __str__(self) -> str:
        return _print(self, strict=True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({_print(self, strict=False)!r})"

    # Operator sugar; coerces plain numbers to constants.
    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be a constant integer")
        return Pow(self, exponent)

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Const(Expression):
    value: float

    def __post_init__(self):
        if type(self.value) is not float:
            object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Var(Expression):
    name: str


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Func(Expression):
    name: str
    arg: Expression


# ---------------------------------------------------------------------------
# The tree walk
#
# Each operation is written once, as Python code over its operands, and
# each domain check once, as a test.  compile_exprs emits the code inline;
# the walk runs the same code compiled once per flavour, on floats with
# math's functions or on arrays with numpy's, so the two compute alike.

_NAMESPACES = tuple({"sin": m.sin, "cos": m.cos, "exp": m.exp, "ln": m.log, "sqrt": m.sqrt}
                    for m in (math, np))
# the reductions of the array domain checks (see _Check)
_NAMESPACES[1].update(_all=np.logical_and.reduce, _fmin=np.fmin.reduce, _inf=np.inf)


class _Check:
    """A domain check of an operand: where the operand compares with 0.0 by
    ``operator`` (on an array: anywhere), the operation raises
    :class:`DomainError` with ``message``, a format over the node; with
    ``shows_value`` a scalar message ends with the operand's value.

    On an array the check is one C-level reduction that holds where
    ``(x operator 0.0).any()`` would: for ``==``, not every value is
    non-zero (nan is non-zero); for ``<=`` and ``<``, the least value that
    is not nan (inf if there is none) compares so.
    """

    _ARRAY_TESTS = {"==": "not _all({}, None)",
                    "<=": "_fmin({}, None, initial=_inf) <= 0.0",
                    "<": "_fmin({}, None, initial=_inf) < 0.0"}

    def __init__(self, operator: str, message: str, shows_value: bool = False):
        self.tests = (f"{{}} {operator} 0.0", self._ARRAY_TESTS[operator])
        self.holds = tuple(eval(f"lambda x: {t.format('x')}", dict(ns))
                           for t, ns in zip(self.tests, _NAMESPACES))
        self.message, self.shows_value = message, shows_value

    def __call__(self, value, numpy: bool, node=None) -> None:
        if self.holds[numpy](value):
            message = self.message.format(node)
            raise DomainError(f"{message} {value}" if self.shows_value and not numpy else message)

    def code(self, x: str, numpy: bool, node) -> str:
        """The line of a generated function that checks its variable ``x``."""
        message = self.message.format(node)
        message = f'f"{message} {{{x}}}"' if self.shows_value and not numpy else repr(message)
        return f"    if {self.tests[numpy].format(x)}: raise DomainError({message})"


class _Op:
    """One operation: ``form`` prints it and ``code`` computes it, both
    formats over its operand fields and then its ``params`` fields, which
    numpy code reads as floats.  ``operands`` are (field, least precedence
    printed without parentheses) pairs in evaluation order; ``check`` runs
    on the first operand before any other operand is evaluated."""

    def __init__(self, form: str, prec: int, operands: tuple, code: str | None = None,
                 params: tuple = (), check: _Check | None = None):
        self.prec, self.params, self.check = prec, params, check
        self.operands, self.tight = zip(*operands)
        self.first = attrgetter(self.operands[0])
        self.second = attrgetter(self.operands[1]) if len(operands) == 2 else None
        position = {name: f"{{{j}}}" for j, name in enumerate(self.operands + params)}
        self.form, self.code = (t.format_map(position) for t in (form, code or form))
        # the walk runs the code as a function of the operands and the node
        self.run = tuple(
            eval(f"lambda {', '.join(self.operands)}, node: "
                 + self.code.format(*self.operands, *(f"{read}(node.{p})" for p in params)),
                 dict(ns))
            for ns, read in zip(_NAMESPACES, ("", "float")))

    def params_of(self, node, numpy: bool) -> list:
        return [float(getattr(node, p)) if numpy else getattr(node, p) for p in self.params]

    def apply(self, x, numpy: bool):
        """The operation of its one operand ``x``, checked first."""
        if self.check is not None:
            self.check(x, numpy)
        return self.run[numpy](x, None)


_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5
_ZERO = _Check("==", "division by zero")
_POW_ZERO = _Check("==", "0^{0.exponent} is undefined")
_DOMAINS = {"ln": _Check("<=", "ln of non-positive value", shows_value=True),
            "sqrt": _Check("<", "sqrt of negative value", shows_value=True)}


_OPS = {
    Neg: _Op("-{arg}", _UNARY, (("arg", _UNARY),)),
    Add: _Op("{left} + {right}", _ADD, (("left", _ADD), ("right", _ADD))),
    Sub: _Op("{left} - {right}", _ADD, (("left", _ADD), ("right", _ADD + 1))),
    Mul: _Op("{left}*{right}", _MUL, (("left", _MUL), ("right", _MUL + 1))),
    # a quotient checks its denominator before it evaluates its numerator
    Div: _Op("{left}/{right}", _MUL, (("right", _MUL + 1), ("left", _MUL)), check=_ZERO),
    # keyed by whether the exponent is <= 0, where a zero base is undefined
    **{(Pow, checked): _Op("{base}^{exponent}", _POW, (("base", _ATOM),), "{base} ** {exponent}",
                           ("exponent",), _POW_ZERO if checked else None)
       for checked in (False, True)},
    **{name: _Op(name + "({arg})", _ATOM, (("arg", 0),), check=_DOMAINS.get(name))
       for name in FUNCTIONS},
}


def _op(node) -> _Op | None:
    """The operation of ``node``; None for a Const or Var."""
    t = type(node)
    if t is Func:
        return _OPS[node.name]
    if t is Pow:
        return _OPS[Pow, node.exponent <= 0]
    return _OPS.get(t)


def _steps(root: Expression) -> list[tuple]:
    """The tree under ``root`` in evaluation order, found without recursion.

    A step (node, op) comes after the steps of the node's operands, in the
    order of ``op.operands``; ``op`` is None for a Const or Var.  A node
    whose op has a check also has a step (node, op.check) right after the
    steps of its first operand.
    """
    steps, stack = [], [root]
    step, visit, pop = steps.append, stack.append, stack.pop
    while stack:
        node = pop()
        t = type(node)
        if t is Var or t is Const:
            step((node, None))
        elif t is tuple:
            step(node)
        else:
            op = _op(node)
            step((node, op))
            # pushed in evaluation order, so the first operand is visited
            # last and comes first in the reversed list
            visit(op.first(node))
            if op.check is not None:
                visit((node, op.check))
            if op.second is not None:
                visit(op.second(node))
    steps.reverse()
    return steps


def _pop(values: list, op: _Op) -> list:
    """The values of ``op``'s operands, taken off the end of ``values``."""
    n = len(op.operands)
    taken = values[-n:]
    del values[-n:]
    return taken


def _evaluate(root: Expression, binding, numpy: bool):
    """The value of ``root`` at ``binding``: a float, or with ``numpy`` an array."""
    values: list = []
    for node, op in _steps(root):
        if type(node) is Const:
            values.append(np.float64(node.value) if numpy else node.value)
        elif op is None:
            try:
                value = binding[node.name]
            except KeyError:
                raise UnboundVariableError(node.name) from None
            values.append(np.asarray(value, dtype=float) if numpy else float(value))
        elif type(op) is _Check:
            op(values[-1], numpy, node)
        elif op.second is None:
            values[-1] = op.run[numpy](values[-1], node)
        else:
            second = values.pop()
            values[-1] = op.run[numpy](values[-1], second, node)
    return values[0]


def _print(root: Expression, strict: bool) -> str:
    """The printed form; a nan constant raises if ``strict`` and prints as nan if not."""
    out: list[tuple[str, int]] = []  # (text, precedence)
    for node, op in _steps(root):
        if type(node) is Var:
            out.append((node.name, _ATOM))
        elif op is None:
            out.append((_const_text(node.value, strict), _UNARY if node.value < 0 else _ATOM))
        elif type(op) is _Op:
            texts = [t if p >= q else f"({t})" for (t, p), q in zip(_pop(out, op), op.tight)]
            out.append((op.form.format(*texts, *op.params_of(node, False)), op.prec))
    return out[0][0]


def _const_text(v: float, strict: bool) -> str:
    if math.isinf(v):
        # 1e999 overflows to inf when parsed back
        return "1e999" if v > 0.0 else "-1e999"
    if v != v:
        if strict:
            raise ExprError("the constant nan has no printed form")
    elif v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Canonical form
#
# A monomial is packed into one int: the exponent of the j-th atom of its
# normal form is the j-th signed _W-bit digit, so multiplying monomials
# adds their keys.

_W = 32
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)
# keeps every exponent of a product of up to 2^(_W - 1 - 24) factors
# inside its digit
_MAX_EXP = 1 << 24


def _bias(n: int) -> int:
    """Adding this to a key makes each of its n digits non-negative."""
    return _HALF * ((1 << (_W * n)) - 1) // _MASK


def _exponents(keys: Iterable[int], j: int, n: int) -> list[int]:
    """The exponent of the j-th atom in each of ``keys``, keys over n atoms."""
    bias, shift = _bias(n), _W * j
    return [(((key + bias) >> shift) & _MASK) - _HALF for key in keys]


def _pack(exps: Iterable[int]) -> int:
    key = 0
    for j, e in enumerate(exps):
        if e:
            if abs(e) > _MAX_EXP:
                raise ExprError(f"exponent {e} exceeds the supported range ±{_MAX_EXP}")
            key += e << (_W * j)
    return key


def _is_sum(atom) -> bool:
    return type(atom) is not str and not atom.name


def _atom_order(atom) -> tuple:
    return (0, atom) if type(atom) is str else atom.order


def _fold(acc: dict) -> dict:
    """Coefficients from lists of contributions; zero coefficients dropped."""
    out = {}
    for key, parts in acc.items():
        c = parts[0] if len(parts) == 1 else math.fsum(parts)
        if c != 0.0:
            out[key] = c
    return out


class _Compound:
    """A non-variable atom: a function of a canonical argument (``name``
    is the function) or a sum of two or more terms (``name`` is "")."""

    __slots__ = ("name", "arg", "order", "_hash", "_vars", "_expr")

    def __init__(self, name: str, arg: "NormalForm"):
        self.name = name
        self.arg = arg
        self.order = (1 if name else 2, name, arg.key)
        self._hash = hash(self.order)
        self._vars = None
        self._expr = None

    def __eq__(self, other):
        return self is other or (type(other) is _Compound and self.order == other.order)

    def __hash__(self):
        return self._hash

    @property
    def variables(self) -> frozenset[str]:
        if self._vars is None:
            self._vars = self.arg.variables()
        return self._vars

    def expr(self) -> Expression:
        if self._expr is None:
            arg = self.arg.to_expr()
            self._expr = Func(self.name, arg) if self.name else arg
        return self._expr

    def derivative(self, var: str) -> "NormalForm":
        """d(atom)/d(var), chain rule included."""
        arg, name = self.arg, self.name
        if name == "sin":
            outer = NormalForm.atom(_Compound("cos", arg))
        elif name == "cos":
            outer = -NormalForm.atom(_Compound("sin", arg))
        elif name == "exp":
            outer = NormalForm.atom(self)
        elif name == "ln":
            outer = arg ** -1
        elif name == "sqrt":
            outer = NormalForm((self,), {-1: 0.5})
        else:  # a sum atom; the monomial's own exponent is applied by the caller
            outer = NormalForm.constant(1.0)
        return outer * arg.diff(var)


class _Jet:
    """A non-variable atom: the partial derivative of an undetermined smooth
    function ``name`` of the variables ``deps`` by the sorted variable names
    ``index``.  Sorting the index makes mixed partials commute, so jets are
    the free differential algebra over (name, deps); one name has one
    ``deps``."""

    __slots__ = ("name", "variables", "index", "order", "_hash")

    def __init__(self, name: str, deps: Iterable[str], index: tuple[str, ...] = ()):
        self.name = name
        self.variables = frozenset(deps)
        self.index = tuple(sorted(index))
        self.order = (3, name, self.index)
        self._hash = hash(self.order)

    def __eq__(self, other):
        return self is other or (type(other) is _Jet and self.order == other.order)

    def __hash__(self):
        return self._hash

    def expr(self) -> Expression:
        """A leaf named by the function and its index, such as ``aY1_u1x2``."""
        return Var(f"{self.name}_{''.join(self.index)}" if self.index else self.name)

    def derivative(self, var: str) -> "NormalForm":
        """d(atom)/d(var) for ``var`` in ``variables``: the jet one order higher."""
        return NormalForm.atom(_Jet(self.name, self.variables, self.index + (var,)))


class NormalForm:
    """Sparse sum of products: packed monomial key -> nonzero float coefficient.

    ``atoms`` are the atoms the keys refer to, sorted by their structural
    order; an atom is a variable name (``str``), a :class:`_Compound` or a
    :class:`_Jet`.
    Results of operations may list atoms that no term uses; :attr:`key`
    and :meth:`to_expr` drop them.  ``atoms`` and ``terms`` never change
    after construction.
    """

    __slots__ = ("atoms", "terms", "_key", "_vars")

    def __init__(self, atoms: tuple = (), terms: dict | None = None):
        self.atoms = atoms
        self.terms = {} if terms is None else terms
        self._key = None
        self._vars = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "NormalForm":
        value = float(value)
        return NormalForm((), {0: value} if value != 0.0 else {})

    @staticmethod
    def atom(atom, exponent: int = 1) -> "NormalForm":
        return NormalForm((atom,), {_pack((exponent,)): 1.0})

    @staticmethod
    def function(name: str, arg: "NormalForm") -> "NormalForm":
        arg = arg._trimmed()
        if not arg.atoms:
            try:
                return NormalForm.constant(_OPS[name].apply(arg.terms.get(0, 0.0), False))
            except (DomainError, OverflowError):
                pass
        return NormalForm.atom(_Compound(name, arg))

    @staticmethod
    def polynomial(terms: Iterable[tuple[Iterable[str], float]]) -> "NormalForm":
        """The form of the sum of ``c * v1 * v2 * ...`` over (variable names, c).

        Equal to the sum of the forms of those products, built without
        multiplying forms.
        """
        monomials = [(tuple(names), float(c)) for names, c in terms]
        atoms = tuple(sorted({name for names, _ in monomials for name in names}))
        unit = {a: 1 << (_W * j) for j, a in enumerate(atoms)}
        acc: dict[int, list[float]] = {}
        for names, c in monomials:
            acc.setdefault(sum(unit[name] for name in names), []).append(c)
        return NormalForm(atoms, _fold(acc))

    @staticmethod
    def of(e: Expression) -> "NormalForm":
        """Normal form of ``e``; O(1) on a tree built by :meth:`to_expr`."""
        try:
            return e._nf
        except AttributeError:
            return _form_of(e)

    # -- atoms shared by two or more forms -----------------------------------

    def _terms_on(self, atoms: tuple) -> dict:
        """``terms`` re-keyed for ``atoms``, a sorted superset of ``self.atoms``."""
        mine = self.atoms
        if mine is atoms or mine == atoms:
            return self.terms
        index = {a: j for j, a in enumerate(atoms)}
        runs: list[list[int]] = []  # [first digit here, first digit there, length]
        for j, a in enumerate(mine):
            p = index[a]
            if runs and runs[-1][1] + runs[-1][2] == p:
                runs[-1][2] += 1
            else:
                runs.append([j, p, 1])
        if len(runs) <= 1:
            # the digits keep their order and move up together
            shift = _W * runs[0][1] if runs else 0
            return {key << shift: c for key, c in self.terms.items()} if shift else self.terms
        # each run of digits moves as one block of the biased key
        bias = _bias(len(mine))
        unbias = sum(_HALF << (_W * index[a]) for a in mine)
        blocks = [(_W * j, (1 << (_W * n)) - 1, _W * p) for j, p, n in runs]
        out = {}
        for key, c in self.terms.items():
            key += bias
            new = -unbias
            for src, mask, dst in blocks:
                new += ((key >> src) & mask) << dst
            out[new] = c
        return out

    @staticmethod
    def _common_atoms(forms) -> tuple:
        first = forms[0].atoms
        if all(f.atoms is first or f.atoms == first for f in forms[1:]):
            return first
        return tuple(sorted(set().union(*(f.atoms for f in forms)), key=_atom_order))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def sum(forms: Iterable["NormalForm"]) -> "NormalForm":
        """Sum with each coefficient added by ``math.fsum``."""
        forms = [f for f in forms if f.terms]
        if len(forms) <= 1:
            return forms[0] if forms else NormalForm()
        atoms = NormalForm._common_atoms(forms)
        acc: dict[int, list[float]] = {}
        for f in forms:
            for key, c in f._terms_on(atoms).items():
                acc.setdefault(key, []).append(c)
        return NormalForm(atoms, _fold(acc))

    @staticmethod
    def dot(pairs: Iterable[tuple["NormalForm", "NormalForm"]]) -> "NormalForm":
        """The sum of ``x * y`` over the (x, y) pairs.

        Every product of two coefficients goes straight into one list per
        monomial, so each coefficient of the result is one ``math.fsum`` of
        all its float contributions: one rounding, where
        ``NormalForm.sum([x * y, ...])`` rounds each product and then the sum.
        """
        pairs = [(x, y) for x, y in pairs if x.terms and y.terms]
        if not pairs:
            return NormalForm()
        _check_products(sum(len(x.terms) * len(y.terms) for x, y in pairs))
        atoms = NormalForm._common_atoms([f for pair in pairs for f in pair])
        acc: defaultdict[int, list[float]] = defaultdict(list)
        for x, y in pairs:
            a, b = x._terms_on(atoms), y._terms_on(atoms)
            for kb, cb in b.items():
                for ka, ca in a.items():
                    acc[ka + kb].append(ca * cb)
        return NormalForm(atoms, _fold(acc))

    def __neg__(self) -> "NormalForm":
        return NormalForm(self.atoms, {key: -c for key, c in self.terms.items()})

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        if not self.terms or not other.terms:
            return NormalForm()
        _check_products(len(self.terms) * len(other.terms))
        atoms = NormalForm._common_atoms((self, other))
        a, b = self._terms_on(atoms), other._terms_on(atoms)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            (kb, cb), = b.items()
            return NormalForm(atoms, {ka + kb: c for ka, ca in a.items()
                                      if (c := ca * cb) != 0.0})
        acc = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                acc.setdefault(ka + kb, []).append(ca * cb)
        return NormalForm(atoms, _fold(acc))

    def __truediv__(self, other: "NormalForm") -> "NormalForm":
        if not other.terms:
            raise DomainError("division by constant zero")
        if len(other.terms) == 1 and not any(_is_sum(a) for a in other.atoms):
            # a monomial of variables and functions: divide term by term
            atoms = NormalForm._common_atoms((self, other))
            (kb, cb), = other._terms_on(atoms).items()
            return NormalForm(atoms, {ka - kb: c for ka, ca in self._terms_on(atoms).items()
                                      if (c := ca / cb) != 0.0})
        return self * other ** -1

    def __pow__(self, n: int) -> "NormalForm":
        if n == 0:
            return NormalForm.constant(1.0)
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            k = len(self.atoms)
            exps = [_exponents((key,), j, k)[0] * n for j in range(k)]
            # a sum raised to a positive power is expanded, not kept as an atom
            expand = [e > 0 and _is_sum(a) for a, e in zip(self.atoms, exps)]
            result = NormalForm(self.atoms, {_pack(0 if x else e for x, e in zip(expand, exps)):
                                             c ** n})
            for a, e, x in zip(self.atoms, exps, expand):
                if x:
                    result = result * a.arg ** e
            return result
        if not self.terms:
            if n < 0:
                raise DomainError("division by constant zero")
            return self
        if n < 0:
            return NormalForm.atom(_Compound("", self._trimmed()), n)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- calculus ------------------------------------------------------------

    def diff(self, var: str) -> "NormalForm":
        """Exact derivative: the product rule per monomial, the chain rule per atom."""
        atoms, n = self.atoms, len(self.atoms)
        parts = []
        for j, atom in enumerate(atoms):
            if type(atom) is str:
                if atom != var:
                    continue
                inner = None
            elif var in atom.variables:
                inner = atom.derivative(var)
            else:
                continue
            unit = 1 << (_W * j)
            # d(c * atom^e * rest) = c*e * atom^(e-1) * rest * d(atom)
            terms = {key - unit: c * e for key, c, e in
                     zip(self.terms, self.terms.values(), _exponents(self.terms, j, n)) if e}
            if terms:
                part = NormalForm(atoms, terms)
                parts.append(part if inner is None else part * inner)
        return NormalForm.sum(parts)

    def variables(self) -> frozenset[str]:
        if self._vars is None:
            self._rows()
        return self._vars

    # -- canonical output ----------------------------------------------------

    def _rows(self) -> tuple[tuple, list[tuple[tuple[int, ...], float]]]:
        """Used atoms and (exponents, coefficient) rows, highest monomial first."""
        n, atoms, coeffs = len(self.atoms), self.atoms, list(self.terms.values())
        if n and coeffs:
            # the keys' biased digits, unpacked as one array
            bias, size = _bias(n), 4 * n
            data = b"".join([(key + bias).to_bytes(size, "little") for key in self.terms])
            exps = np.frombuffer(data, dtype="<u4").reshape(-1, n).astype(np.int64) - _HALF
            used = exps.any(axis=0)
            if not used.all():
                atoms = tuple(a for a, u in zip(atoms, used) if u)
                exps = exps[:, used]
        if atoms and coeffs:
            order = np.lexsort(exps.T[::-1])[::-1].tolist()  # descending, column 0 first
            rows = list(zip(map(tuple, exps[order].tolist()), [coeffs[k] for k in order]))
        else:  # a constant: at most one term
            atoms, rows = (), [((), c) for c in coeffs]
        if self._vars is None:
            self._vars = frozenset().union(*((a,) if type(a) is str else a.variables for a in atoms))
        return atoms, rows

    def _trimmed(self) -> "NormalForm":
        atoms, rows = self._rows()
        if len(atoms) == len(self.atoms):
            return self
        return NormalForm(atoms, {_pack(exps): c for exps, c in rows})

    @property
    def key(self) -> tuple:
        """Structural sort and equality key."""
        if self._key is None:
            atoms, rows = self._rows()
            self._key = (tuple(_atom_order(a) for a in atoms), tuple(rows))
        return self._key

    def to_expr(self) -> Expression:
        """The canonical tree; its root carries this normal form."""
        atoms, rows = self._rows()
        factors = [Var(a) if type(a) is str else a.expr() for a in atoms]

        def term(c: float, exps) -> Expression:
            num, den = [], []
            for factor, e in zip(factors, exps):
                if e:
                    (num if e > 0 else den).append(factor if abs(e) == 1 else Pow(factor, abs(e)))
            return _term_tree(c, num, den)

        tree = _sum(rows, term) if rows else Const(0.0)
        if type(tree) is Func:
            # a copy, so that an atom's cached tree never holds a form that
            # refers back to the atom
            tree = Func(tree.name, tree.arg)
        object.__setattr__(tree, "_nf", self)
        return tree


def _form_of(e: Expression) -> NormalForm:
    """The walk of :meth:`NormalForm.of`, iterative on both sides of every node.

    ``todo`` holds the steps still to run, the next one last: ``of`` a node
    pushes its form onto ``done``; ``quot`` divides the last form by a
    denominator, by each factor of its products and powers, so that
    1/(u1*(u1 + x1)) is u1^-1 * (u1 + x1)^-1, not the reciprocal of the
    expanded sum u1^2 + u1*x1, and the printed canonical tree normalizes
    back to the same form; the other steps combine the last forms.
    """
    todo: list = [("of", e)]
    done: list[NormalForm] = []
    while todo:
        step, node = todo.pop()
        if step == "of":
            t = type(node)
            if hasattr(node, "_nf"):
                done.append(node._nf)
            elif t is Const:
                done.append(NormalForm.constant(node.value))
            elif t is Var:
                done.append(NormalForm.atom(node.name))
            elif t is Add or t is Sub or t is Neg:
                terms = list(_summands(node))
                todo.append(("sum", [negate for _, negate in terms]))
                todo += [("of", term) for term, _ in reversed(terms)]
            elif t is Mul:
                todo += [("mul", None), ("of", node.right), ("of", node.left)]
            elif t is Div:
                todo += [("quot", node.right), ("of", node.left)]
            elif t is Pow and node.exponent < 0:
                done.append(NormalForm.constant(1.0))
                todo += [("pow", -node.exponent), ("quot", node.base)]
            elif t is Pow:
                todo += [("pow", node.exponent), ("of", node.base)]
            elif t is Func:
                todo += [("func", node.name), ("of", node.arg)]
            else:
                raise TypeError(f"unknown node {t.__name__}")
        elif step == "quot":
            t = None if hasattr(node, "_nf") else type(node)
            if t is Mul:
                todo += [("quot", node.right), ("quot", node.left)]
            elif t is Div:
                todo += [("mul", None), ("of", node.right), ("quot", node.left)]
            elif t is Pow and node.exponent > 0:
                done.append(NormalForm.constant(1.0))
                todo += [("mul", None), ("pow", node.exponent), ("quot", node.base)]
            else:
                todo += [("div", None), ("of", node)]
        elif step == "mul":
            right = done.pop()
            done[-1] = done[-1] * right
        elif step == "div":
            right = done.pop()
            done[-1] = done[-1] / right
        elif step == "pow":
            done[-1] = done[-1] ** node
        elif step == "func":
            done[-1] = NormalForm.function(node, done[-1])
        else:  # "sum": node holds the signs of the last len(node) forms
            forms = done[-len(node):]
            del done[-len(node):]
            done.append(NormalForm.sum([-f if negate else f for f, negate in zip(forms, node)]))
    return done[0]


def _summands(e: Expression):
    """The signed terms (node, negated) of a sum/difference/negation chain,
    walked iteratively."""
    stack = [(e, False)]
    while stack:
        node, negate = stack.pop()
        t = type(node)
        if hasattr(node, "_nf") or not (t is Add or t is Sub or t is Neg):
            yield node, negate
        elif t is Neg:
            stack.append((node.arg, not negate))
        else:
            stack.append((node.right, negate if t is Add else not negate))
            stack.append((node.left, negate))


def _product(factors: list) -> Expression:
    tree = factors[0]
    for factor in factors[1:]:
        tree = Mul(tree, factor)
    return tree


def _term_tree(c: float, num: list, den: list) -> Expression:
    """c * num[0] * num[1] ... / (den[0] * den[1] ...), products nested to the left."""
    if not num:
        top: Expression = Const(c)
    elif c == 1.0:
        top = _product(num)
    elif c == -1.0:
        top = Neg(_product(num))
    else:
        top = _product([Const(c)] + num)
    return Div(top, _product(den)) if den else top


# terms per left-nested run of a sum; runs are joined as a balanced tree, which
# keeps a canonical tree shallow
_RUN = 32


def _sum(rows: list, term):
    """The sum of ``term(c, exps)`` over the (exps, c) rows of a normal form,
    in the shape of its canonical tree.

    Runs of _RUN terms are folded to the left, a negative term subtracted
    as ``term(-c, exps)``, and a later run led by a negative term is
    negated; the runs are joined pairwise into a balanced tree, each pair
    as soon as it is complete.
    """
    def join(left, right):
        (size, neg_l, a), (size_r, neg_r, b) = left, right
        return size + size_r, neg_l, a - b if neg_l != neg_r else a + b

    stack = []  # complete subtrees: (runs, negated, sum)
    for start in range(0, len(rows), _RUN):
        chunk = rows[start:start + _RUN]
        negated = chunk[0][1] < 0.0 and start > 0
        total = None
        for exps, c in chunk:
            if negated:
                c = -c
            if total is None:
                total = term(c, exps)
            elif c < 0.0:
                total = total - term(-c, exps)
            else:
                total = total + term(c, exps)
        stack.append((1, negated, total))
        while len(stack) > 1 and stack[-2][0] == stack[-1][0]:
            stack[-2:] = [join(*stack[-2:])]
    while len(stack) > 1:
        stack[-2:] = [join(*stack[-2:])]
    return stack[0][2]


def simplify(e: Expression) -> Expression:
    """The canonical tree of ``e``; returns ``e`` itself when it is canonical.

    The value is unchanged, up to rounding, at bindings where both the
    input and the output are defined.  Raises :class:`DomainError` on a
    constant zero denominator.
    """
    if hasattr(e, "_nf"):
        return e
    return NormalForm.of(e).to_expr()


def add_all(terms) -> Expression:
    """Canonical sum of expressions; Const(0) for an empty sequence."""
    return NormalForm.sum(NormalForm.of(_coerce(t)) for t in terms).to_expr()


# ---------------------------------------------------------------------------
# Compiled evaluation

def compile_exprs(exprs: Iterable[Expression], args: Iterable[str], numpy: bool = False):
    """One generated Python function that evaluates all of ``exprs``.

    The function takes the values of the variables ``args`` positionally
    and returns a tuple with one value per expression.  Its source is flat:
    one assignment per distinct subtree, where equal subtrees, also across
    expressions, are computed once.  It is the tree walk of
    :meth:`Expression.eval` (``numpy=False``, arguments are Python floats)
    or of :meth:`Expression.eval_many` (``numpy=True``) written out: the
    same operations in the same order, with the same :class:`DomainError`
    checks, so its results are bit-identical to theirs.  Raises
    :class:`UnboundVariableError` for a variable not in ``args``.
    """
    params = {name: f"a{j}" for j, name in enumerate(args)}
    ns = {"DomainError": DomainError, "asarray": np.asarray, **_NAMESPACES[numpy]}
    lines: dict[str, None] = {}  # in order, each once
    known: dict[str, str] = {}  # code of a value, or repr of a constant -> its name

    def leaf(node) -> str:
        if type(node) is Var:
            if node.name not in params:
                raise UnboundVariableError(node.name)
            name = params[node.name]
            if numpy:
                lines[f"    {name} = asarray({name}, dtype=float)"] = None
            return name
        if numpy or not math.isfinite(node.value):
            name = known.setdefault(repr(node.value), f"c{len(ns)}")
            ns.setdefault(name, np.float64(node.value) if numpy else node.value)
            return name
        return f"({node.value!r})"

    outputs = []
    for root in exprs:
        names: list[str] = []
        for node, op in _steps(root):
            if op is None:
                names.append(leaf(node))
            elif type(op) is _Check:
                lines[op.code(names[-1], numpy, node)] = None
            else:
                code = op.code.format(*_pop(names, op), *op.params_of(node, numpy))
                name = known.setdefault(code, f"v{len(known)}")
                lines[f"    {name} = {code}"] = None
                names.append(name)
        outputs.append(names[0])
    source = (f"def kernel({', '.join(params.values())}):\n" + "\n".join(lines)
              + f"\n    return ({''.join(o + ', ' for o in outputs)})\n")
    return define_kernel(source, ns, "<compile_exprs>")


def define_kernel(source: str, namespace: dict, filename: str):
    """The function ``kernel`` that the generated ``source`` defines, with
    ``namespace`` as its globals: the one place generated code is run."""
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<symbol>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", offset,
                             ("number", "identifier", "operator"))
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            sym = m.group("symbol")
            tokens.append((sym, sym, m.start("symbol")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# factors nested deeper than this are a ParseError, not a RecursionError
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: tuple[str, ...]):
        kind, value, offset = self.peek()
        shown = "end of input" if kind == "eof" else repr(value)
        raise ParseError(f"unexpected {shown}", offset, expected)

    def parse(self) -> Expression:
        e = self.expr()
        if self.peek()[0] != "eof":
            self.error(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expression:
        # each parenthesis, function call and unary minus nests one factor
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek()[2],
                             (f"at most {MAX_NESTING} nested factors",))
        self.depth += 1
        if self.peek()[0] == "-":
            self.advance()
            e = Neg(self.factor())
        else:
            e = self.base()
            if self.peek()[0] == "^":
                self.advance()
                e = Pow(e, self.intlit())
        self.depth -= 1
        return e

    def intlit(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        kind, value, offset = self.peek()
        if kind != "number" or any(c in value for c in ".eE"):
            self.error(("integer literal",))
        self.advance()
        return sign * int(value)

    def base(self) -> Expression:
        kind, value, offset = self.peek()
        if kind == "number":
            self.advance()
            return Const(float(value))
        if kind == "ident":
            self.advance()
            if value in FUNCTIONS:
                if self.peek()[0] != "(":
                    self.error(("'('",))
                self.advance()
                arg = self.expr()
                if self.peek()[0] != ")":
                    self.error(("')'",))
                self.advance()
                return Func(value, arg)
            return Var(value)
        if kind == "(":
            self.advance()
            e = self.expr()
            if self.peek()[0] != ")":
                self.error(("')'",))
            self.advance()
            return e
        self.error(("number", "identifier", "'('", "'-'"))
        raise AssertionError("unreachable")


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with the byte offset and expected-token set
    on malformed input.
    """
    return _Parser(text).parse()
