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
integers so differentiation stays closed-form.  Expressions are
immutable and hashable; printing then re-parsing yields an
evaluation-equivalent tree.

Canonical form.  Every expression has a :class:`NormalForm`: a sparse
sum of products, mapping monomials to float coefficients.  A monomial
is a product of atoms raised to integer powers.  An atom is a variable,
a function of a canonical argument (``sin(u1 + x1)``), or a sum of two
or more terms, which occurs only with negative powers
(``(u1^2 + 1)^-2``); products and positive powers of sums are expanded.
Atoms are ordered by a structural key, so the normal form, and the tree
:func:`simplify` prints from it, is a pure function of the expression's
structure.  When several products or summands contribute to one
monomial, their coefficients are added with ``math.fsum``, so the result
does not depend on the order of the terms and ``f*g - g*f`` cancels to
the literal ``Const(0.0)``.

:func:`simplify` returns the tree of the normal form, and that tree
carries its normal form: simplifying it again takes O(1), and
:meth:`Expression.diff` and the bracket builders differentiate, add and
multiply the normal forms without re-normalizing.
:meth:`NormalForm.eval_many` evaluates a normal form without building
its tree, with results bit-identical to the tree's ``eval_many``.  ``simplify`` keeps
the value, up to rounding, wherever both the input and the output are
defined, and a constant zero denominator raises :class:`DomainError`.
It does not cancel non-monomial denominators (``(u1^2 - 1)/(u1 - 1)``
stays a quotient) and does not rewrite functions beyond folding
constant arguments.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
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
        raise NotImplementedError

    def eval_many(self, binding: Mapping[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

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
                stack += _children(node)
        return frozenset(names)

    def substitute(self, mapping: Mapping[str, "Expression | float"]) -> "Expression":
        raise NotImplementedError

    def _prec(self) -> int:
        raise NotImplementedError

    def _to_str(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._to_str()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._to_str()!r})"

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


def _paren(child: Expression, minimum: int) -> str:
    s = child._to_str()
    return f"({s})" if child._prec() < minimum else s


_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True, slots=True, repr=False)
class Const(Expression):
    value: float

    def __post_init__(self):
        if type(self.value) is not float:
            object.__setattr__(self, "value", float(self.value))

    def eval(self, binding):
        return self.value

    def eval_many(self, binding):
        return np.float64(self.value)

    def substitute(self, mapping):
        return self

    def _prec(self):
        return _UNARY if self.value < 0 else _ATOM

    def _to_str(self):
        v = self.value
        if math.isinf(v):
            # 1e999 overflows to inf when parsed back
            return "1e999" if v > 0.0 else "-1e999"
        if v != v:
            raise ExprError("the constant nan has no printed form")
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expression):
    name: str

    def eval(self, binding):
        try:
            return float(binding[self.name])
        except KeyError:
            raise UnboundVariableError(self.name) from None

    def eval_many(self, binding):
        try:
            return np.asarray(binding[self.name], dtype=float)
        except KeyError:
            raise UnboundVariableError(self.name) from None

    def substitute(self, mapping):
        if self.name in mapping:
            return _coerce(mapping[self.name])
        return self

    def _prec(self):
        return _ATOM

    def _to_str(self):
        return self.name


@dataclass(frozen=True, slots=True, repr=False)
class Neg(Expression):
    arg: Expression

    def eval(self, binding):
        return -self.arg.eval(binding)

    def eval_many(self, binding):
        return -self.arg.eval_many(binding)

    def substitute(self, mapping):
        return Neg(self.arg.substitute(mapping))

    def _prec(self):
        return _UNARY

    def _to_str(self):
        return "-" + _paren(self.arg, _UNARY)


@dataclass(frozen=True, slots=True, repr=False)
class Add(Expression):
    left: Expression
    right: Expression

    def eval(self, binding):
        return self.left.eval(binding) + self.right.eval(binding)

    def eval_many(self, binding):
        return self.left.eval_many(binding) + self.right.eval_many(binding)

    def substitute(self, mapping):
        return Add(self.left.substitute(mapping), self.right.substitute(mapping))

    def _prec(self):
        return _ADD

    def _to_str(self):
        return f"{_paren(self.left, _ADD)} + {_paren(self.right, _ADD)}"


@dataclass(frozen=True, slots=True, repr=False)
class Sub(Expression):
    left: Expression
    right: Expression

    def eval(self, binding):
        return self.left.eval(binding) - self.right.eval(binding)

    def eval_many(self, binding):
        return self.left.eval_many(binding) - self.right.eval_many(binding)

    def substitute(self, mapping):
        return Sub(self.left.substitute(mapping), self.right.substitute(mapping))

    def _prec(self):
        return _ADD

    def _to_str(self):
        return f"{_paren(self.left, _ADD)} - {_paren(self.right, _ADD + 1)}"


@dataclass(frozen=True, slots=True, repr=False)
class Mul(Expression):
    left: Expression
    right: Expression

    def eval(self, binding):
        return self.left.eval(binding) * self.right.eval(binding)

    def eval_many(self, binding):
        return self.left.eval_many(binding) * self.right.eval_many(binding)

    def substitute(self, mapping):
        return Mul(self.left.substitute(mapping), self.right.substitute(mapping))

    def _prec(self):
        return _MUL

    def _to_str(self):
        return f"{_paren(self.left, _MUL)}*{_paren(self.right, _MUL + 1)}"


@dataclass(frozen=True, slots=True, repr=False)
class Div(Expression):
    left: Expression
    right: Expression

    def eval(self, binding):
        den = self.right.eval(binding)
        if den == 0.0:
            raise DomainError("division by zero")
        return self.left.eval(binding) / den

    def eval_many(self, binding):
        den = self.right.eval_many(binding)
        if np.any(den == 0.0):
            raise DomainError("division by zero")
        return self.left.eval_many(binding) / den

    def substitute(self, mapping):
        return Div(self.left.substitute(mapping), self.right.substitute(mapping))

    def _prec(self):
        return _MUL

    def _to_str(self):
        return f"{_paren(self.left, _MUL)}/{_paren(self.right, _MUL + 1)}"


@dataclass(frozen=True, slots=True, repr=False)
class Pow(Expression):
    base: Expression
    exponent: int

    def eval(self, binding):
        b = self.base.eval(binding)
        if b == 0.0 and self.exponent <= 0:
            raise DomainError(f"0^{self.exponent} is undefined")
        return b ** self.exponent

    def eval_many(self, binding):
        b = self.base.eval_many(binding)
        if self.exponent <= 0 and np.any(b == 0.0):
            raise DomainError(f"0^{self.exponent} is undefined")
        return b ** float(self.exponent)

    def substitute(self, mapping):
        return Pow(self.base.substitute(mapping), self.exponent)

    def _prec(self):
        return _POW

    def _to_str(self):
        return f"{_paren(self.base, _ATOM)}^{self.exponent}"


_FUNC_EVAL = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}


@dataclass(frozen=True, slots=True, repr=False)
class Func(Expression):
    name: str
    arg: Expression

    def eval(self, binding):
        x = self.arg.eval(binding)
        if self.name == "ln":
            if x <= 0.0:
                raise DomainError(f"ln of non-positive value {x}")
            return math.log(x)
        if self.name == "sqrt":
            if x < 0.0:
                raise DomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        return _FUNC_EVAL[self.name](x)

    def eval_many(self, binding):
        return _func_many(self.name, self.arg.eval_many(binding))

    def substitute(self, mapping):
        return Func(self.name, self.arg.substitute(mapping))

    def _prec(self):
        return _ATOM

    def _to_str(self):
        return f"{self.name}({self.arg._to_str()})"


def _func_many(name: str, x: np.ndarray) -> np.ndarray:
    if name == "ln":
        if np.any(x <= 0.0):
            raise DomainError("ln of non-positive value")
        return np.log(x)
    if name == "sqrt":
        if np.any(x < 0.0):
            raise DomainError("sqrt of negative value")
        return np.sqrt(x)
    return getattr(np, name)(x)


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


def _unpacker(n: int):
    """A function from a key to the tuple of its n exponents."""
    # "I" reads the unsigned 32-bit digits of the biased key
    bias, size, digits = _bias(n), 4 * n, struct.Struct(f"<{n}I").unpack
    offsets = (_HALF,) * n

    def unpack(key: int) -> tuple[int, ...]:
        return tuple(map(int.__sub__, digits((key + bias).to_bytes(size, "little")), offsets))

    return unpack


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


class NormalForm:
    """Sparse sum of products: packed monomial key -> nonzero float coefficient.

    ``atoms`` are the atoms the keys refer to, sorted by their structural
    order; an atom is a variable name (``str``) or a :class:`_Compound`.
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
                return NormalForm.constant(Func(name, Const(arg.terms.get(0, 0.0))).eval({}))
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
            pass
        t = type(e)
        if t is Const:
            return NormalForm.constant(e.value)
        if t is Var:
            return NormalForm.atom(e.name)
        if t is Add or t is Sub or t is Neg:
            return NormalForm.sum(_summands(e))
        if t is Mul or t is Div:
            # walk the left spine of a product chain iteratively
            spine = []
            while (t is Mul or t is Div) and not hasattr(e, "_nf"):
                spine.append((t, e.right))
                e = e.left
                t = type(e)
            result = NormalForm.of(e)
            for op, right in reversed(spine):
                result = result * NormalForm.of(right) if op is Mul else _quotient(result, right)
            return result
        if t is Pow:
            if e.exponent < 0:
                return _quotient(NormalForm.constant(1.0), e.base) ** -e.exponent
            return NormalForm.of(e.base) ** e.exponent
        if t is Func:
            return NormalForm.function(e.name, NormalForm.of(e.arg))
        raise TypeError(f"unknown node {t.__name__}")

    # -- atoms shared by two or more forms -----------------------------------

    def _terms_on(self, atoms: tuple) -> dict:
        """``terms`` re-keyed for ``atoms``, a sorted superset of ``self.atoms``."""
        mine = self.atoms
        if mine is atoms or mine == atoms:
            return self.terms
        index = {a: j for j, a in enumerate(atoms)}
        pos = [index[a] for a in mine]
        if pos == list(range(len(pos))):
            return self.terms
        bias, out = _bias(len(pos)), {}
        for key, c in self.terms.items():
            key += bias
            new = 0
            for p in pos:
                new += ((key & _MASK) - _HALF) << (_W * p)
                key >>= _W
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

    def __neg__(self) -> "NormalForm":
        return NormalForm(self.atoms, {key: -c for key, c in self.terms.items()})

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        if not self.terms or not other.terms:
            return NormalForm()
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
            exps = [e * n for e in _unpacker(len(self.atoms))(key)]
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
        bias = _bias(n)
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
            shift, unit = _W * j, 1 << (_W * j)
            # d(c * atom^e * rest) = c*e * atom^(e-1) * rest * d(atom)
            terms = {}
            for key, c in self.terms.items():
                e = (((key + bias) >> shift) & _MASK) - _HALF
                if e:
                    terms[key - unit] = c * e
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

    def eval_many(self, binding: Mapping[str, np.ndarray]) -> np.ndarray:
        """``self.to_expr().eval_many(binding)``, computed term by term.

        Performs the float operations of that tree walk in its order, with
        its checks, so values and exceptions are bit-identical to it; each
        distinct power of an atom is evaluated once per call, and no tree
        is built.
        """
        return self._eval_many(binding, {})

    def _eval_many(self, binding, powers: dict) -> np.ndarray:
        """``powers`` maps (atom, exponent) to its value; nested forms share it."""
        atoms, rows = self._rows()

        def power(atom, e: int):
            value = powers.get((atom, e))
            if value is None:
                if e > 1:
                    value = power(atom, 1) ** float(e)
                elif type(atom) is str:
                    value = Var(atom).eval_many(binding)
                else:
                    value = atom.arg._eval_many(binding, powers)
                    if atom.name:
                        value = _func_many(atom.name, value)
                powers[(atom, e)] = value
            return value

        def term(c: float, exps) -> np.ndarray:
            # _term_tree: c * num[0] * num[1] ... / (den[0] * den[1] ...)
            den = None
            if exps and min(exps) < 0:
                for atom, e in zip(atoms, exps):
                    if e < 0:
                        f = power(atom, -e)
                        den = f if den is None else den * f
                if np.any(den == 0.0):
                    raise DomainError("division by zero")
            top = None if abs(c) == 1.0 else np.float64(c)
            for atom, e in zip(atoms, exps):
                if e > 0:
                    f = power(atom, e)
                    top = f if top is None else top * f
            if top is None:
                top = np.float64(c)
            elif c == -1.0:
                top = -top
            return top if den is None else top / den

        return _sum(rows, term) if rows else np.float64(0.0)


def _quotient(num: NormalForm, den: Expression) -> NormalForm:
    """``num / den``, dividing by each factor of den's products and powers.

    1/(u1*(u1 + x1)) is u1^-1 * (u1 + x1)^-1, not the reciprocal of the
    expanded sum u1^2 + u1*x1, so the printed canonical tree normalizes
    back to the same form.
    """
    if not hasattr(den, "_nf"):
        t = type(den)
        if t is Mul:
            return _quotient(_quotient(num, den.left), den.right)
        if t is Div:
            return _quotient(num, den.left) * NormalForm.of(den.right)
        if t is Pow and den.exponent > 0:
            return num * _quotient(NormalForm.constant(1.0), den.base) ** den.exponent
    return num / NormalForm.of(den)


def _summands(e: Expression):
    """The signed terms of a sum/difference/negation chain, walked iteratively."""
    stack = [(e, False)]
    while stack:
        node, negate = stack.pop()
        t = type(node)
        if hasattr(node, "_nf") or not (t is Add or t is Sub or t is Neg):
            f = NormalForm.of(node)
            yield -f if negate else f
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


# terms per left-nested run of a sum; runs are joined as a balanced tree, so
# the depth of a tree stays within the recursion limit of eval and printing
_RUN = 32


def _sum(rows: list, term):
    """The sum of ``term(c, exps)`` over the (exps, c) rows of a normal form,
    in the shape of its canonical tree.

    Runs of _RUN terms are folded to the left, a negative term subtracted
    as ``term(-c, exps)``, and a later run led by a negative term is
    negated; the runs are joined pairwise into a balanced tree, each pair
    as soon as it is complete, which is the order a tree walk meets them.
    ``term`` returns trees or values: ``+`` and ``-`` build the one and
    compute the other.
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

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
# (test, default message) of the domain checks: scalar, then numpy
_CHECKS = {
    "ln": (("{} <= 0.0", 'f"ln of non-positive value {{{}}}"'),
           ("({} <= 0.0).any()", '"ln of non-positive value"')),
    "sqrt": (("{} < 0.0", 'f"sqrt of negative value {{{}}}"'),
             ("({} < 0.0).any()", '"sqrt of negative value"')),
    "zero": (("{} == 0.0", '"division by zero"'),
             ("({} == 0.0).any()", '"division by zero"')),
}


def compile_exprs(exprs: Iterable[Expression], args: Iterable[str], numpy: bool = False):
    """One generated Python function that evaluates all of ``exprs``.

    The function takes the values of the variables ``args`` positionally
    and returns a tuple with one value per expression.  Its source is flat:
    one assignment per distinct subtree, where equal subtrees, also across
    expressions, are computed once.  It performs the float operations of
    :meth:`Expression.eval` (``numpy=False``, arguments are Python floats)
    or of :meth:`Expression.eval_many` (``numpy=True``) in the order those
    perform them, with the same :class:`DomainError` checks, so its results
    are bit-identical to theirs.  Raises :class:`UnboundVariableError` for
    a variable not in ``args``.
    """
    params = {name: f"a{j}" for j, name in enumerate(args)}
    ns = {"DomainError": DomainError, "asarray": np.asarray}
    mod = np if numpy else math
    ns.update(sin=mod.sin, cos=mod.cos, exp=mod.exp, ln=mod.log, sqrt=mod.sqrt)
    lines: list[str] = []
    operand: dict[int, str] = {}  # id(node) -> name or literal of its value
    known: dict[tuple, str] = {}  # structural key -> name of its value
    emitted: set[str] = set()

    def once(line: str) -> None:
        if line not in emitted:
            emitted.add(line)
            lines.append(line)

    def check(kind: str, x: str, message: str | None = None) -> None:
        test, default = _CHECKS[kind][numpy]
        once(f"    if {test.format(x)}: raise DomainError({(message or default).format(x)})")

    def leaf(node) -> str:
        if type(node) is Var:
            if node.name not in params:
                raise UnboundVariableError(node.name)
            name = params[node.name]
            if numpy:
                once(f"    {name} = asarray({name}, dtype=float)")
            return name
        if numpy or not math.isfinite(node.value):
            name = known.setdefault(("const", repr(node.value)), f"c{len(ns)}")
            ns.setdefault(name, np.float64(node.value) if numpy else node.value)
            return name
        return f"({node.value!r})"

    def emit(node) -> str:
        t = type(node)
        if t is Neg:
            key = ("-", operand[id(node.arg)])
            code = f"-{key[1]}"
        elif t is Pow:
            base, e = operand[id(node.base)], node.exponent
            key, code = ("^", base, e), f"{base} ** {float(e) if numpy else e}"
            if e <= 0:
                check("zero", base, f'"0^{e} is undefined"')
        elif t is Func:
            arg = operand[id(node.arg)]
            key, code = (node.name, arg), f"{node.name}({arg})"
            if node.name in _CHECKS:
                check(node.name, arg)
        else:
            left, right = operand[id(node.left)], operand[id(node.right)]
            key = (_BINARY[t], left, right)
            code = f"{left} {key[0]} {right}"
        if key not in known:
            known[key] = f"v{len(known)}"
            lines.append(f"    {known[key]} = {code}")
        return known[key]

    outputs = []
    for root in exprs:
        # post-order walk in eval's order: a quotient checks its denominator
        # before it evaluates its numerator
        stack = [(root, 0)]
        while stack:
            node, phase = stack.pop()
            if phase == 0:
                if id(node) in operand:
                    continue
                t = type(node)
                if t is Var or t is Const:
                    operand[id(node)] = leaf(node)
                elif t is Div:
                    stack += [(node, 2), (node.left, 0), (node, 1), (node.right, 0)]
                else:
                    stack.append((node, 2))
                    stack += [(child, 0) for child in reversed(_children(node))]
            elif phase == 1:
                check("zero", operand[id(node.right)])
            else:
                operand[id(node)] = emit(node)
        outputs.append(operand[id(root)])
    source = (f"def kernel({', '.join(params.values())}):\n" + "\n".join(lines)
              + f"\n    return ({''.join(o + ', ' for o in outputs)})\n")
    exec(compile(source, "<compile_exprs>", "exec"), ns)
    return ns["kernel"]


def _children(node: Expression) -> tuple:
    t = type(node)
    if t is Neg or t is Func:
        return (node.arg,)
    if t is Pow:
        return (node.base,)
    return (node.left, node.right)


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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

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
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        e = self.base()
        if self.peek()[0] == "^":
            self.advance()
            e = Pow(e, self.intlit())
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
