"""Expression mini-language for scalars, germ series, and polynomial forms.

One grammar serves three evaluation domains:

* scalars      - exact rationals and named cyclotomic values (constraints),
* series       - jets in the variable ``z`` (germ generator expressions),
* forms        - polynomials and differential forms in named variables,
                 with ``dx``-style basis 1-forms and ``*`` acting as wedge
                 on forms.

Grammar (integer literals only; rationals are built by division)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' iexp)?
    atom    := INT | NAME | '(' expr ')' | 'pow' '(' expr ',' ratio ')'
    iexp    := ['-'] INT
    ratio   := ['-'] INT ['/' INT]

``pow(f, p/q)`` is the rational power of a series with constant term 1.
Constraints are equations ``lhs = rhs`` (or ``==``).

Constraints and generators share one evaluator, which takes no order for the
scalar domain and the order of the jets for the series domain.  Constants
stay exact scalars until they meet ``z``; only then are they lifted into
jets, so a constant subexpression of a generator is computed in the field.

Every integer power ``b^e`` is checked against MAX_POWER_BITS and
MAX_POWER_WORK before it is formed, in all three domains.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cyclotomic import CycloElem, euler_phi
from .jets import Jet, jet_mul_inverse, jet_rational_power

__all__ = [
    "ExpressionError",
    "MAX_POWER_BITS",
    "MAX_POWER_WORK",
    "check_power_bits",
    "check_power_work",
    "parse_expression",
    "parse_constraint",
    "eval_scalar",
    "eval_series",
    "scalar_from_string",
    "series_from_string",
]


class ExpressionError(ValueError):
    """Raised for unparseable input or an operation invalid in the domain."""


# the largest |e| * b for a power base^e, b the largest bit length of a
# numerator or denominator among the base's coefficients: a one-coefficient
# base then yields numerators and denominators of at most this many bits
MAX_POWER_BITS = 16384

# the largest |e| * b * s for a power base^e, s the size of the base: 1 for a
# rational, phi(n) for an element of Q(zeta_n), and N phi(n) for a jet of
# order N over Q(zeta_n), the count of the numbers that grow.  At this value
# the slowest bases measured take about 0.1-0.4 s per power (2-vCPU Xeon,
# Python 3.11): (1 + zeta_360)^5461, (3 + z)^1024 at order 256, and
# (1 + (1 + zeta_18) z)^341 at order 256
MAX_POWER_WORK = 2**19


def _height(c) -> int:
    """The largest numerator or denominator of a scalar, or of a coordinate
    or denominator in a jet's row, in absolute value; 1 for the zero row, as
    for a zero coefficient."""
    if isinstance(c, Jet):
        return max((max(den, *(abs(b) for _, b in coords)) for _, coords, den in c.row), default=1)
    if isinstance(c, CycloElem):
        return max(c.den, *map(abs, c.num))
    return max(abs(c.numerator), c.denominator)


def _size(c) -> int:
    """The count of the numbers that a power of c grows: 1 for a rational,
    the phi(n) coordinates of an element of Q(zeta_n), and N phi(n) for a
    jet of order N over Q(zeta_n)."""
    if isinstance(c, Jet):
        return c.order * euler_phi(c.conductor)
    if isinstance(c, CycloElem):
        return euler_phi(c.n)
    return 1


def check_power_bits(coefficients, e: int) -> None:
    """ExpressionError if |e| times the largest bit length b of a numerator
    or denominator among the coefficients of a base is above MAX_POWER_BITS,
    or |e| * b times the largest size of a coefficient is above
    MAX_POWER_WORK.  A jet stands for all of its coefficients."""
    bits = max(map(_height, coefficients), default=0).bit_length()
    if abs(e) * bits > MAX_POWER_BITS:
        raise ExpressionError(
            f"power ^{e} of a base with {bits}-bit coefficients is above the "
            f"limit of {MAX_POWER_BITS} bits"
        )
    check_power_work(coefficients, e)


def check_power_work(coefficients, e: int, base: str = "a base") -> None:
    """ExpressionError if |e| times the largest bit length b of a numerator
    or denominator among the coefficients of a base, times the largest size
    of a coefficient, is above MAX_POWER_WORK.  ``base`` names the base in
    the message."""
    bits = max(map(_height, coefficients), default=0).bit_length()
    size = max(map(_size, coefficients), default=1)
    if abs(e) * bits * size > MAX_POWER_WORK:
        raise ExpressionError(
            f"power ^{e} of {base} of {size} numbers with {bits}-bit coefficients "
            f"is above the limit of {MAX_POWER_WORK} for |e| * bits * numbers"
        )


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ExpressionError(f"cannot tokenize {text!r} at position {pos}")
        pos = m.end()
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            ch = m.group(3)
            if ch.isspace():
                continue
            if ch not in "+-*/^(),":
                raise ExpressionError(f"unexpected character {ch!r} in {text!r}")
            tokens.append((ch, ch))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, object]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionError(
                f"expected {kind!r} but found {tok[1]!r} in {self.text!r}"
            )
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() != "end":
            raise ExpressionError(
                f"trailing input {self.tokens[self.pos][1]!r} in {self.text!r}"
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek() == "-":
            self.next()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            e = self.expect("int")[1]
            node = ("ipow", node, sign * e)
        return node

    def ratio(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        p = self.expect("int")[1]
        q = 1
        if self.peek() == "/":
            self.next()
            q = self.expect("int")[1]
            if not q:
                raise ExpressionError(f"zero denominator in the exponent of pow in {self.text!r}")
        return Fraction(sign * p, q)

    def atom(self):
        kind, value = self.next()
        if kind == "int":
            return ("num", value)
        if kind == "name":
            if value == "pow" and self.peek() == "(":
                self.next()
                base = self.expr()
                self.expect(",")
                r = self.ratio()
                self.expect(")")
                return ("rpow", base, r)
            return ("name", value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {value!r} in {self.text!r}")


def parse_expression(text: str):
    """Parse an expression into an AST of nested tuples."""
    return _Parser(text).parse()


def parse_constraint(text: str):
    """Parse an equation ``lhs = rhs`` (or ``==``) into a pair of ASTs."""
    parts = re.split(r"==|=", text)
    if len(parts) != 2:
        raise ExpressionError(f"a constraint must be a single equation: {text!r}")
    return parse_expression(parts[0]), parse_expression(parts[1])


# -- evaluation --------------------------------------------------------------------


def _evaluate(node, env: dict, order: int | None):
    """Evaluate in the scalar domain (``order`` None: Fraction / CycloElem)
    or in the series domain (jets of the given order in ``z``).

    Constants stay scalars until they meet ``z``: the operators of Jet and
    CycloElem lift them then, so ``z/a`` divides by the scalar ``a``."""
    op = node[0]
    if op == "num":
        return Fraction(node[1])
    if op == "name":
        name = node[1]
        if order is not None and name == "z":
            return Jet.identity(order)
        if name not in env:
            if order is None:
                raise ExpressionError(f"unknown scalar name {name!r}")
            raise ExpressionError(f"unknown name {name!r} in series expression")
        value = env[name]
        # an int stays exact under / and negative powers
        return value if isinstance(value, CycloElem) else Fraction(value)
    if op == "neg":
        return -_evaluate(node[1], env, order)
    if op in ("add", "sub", "mul", "div"):
        a = _evaluate(node[1], env, order)
        b = _evaluate(node[2], env, order)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if order is None:
            return a / b
        if _vanishes_at_zero(b):
            raise ExpressionError(
                "series division needs a divisor with nonzero constant term"
            )
        return a * (jet_mul_inverse(b) if isinstance(b, Jet) else 1 / b)
    if op == "ipow":
        base = _evaluate(node[1], env, order)
        e = node[2]
        check_power_bits((base,), e)
        if e < 0 and order is not None and _vanishes_at_zero(base):
            raise ExpressionError("negative powers need a nonzero constant term")
        return base**e
    if op == "rpow":
        if order is None:
            raise ExpressionError("pow(..., p/q) is only defined for series")
        base = _evaluate(node[1], env, order)
        if not isinstance(base, Jet):
            base = Jet.constant(base, order)
        return jet_rational_power(base, node[2])
    raise ExpressionError(f"bad AST node {op!r}")


def _vanishes_at_zero(value) -> bool:
    """Whether a scalar is 0, or the constant term of a jet is."""
    return value.constant_term.is_zero if isinstance(value, Jet) else value == 0


def eval_scalar(node, env: dict):
    """Evaluate in the scalar domain (Fraction / CycloElem)."""
    return _evaluate(node, env, None)


def scalar_from_string(text: str, env: dict | None = None):
    return eval_scalar(parse_expression(text), env or {})


def eval_series(node, env: dict, order: int) -> Jet:
    """Evaluate in the series domain: jets of the given order in ``z``."""
    value = _evaluate(node, env, order)
    return value if isinstance(value, Jet) else Jet.constant(value, order)


def series_from_string(text: str, env: dict | None = None, order: int = 32) -> Jet:
    return eval_series(parse_expression(text), env or {}, order)
