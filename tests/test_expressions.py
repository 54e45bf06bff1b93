from fractions import Fraction

import pytest

from germlin.cyclotomic import zeta
from germlin.expressions import (
    ExpressionError,
    eval_scalar,
    parse_constraint,
    parse_expression,
    scalar_from_string,
    series_from_string,
)
from germlin.jets import Jet, jet_mul_inverse, jet_rational_power

from oracles import geometric_quotient


def test_scalar_arithmetic():
    assert scalar_from_string("3/2 + 1/2") == 2
    assert scalar_from_string("2^-2") == Fraction(1, 4)
    assert scalar_from_string("-(1 - 3)/4") == Fraction(1, 2)
    a = zeta(6)
    assert scalar_from_string("1/(1 - a)", {"a": a}) == a
    assert scalar_from_string("a^6", {"a": a}) == 1


def test_scalar_errors():
    with pytest.raises(ZeroDivisionError):
        scalar_from_string("1/(1 - a)", {"a": Fraction(1)})
    with pytest.raises(ExpressionError):
        scalar_from_string("b + 1", {"a": Fraction(1)})
    with pytest.raises(ExpressionError):
        scalar_from_string("pow(2, 1/2)")
    with pytest.raises(ExpressionError):
        parse_expression("1 +")
    with pytest.raises(ExpressionError):
        parse_expression("(1")
    with pytest.raises(ExpressionError):
        parse_expression("2 @ 3")


def test_constraints():
    lhs, rhs = parse_constraint("a = 1/(1 - a)")
    a = zeta(6)
    assert eval_scalar(lhs, {"a": a}) == eval_scalar(rhs, {"a": a})
    with pytest.raises(ExpressionError):
        parse_constraint("a + 1")
    with pytest.raises(ExpressionError):
        parse_constraint("a = b = c")


def test_series_basic():
    N = 6
    assert series_from_string("z", order=N) == Jet.identity(N)
    assert series_from_string("z + z^2", order=N) == Jet(
        [0, 1, 1, 0, 0, 0, 0], order=N
    )
    assert series_from_string("(1 + z)*(1 - z)", order=3) == Jet([1, 0, -1, 0])
    assert series_from_string("-z^2/2", order=3) == Jet(
        [0, 0, Fraction(-1, 2), 0]
    )
    # constants stay scalars until they meet z: a scalar result is a
    # constant jet, and a constant that cancels keeps its conductor
    assert series_from_string("3", order=5) == Jet.constant(3, 5)
    assert series_from_string("pow(1, 1/2)", order=3) == Jet.constant(1, 3)
    got = series_from_string("a - a + z", {"a": zeta(6)}, order=4)
    assert (got, got.conductor) == (Jet.identity(4), 6)


def test_series_quotients_and_powers():
    N = 8
    a = zeta(6)
    got = series_from_string("z/(a + z)", {"a": a}, order=N)
    assert got == geometric_quotient(a, N)
    radical = series_from_string("z / pow(1 - z^2, 1/2)", order=N)
    manual = Jet.identity(N) * jet_rational_power(
        Jet([1, 0, -1] + [0] * (N - 2), order=N), Fraction(-1, 2)
    )
    assert radical == manual
    inv = series_from_string("(1 - z)^-1", order=4)
    assert inv == jet_mul_inverse(Jet([1, -1, 0, 0, 0]))
    # an int value of a name stays exact under / and negative powers
    got = series_from_string("z/a + a^-2", {"a": 2}, order=3)
    assert got == Jet([Fraction(1, 4), Fraction(1, 2), 0, 0])


def test_series_errors():
    with pytest.raises(ExpressionError):
        series_from_string("1/z", order=4)
    with pytest.raises(ValueError):
        series_from_string("pow(2 + z, 1/2)", order=4)
    with pytest.raises(ExpressionError):
        series_from_string("z^-1", order=4)
    with pytest.raises(ExpressionError):
        series_from_string("w + z", order=4)
    with pytest.raises(ValueError):
        series_from_string("pow(a, 1/2)", {"a": zeta(6)}, order=4)
    # a scalar 0 as divisor or base of a negative power is the series error,
    # not ZeroDivisionError
    with pytest.raises(ExpressionError, match="^series division needs a divisor with nonzero constant term$"):
        series_from_string("z/(2 - 2)", order=4)
    with pytest.raises(ExpressionError, match="^negative powers need a nonzero constant term$"):
        series_from_string("z + 0^-1", order=4)
