import cmath

import pytest

from quintic_periods.catalog import root5_neg1_minus_s5
from quintic_periods.errors import BranchError, EvaluationError, ParseError
from quintic_periods.numkernel.parser import (
    differentiate,
    eval_on_path,
    evaluate,
    expr_to_multipoly,
    parse_expression,
)
from quintic_periods.numkernel.unipoly import UniPoly


def test_monomial_extraction():
    mp = expr_to_multipoly(parse_expression("x1^3*x2^2"), nvars=5)
    assert mp.terms == {(0, 3, 2, 0, 0): 1.0 + 0j}


def test_fermat_quintic_extraction():
    mp = expr_to_multipoly(parse_expression("x0^5+x1^5+x2^5+x3^5+x4^5"), nvars=5)
    assert len(mp.terms) == 5
    assert mp.is_homogeneous() and mp.total_degree() == 5


def test_malformed_power_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1^^2")
    assert err.value.position == 3


def test_empty_input():
    with pytest.raises(ParseError):
        parse_expression("   ")


def test_unknown_character_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 @ 2")
    assert err.value.position == 3


def test_complex_literals_and_i():
    assert evaluate(parse_expression("2+3i"), {}) == 2 + 3j
    assert evaluate(parse_expression("i^2"), {}) == -1 + 0j
    assert evaluate(parse_expression("(1+2i)*(1-2i)"), {}) == 5 + 0j


def test_unary_minus_binding():
    e = parse_expression("-s^5-1")
    assert evaluate(e, {"s": 2.0}) == -33 + 0j


def test_division_and_negative_exponents_evaluate():
    assert evaluate(parse_expression("s/4"), {"s": 2.0}) == 0.5 + 0j
    assert evaluate(parse_expression("s^(-2)"), {"s": 2.0}) == 0.25 + 0j


def test_polynomial_extraction_rejects_nonpolynomial():
    with pytest.raises(EvaluationError):
        expr_to_multipoly(parse_expression("root5(x0)"), nvars=5)
    with pytest.raises(EvaluationError):
        expr_to_multipoly(parse_expression("x0/x1"), nvars=5)
    with pytest.raises(EvaluationError):
        expr_to_multipoly(parse_expression("x0^(-1)"), nvars=5)
    # constants stay fine
    mp = expr_to_multipoly(parse_expression("x0*3/2"), nvars=5)
    assert mp.terms == {(1, 0, 0, 0, 0): 1.5 + 0j}


def test_unipoly_valued_evaluation():
    e = parse_expression("t^2 - s*t + 1")
    v = evaluate(e, {"t": UniPoly.variable(), "s": 2.0})
    assert isinstance(v, UniPoly)
    assert v.coeffs == (1, -2, 1)


def test_root5_requires_constant_radicand_under_t():
    e = parse_expression("root5(t)")
    with pytest.raises(EvaluationError):
        evaluate(e, {"t": UniPoly.variable()})


def test_principal_branch_at_anchor():
    # the radicand at s = 0 is -1 - 0j: the principal root must still read
    # it as Arg = +pi
    e = parse_expression("root5(-1-s^5)")
    val = eval_on_path(e, "s", 0j)
    assert abs(val - cmath.exp(1j * cmath.pi / 5)) < 1e-12


def test_continuation_tracks_across_negative_axis():
    e = parse_expression("root5(-1-s^5)")
    w = eval_on_path(e, "s", 0.3)
    assert abs(w - cmath.exp(1j * cmath.pi / 5) * (1 + 0.3**5) ** 0.2) < 1e-12
    # a full small circle of s values stays on one continuous branch
    prev = eval_on_path(e, "s", 0.25)
    for k in range(1, 13):
        s = 0.25 * cmath.exp(2j * cmath.pi * k / 12)
        cur = eval_on_path(e, "s", s)
        assert abs(cur - prev) < 0.05
        prev = cur


def test_nested_root5_continuous_around_circle():
    # the inner radicand circles -1, across the principal cut; the outer
    # radicand root5(-1-s^5) - 2 crosses it only if the inner branch jumps
    e = parse_expression("root5(root5(-1-s^5) - 2)")
    prev = eval_on_path(e, "s", 0.25)
    for k in range(1, 25):
        s = 0.25 * cmath.exp(2j * cmath.pi * k / 24)
        cur = eval_on_path(e, "s", s)
        inner = eval_on_path(parse_expression("root5(-1-s^5)"), "s", s)
        assert abs(cur**5 - (inner - 2)) < 1e-12
        assert abs(cur - prev) < 0.02
        prev = cur


def test_path_root5_matches_catalog_bit_for_bit():
    e = parse_expression("root5(-1-s^5)")
    for k in range(16):
        s = 0.4 * cmath.exp(2j * cmath.pi * (k + 0.5) / 16)
        assert eval_on_path(e, "s", s) == root5_neg1_minus_s5(s)


def test_branch_error_when_radicand_hits_zero():
    e = parse_expression("root5(s-1)")
    with pytest.raises(BranchError):
        eval_on_path(e, "s", 2.0)  # path 0 -> 2 passes through radicand 0 at s=1


def test_derivative_of_root5_coordinate():
    e = parse_expression("root5(-1-s^5)")
    de = differentiate(e, "s")
    s0 = 0.17 + 0.06j
    w = eval_on_path(e, "s", s0)
    dw = eval_on_path(de, "s", s0)
    # implicit differentiation: w' = -s^4 / w^4
    assert abs(dw - (-(s0**4) / w**4)) < 1e-10


def test_derivative_matches_finite_differences():
    e = parse_expression("(s^2+1)*(s-2i)^3")
    de = differentiate(e, "s")
    s0 = 0.4 - 0.3j
    h = 1e-6
    fd = (evaluate(e, {"s": s0 + h}) - evaluate(e, {"s": s0 - h})) / (2 * h)
    assert abs(evaluate(de, {"s": s0}) - fd) < 1e-8
