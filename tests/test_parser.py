import cmath

import pytest

from quintic_periods.catalog import root5_neg1_minus_s5
from quintic_periods.errors import BranchError, EvaluationError, ParseError
from quintic_periods.numkernel import parser
from quintic_periods.numkernel.parser import (
    BinOp,
    Neg,
    Pow,
    Root5,
    differentiate,
    eval_on_path,
    evaluate,
    expr_to_multipoly,
    parse_expression,
)
from quintic_periods.numkernel.unipoly import UniPoly


def test_monomial_extraction():
    mp = expr_to_multipoly(parse_expression("x1^3*x2^2"), nvars=5, constants={})
    assert mp.terms == {(0, 3, 2, 0, 0): 1.0 + 0j}


def test_fermat_quintic_extraction():
    mp = expr_to_multipoly(parse_expression("x0^5+x1^5+x2^5+x3^5+x4^5"), nvars=5, constants={})
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


def test_evaluation_takes_the_operations_as_written():
    # division is a product with the reciprocal, and constants stay complex
    s = 0.3 - 0.7j
    cases = {
        "s/(2-s)": s * (1.0 / ((2 + 0j) - s)),
        "-1-s^5": -(1 + 0j) - s**5,
        "(s*3i)^(-2) + 0.5*s": (s * 3j) ** -2 + (0.5 + 0j) * s,
    }
    for text, want in cases.items():
        assert repr(evaluate(parse_expression(text), {"s": s})) == repr(want)


def test_polynomial_extraction_rejects_nonpolynomial():
    with pytest.raises(EvaluationError):
        expr_to_multipoly(parse_expression("root5(x0)"), nvars=5, constants={})
    with pytest.raises(EvaluationError):
        expr_to_multipoly(parse_expression("x0/x1"), nvars=5, constants={})
    with pytest.raises(EvaluationError):
        expr_to_multipoly(parse_expression("x0^(-1)"), nvars=5, constants={})
    # constants stay fine
    mp = expr_to_multipoly(parse_expression("x0*3/2"), nvars=5, constants={})
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
    val = eval_on_path([e], 0j, {})[0]
    assert abs(val - cmath.exp(1j * cmath.pi / 5)) < 1e-12


def test_continuation_tracks_across_negative_axis():
    e = parse_expression("root5(-1-s^5)")
    w = eval_on_path([e], 0.3, {})[0]
    assert abs(w - cmath.exp(1j * cmath.pi / 5) * (1 + 0.3**5) ** 0.2) < 1e-12
    # a full small circle of s values stays on one continuous branch
    prev = eval_on_path([e], 0.25, {})[0]
    for k in range(1, 13):
        s = 0.25 * cmath.exp(2j * cmath.pi * k / 12)
        cur = eval_on_path([e], s, {})[0]
        assert abs(cur - prev) < 0.05
        prev = cur


def test_nested_root5_continuous_around_circle():
    # the inner radicand circles -1, across the principal cut; the outer
    # radicand root5(-1-s^5) - 2 crosses it only if the inner branch jumps
    e = parse_expression("root5(root5(-1-s^5) - 2)")
    prev = eval_on_path([e], 0.25, {})[0]
    for k in range(1, 25):
        s = 0.25 * cmath.exp(2j * cmath.pi * k / 24)
        cur = eval_on_path([e], s, {})[0]
        inner = eval_on_path([parse_expression("root5(-1-s^5)")], s, {})[0]
        assert abs(cur**5 - (inner - 2)) < 1e-12
        assert abs(cur - prev) < 0.02
        prev = cur


def test_path_root5_matches_catalog_bit_for_bit():
    e = parse_expression("root5(-1-s^5)")
    for k in range(16):
        s = 0.4 * cmath.exp(2j * cmath.pi * (k + 0.5) / 16)
        assert eval_on_path([e], s, {})[0] == root5_neg1_minus_s5(s)


def test_branch_error_when_radicand_hits_zero():
    e = parse_expression("root5(s-1)")
    with pytest.raises(BranchError):
        eval_on_path([e], 2.0, {})  # path 0 -> 2 passes through radicand 0 at s=1


def test_derivative_of_root5_coordinate():
    e = parse_expression("root5(-1-s^5)")
    de = differentiate(e)
    s0 = 0.17 + 0.06j
    w = eval_on_path([e], s0, {})[0]
    dw = eval_on_path([de], s0, {})[0]
    # implicit differentiation: w' = -s^4 / w^4
    assert abs(dw - (-(s0**4) / w**4)) < 1e-10


def test_derivative_matches_finite_differences():
    e = parse_expression("(s^2+1)*(s-2i)^3")
    de = differentiate(e)
    s0 = 0.4 - 0.3j
    h = 1e-6
    fd = (evaluate(e, {"s": s0 + h}) - evaluate(e, {"s": s0 - h})) / (2 * h)
    assert abs(evaluate(de, {"s": s0}) - fd) < 1e-8


# ---------------------------------------------------------------------------
# one evaluation of many trees against a per-tree reference


def _root5_nodes(e) -> list:
    """The distinct root5 nodes under e, nested ones first."""
    if isinstance(e, (Neg, Root5)):
        inner = _root5_nodes(e.arg)
    elif isinstance(e, BinOp):
        inner = _root5_nodes(e.left) + _root5_nodes(e.right)
    elif isinstance(e, Pow):
        inner = _root5_nodes(e.base)
    else:
        inner = []
    return list(dict.fromkeys(inner + ([e] if isinstance(e, Root5) else [])))


def _reference(tree, value: complex, env: dict, calls: list | None = None):
    """tree at value with its own continuation of its root5 nodes, each
    radicand read by ``evaluate``; every radicand evaluation is appended to
    calls."""
    nodes = _root5_nodes(tree)
    env = dict(env)

    def radicand(k, sigma, roots):
        if calls is not None:
            calls.append(sigma)
        env["s"] = sigma
        return complex(evaluate(nodes[k].arg, env, dict(zip(nodes, roots))))

    roots = parser._continued(radicand, len(nodes), value) if nodes else []
    env["s"] = value
    return evaluate(tree, env, dict(zip(nodes, roots)))


def _with_derivatives(texts: list[str]) -> list:
    trees = [parse_expression(text) for text in texts]
    return trees + [differentiate(e) for e in trees]


ENV = {"t": UniPoly.variable(), "zeta": cmath.exp(0.4j * cmath.pi)}


@pytest.mark.parametrize(
    "texts",
    [
        # two distinct root5 nodes, alone and together in one tree
        ["root5(-1-s^5)*t", "root5(2+s^3) - zeta*t", "root5(-1-s^5) + root5(2+s^3)*t"],
        # a nested root5 next to its inner node
        ["root5(root5(-1-s^5) - 2)*t + s", "root5(-1-s^5)", "1"],
        # the derivative of a zeroth power drops the node
        ["root5(-1-s^5)^0*t + s", "root5(-1-s^5)^0", "s/(2-s)"],
    ],
    ids=["two-nodes", "nested", "dropped-node"],
)
def test_one_evaluation_matches_a_continuation_per_tree(texts):
    trees = _with_derivatives(texts)
    for k in range(6):
        s = 0.35 * cmath.exp(2j * cmath.pi * (k + 0.25) / 6)
        got = eval_on_path(trees, s, ENV)
        assert list(map(repr, got)) == [repr(_reference(e, s, ENV)) for e in trees]


def test_one_evaluation_matches_on_a_path_that_bisects():
    # the radicand passes close to zero, so its argument turns fast there
    # root5(1 + s^2) alone takes the 32 steps, next to the fast node more
    trees = _with_derivatives(["root5(1 + s^2)*t", "root5(s^9 - 0.1) + root5(1 + s^2)"])
    s = cmath.exp(0.02j)
    calls = []
    want = [repr(_reference(e, s, ENV, calls)) for e in trees]
    # more radicand reads than the anchor and the 32 steps per node take
    assert len(calls) > sum(33 * len(_root5_nodes(e)) for e in trees)
    assert list(map(repr, eval_on_path(trees, s, ENV))) == want


def test_a_coordinate_and_its_derivative_share_one_continuation(monkeypatch):
    runs = []
    continued = parser._continued

    def counted(radicand_of, count, value):
        runs.append(count)
        return continued(radicand_of, count, value)

    monkeypatch.setattr(parser, "_continued", counted)
    trees = _with_derivatives(["root5(-1-s^5)", "root5(-1-s^5)*t", "root5(2+s^3)", "s"])
    eval_on_path(trees, 0.2 + 0.1j, ENV)
    # one node set {root5(-1-s^5)} and one {root5(2+s^3)}, each continued once
    assert runs == [1, 1]
