"""Expression parser and evaluator for curve/class ingestion.

Grammar (superset of what the config files need)::

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  ('+' | '-')* power
    power   :=  atom ('^' integer)?
    atom    :=  NUMBER | NUMBER 'i' | 'i' | VARIABLE | 'zeta' | 's' | 't'
              | 'root5' '(' expr ')' | '(' expr ')'
    VARIABLE := x0 .. x9

Exponents are integer literals.  ``root5`` is the branched fifth root: plain
evaluation uses the principal branch, while :func:`eval_on_path` continues
every root5 value along the straight segment from s = 0, where it takes the
principal root, which is how multivalued coordinates such as root5(-1-s^5)
stay single valued across sweeps.  :func:`continued_root5` continues the
root of a callable radicand along the same path by the same loop.

There is one evaluator, generic over the value type: feeding
``UniPoly.variable()`` for ``t`` turns a coordinate expression directly into
its chart polynomial, and feeding ``MultiPoly.variable`` for x0..x9 is the
exact polynomial extraction of :func:`expr_to_multipoly`.  Division and
negative exponents are evaluator-only conveniences (needed by symbolic
s-derivatives); on polynomial values they must act on constants.

A tree is compiled once into closures that take the tree's operations in
the order a walk of it would, so values are the same to the bit; trees equal
by value share them.  :func:`eval_on_path` evaluates many trees at one
sample in one call and continues each distinct set of root5 nodes once, so
a family's coordinates and their s-derivatives, which reuse the
coordinates' nodes, share one continuation per sample.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

from ..errors import BranchError, EvaluationError, ParseError
from .unipoly import UniPoly

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>root5|zeta|x\d|[sti])"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[at]!r}", at)
        if m.group("num") is not None:
            tokens.append(Token("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# expression tree


class Expr:
    __slots__ = ()

    @cached_property
    def _compiled(self) -> tuple[_Group, Callable]:
        """This tree compiled (see :func:`_program`), kept with the tree so
        that it is looked up by value once."""
        return _program(self)


@dataclass(frozen=True)
class Num(Expr):
    value: complex


@dataclass(frozen=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Root5(Expr):
    arg: Expr


def _subtrees(e: Expr):
    """Every node of the tree under e, e included, children before parents."""
    if isinstance(e, (Neg, Root5)):
        yield from _subtrees(e.arg)
    elif isinstance(e, BinOp):
        yield from _subtrees(e.left)
        yield from _subtrees(e.right)
    elif isinstance(e, Pow):
        yield from _subtrees(e.base)
    yield e


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text != text:
            pos = tok.pos if tok else len(self.src)
            raise ParseError(f"expected {text!r}", pos)
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            tok = self.peek()
            if tok and tok.kind == "op" and tok.text in "+-":
                self.next()
                e = BinOp(tok.text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            tok = self.peek()
            if tok and tok.kind == "op" and tok.text in "*/":
                self.next()
                e = BinOp(tok.text, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self.next()
            inner = self.factor()
            return Neg(inner) if tok.text == "-" else inner
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.next()
            exp = self._integer()
            return Pow(base, exp)
        return base

    def _integer(self) -> int:
        sign = 1
        tok = self.peek()
        parens = False
        if tok and tok.kind == "op" and tok.text == "(":
            self.next()
            parens = True
            tok = self.peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self.next()
            sign = -1 if tok.text == "-" else 1
            tok = self.peek()
        if tok is None or tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            pos = tok.pos if tok else len(self.src)
            raise ParseError("expected integer exponent", pos)
        self.next()
        if parens:
            self.expect_op(")")
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            text = tok.text
            if text.endswith("i"):
                return Num(complex(0.0, float(text[:-1])))
            return Num(complex(float(text), 0.0))
        if tok.kind == "name":
            if tok.text == "root5":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Root5(arg)
            if tok.text == "i":
                return Num(1j)
            return Sym(tok.text)
        if tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_expression(src: str) -> Expr:
    """Parse expression text.  Raises ParseError with the 0-based offset."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation


def _principal_root5(v: complex) -> complex:
    if v == 0:
        raise BranchError("root5 of zero has no tracked branch")
    if v.imag == 0.0:
        # scrub -0.0 so negative-real radicands use Arg = +pi, not -pi
        v = complex(v.real, 0.0)
    return v ** 0.2


def evaluate(expr: Expr, env: dict, root5_values: dict | None = None):
    """Evaluate with values from env.  A root5 node takes its value from
    ``root5_values`` (node -> value) when it is there, else the principal
    root of its radicand."""
    group, run = expr._compiled
    roots: list = []
    for node, radicand in zip(group.nodes, group.radicands):
        if root5_values is not None and node in root5_values:
            roots.append(root5_values[node])
        else:
            roots.append(_principal_root5(_require_scalar(radicand(env, roots), "root5")))
    return run(env, roots)


class _Group:
    """Root5 nodes continued together, nested ones before the nodes that
    contain them, with their compiled radicands (see :func:`_compile`)."""

    __slots__ = ("nodes", "radicands")

    def __init__(self, nodes: tuple[Root5, ...]):
        index = {node: k for k, node in enumerate(nodes)}
        self.nodes = nodes
        self.radicands = tuple(_compile(node.arg, index) for node in nodes)


# trees equal by value share one compiled program, and node sets one group
@lru_cache(maxsize=256)
def _group(nodes: tuple[Root5, ...]) -> _Group:
    return _Group(nodes)


@lru_cache(maxsize=256)
def _program(tree: Expr) -> tuple[_Group, Callable]:
    """The group of the tree's distinct root5 nodes and the compiled tree."""
    nodes = tuple(dict.fromkeys(e for e in _subtrees(tree) if isinstance(e, Root5)))
    return _group(nodes), _compile(tree, {node: k for k, node in enumerate(nodes)})


def _compile(expr: Expr, index: dict[Root5, int]) -> Callable:
    """``f(env, roots)``: the value of expr with values from env, where root5
    node n takes the value ``roots[index[n]]``.  f performs the operations of
    a walk of the tree in the same order, so its values are the same to the
    bit, without a type test or a table per call."""
    if isinstance(expr, Num):
        v = expr.value
        return lambda env, roots: v
    if isinstance(expr, Sym):
        name = expr.name

        def symbol(env, roots):
            try:
                return env[name]
            except KeyError:
                raise EvaluationError(f"unbound symbol {name!r}") from None

        return symbol
    if isinstance(expr, Root5):
        k = index[expr]
        return lambda env, roots: roots[k]
    if isinstance(expr, Neg):
        f = _compile(expr.arg, index)
        return lambda env, roots: -f(env, roots)
    if isinstance(expr, BinOp):
        f, g = _compile(expr.left, index), _compile(expr.right, index)
        if expr.op == "+":
            return lambda env, roots: f(env, roots) + g(env, roots)
        if expr.op == "-":
            return lambda env, roots: f(env, roots) - g(env, roots)
        if expr.op == "*":
            return lambda env, roots: f(env, roots) * g(env, roots)

        def divide(env, roots):
            a = f(env, roots)
            b = _require_scalar(g(env, roots), "division")
            if b == 0:
                raise EvaluationError("division by zero")
            return a * (1.0 / b)

        return divide
    if isinstance(expr, Pow):
        f, n = _compile(expr.base, index), expr.exponent
        if n >= 0:
            return lambda env, roots: f(env, roots) ** n

        def reciprocal_power(env, roots):
            base = _require_scalar(f(env, roots), "negative exponent")
            if base == 0:
                raise EvaluationError("zero raised to a negative exponent")
            return base**n

        return reciprocal_power
    raise TypeError(f"unknown node {type(expr).__name__}")


def _require_scalar(v, what: str) -> complex:
    if type(v) is complex:
        return v
    if isinstance(v, UniPoly):
        if v.degree <= 0:
            return v.coeffs[0] if v.coeffs else 0j
        raise EvaluationError(f"{what} requires a constant, got a degree-{v.degree} polynomial")
    if hasattr(v, "constant_value"):  # a MultiPoly
        c = v.constant_value()
        if c is None:
            raise EvaluationError(f"{what} requires a constant, got a non-constant polynomial")
        return c
    return complex(v)


# a continuation path is cut into this many equal steps, and a step is
# bisected at most this many times
_PATH_STEPS = 32
_MAX_BISECTIONS = 48


def _continued(radicand_of, count: int, value: complex) -> list[complex]:
    """``count`` fifth roots continued along the segment 0 -> value.

    ``radicand_of(k, sigma, roots)`` is radicand k at sigma, where
    ``roots[:k]`` already hold roots 0..k-1 at sigma (nested roots).  At 0
    every root takes its principal value.  A step is taken only when every
    radicand's argument moves by at most pi/4; otherwise it is bisected.
    A radicand hitting zero, or a step left unresolved, raises BranchError.
    """
    roots, trial = [0j] * count, [0j] * count
    args, trial_args = [0j] * count, [0j] * count
    ks = range(count)
    for k in ks:
        arg = radicand_of(k, 0j, roots)
        if arg == 0:
            raise BranchError("root5 radicand vanishes at the path anchor")
        args[k] = arg
        roots[k] = _principal_root5(arg)
    prev = 0j

    def advance(sigma: complex, depth: int) -> None:
        # trial holds the roots at sigma; they replace roots once all pass
        nonlocal roots, trial, args, trial_args, prev
        for k in ks:
            arg = radicand_of(k, sigma, trial)
            if arg == 0:
                raise BranchError("root5 radicand vanishes on the continuation path")
            ratio = arg / args[k]
            if abs(ratio.imag) > abs(ratio.real) or ratio.real <= 0:
                if depth >= _MAX_BISECTIONS:
                    raise BranchError("branch continuation failed to resolve the path")
                advance(prev + 0.5 * (sigma - prev), depth + 1)
                advance(sigma, depth + 1)
                return
            trial[k] = roots[k] * ratio**0.2
            trial_args[k] = arg
        roots, trial = trial, roots
        args, trial_args = trial_args, args
        prev = sigma

    for step in range(1, _PATH_STEPS + 1):
        advance(value * (step / _PATH_STEPS), 0)
    return roots


def eval_on_path(trees, value: complex, env: dict) -> list:
    """The values of trees, a sequence of expressions, with values from env
    and s = value, every root5 branch continued along 0 -> value in the s
    plane (see :func:`_continued`).

    The root5 nodes of a tree are continued as one set, and trees with the
    same set share its continuation: a coordinate and its s-derivative,
    which reuses the coordinate's nodes, cost one continuation.
    """
    env = dict(env)
    continued: dict[_Group, list] = {}
    out = []
    for tree in trees:
        group, run = tree._compiled
        roots = continued.get(group)
        if roots is None:
            roots = continued[group] = _continue_group(group, env, value)
        env["s"] = value
        out.append(run(env, roots))
    return out


def _continue_group(group: _Group, env: dict, value: complex) -> list:
    """The group's roots continued along 0 -> value; env["s"] is moved."""
    radicands = group.radicands
    if not radicands:
        return []

    def radicand(k: int, sigma: complex, roots: list[complex]) -> complex:
        env["s"] = sigma
        return _require_scalar(radicands[k](env, roots), "root5")

    return _continued(radicand, len(radicands), value)


def continued_root5(radicand_of, value: complex) -> complex:
    """Branch-continued fifth root of radicand_of(sigma) along 0 -> value."""
    return _continued(lambda k, sigma, roots: complex(radicand_of(sigma)), 1, value)[0]


# ---------------------------------------------------------------------------
# symbolic s-derivative (for analytic jets of expression families)


def differentiate(expr: Expr) -> Expr:
    """d(expr)/ds.  root5(g)' = g' * root5(g) / (5 g), valid on any branch."""
    if isinstance(expr, Num):
        return Num(0j)
    if isinstance(expr, Sym):
        return Num(1.0 + 0j) if expr.name == "s" else Num(0j)
    if isinstance(expr, Neg):
        return Neg(differentiate(expr.arg))
    if isinstance(expr, BinOp):
        da = differentiate(expr.left)
        db = differentiate(expr.right)
        if expr.op in "+-":
            return BinOp(expr.op, da, db)
        if expr.op == "*":
            return BinOp("+", BinOp("*", da, expr.right), BinOp("*", expr.left, db))
        num = BinOp("-", BinOp("*", da, expr.right), BinOp("*", expr.left, db))
        return BinOp("/", num, Pow(expr.right, 2))
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return Num(0j)
        db = differentiate(expr.base)
        return BinOp(
            "*",
            BinOp("*", Num(complex(expr.exponent)), Pow(expr.base, expr.exponent - 1)),
            db,
        )
    if isinstance(expr, Root5):
        dg = differentiate(expr.arg)
        num = BinOp("*", dg, expr)
        den = BinOp("*", Num(5.0 + 0j), expr.arg)
        return BinOp("/", num, den)
    raise TypeError(f"unknown node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# exact polynomial extraction


def expr_to_multipoly(expr: Expr, nvars: int, constants: dict[str, complex]):
    """Exact MultiPoly in x0..x{nvars-1}: the expression evaluated with
    x_i -> MultiPoly.variable(nvars, i) and the named constants.

    Non-polynomial constructs (root5, division or negative exponents applied
    to variables, other symbols) raise EvaluationError.
    """
    from ..multipoly import MultiPoly  # deferred: multipoly sits above this package

    if any(isinstance(e, Root5) for e in _subtrees(expr)):
        raise EvaluationError("polynomial extraction: root5 is not polynomial")
    env = {f"x{i}": MultiPoly.variable(nvars, i) for i in range(nvars)}
    env.update(constants)
    value = evaluate(expr, env)
    return value if isinstance(value, MultiPoly) else MultiPoly.constant(nvars, value)
