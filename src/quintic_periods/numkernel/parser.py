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
every root5 value along the straight segment from a declared anchor (default
s = 0, anchor value the principal root), which is how multivalued coordinates
such as root5(-1-s^5) stay single valued across sweeps.

Evaluation is generic over the value type: feeding ``UniPoly.variable()`` for
``t`` turns a coordinate expression directly into its chart polynomial.
Division and negative exponents are evaluator-only conveniences (needed by
symbolic s-derivatives); exact MultiPoly extraction rejects them unless they
act on constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

    def free_symbols(self) -> set[str]:
        out: set[str] = set()
        _collect_symbols(self, out)
        return out


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


def _collect_symbols(e: Expr, out: set[str]) -> None:
    if isinstance(e, Sym):
        out.add(e.name)
    elif isinstance(e, Neg):
        _collect_symbols(e.arg, out)
    elif isinstance(e, BinOp):
        _collect_symbols(e.left, out)
        _collect_symbols(e.right, out)
    elif isinstance(e, Pow):
        _collect_symbols(e.base, out)
    elif isinstance(e, Root5):
        _collect_symbols(e.arg, out)


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
    """Evaluate with values from env; root5 uses the principal branch unless
    a continuation table (id(node) -> value) is supplied."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Sym):
        try:
            return env[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound symbol {expr.name!r}") from None
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, env, root5_values)
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, env, root5_values)
        b = evaluate(expr.right, env, root5_values)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        b = _require_scalar(b, "division")
        if b == 0:
            raise EvaluationError("division by zero")
        return a * (1.0 / b)
    if isinstance(expr, Pow):
        base = evaluate(expr.base, env, root5_values)
        if expr.exponent >= 0:
            return base**expr.exponent
        base = _require_scalar(base, "negative exponent")
        if base == 0:
            raise EvaluationError("zero raised to a negative exponent")
        return base**expr.exponent
    if isinstance(expr, Root5):
        if root5_values is not None and id(expr) in root5_values:
            return root5_values[id(expr)]
        arg = _require_scalar(evaluate(expr.arg, env, root5_values), "root5")
        return _principal_root5(arg)
    raise TypeError(f"unknown node {type(expr).__name__}")


def _require_scalar(v, what: str) -> complex:
    if isinstance(v, UniPoly):
        if v.degree <= 0:
            return v.coeffs[0] if v.coeffs else 0j
        raise EvaluationError(f"{what} requires a constant, got a degree-{v.degree} polynomial")
    return complex(v)


def _root5_nodes(expr: Expr) -> list[Root5]:
    out: list[Root5] = []

    def walk(e: Expr):
        if isinstance(e, Root5):
            walk(e.arg)
            out.append(e)
        elif isinstance(e, Neg):
            walk(e.arg)
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Pow):
            walk(e.base)

    walk(expr)
    return out  # inner roots first


# a continuation path is cut into this many equal steps, and a step is
# bisected at most this many times
_PATH_STEPS = 32
_MAX_BISECTIONS = 48


def eval_on_path(
    expr: Expr,
    var: str,
    value: complex,
    env: dict | None = None,
    anchor: complex = 0j,
):
    """Evaluate with every root5 branch continued from the anchor.

    The continuation path is the straight segment anchor -> value in the
    ``var`` plane; at the anchor every root5 takes its principal value.
    Radicand steps whose argument moves by more than pi/4 are bisected;
    failure to resolve (or a radicand hitting zero) raises BranchError.
    """
    env = dict(env or {})
    nodes = _root5_nodes(expr)
    if not nodes:
        env[var] = value
        return evaluate(expr, env)

    branch: dict[int, complex] = {}
    radicand: dict[int, complex] = {}

    # anchor values: principal branch
    env[var] = anchor
    table: dict[int, complex] = {}
    for node in nodes:
        arg = _require_scalar(evaluate(node.arg, env, table), "root5")
        if arg == 0:
            raise BranchError("root5 radicand vanishes at the path anchor")
        radicand[id(node)] = arg
        branch[id(node)] = _principal_root5(arg)
        table[id(node)] = branch[id(node)]

    def advance(sigma: complex, depth: int) -> None:
        # update every root5 value by continuity from the previous sigma
        env[var] = sigma
        table = dict(branch)
        pending: dict[int, complex] = {}
        for node in nodes:
            arg = _require_scalar(evaluate(node.arg, env, table), "root5")
            prev_arg = radicand[id(node)]
            if arg == 0 or prev_arg == 0:
                raise BranchError("root5 radicand vanishes on the continuation path")
            ratio = arg / prev_arg
            if abs(ratio.imag) > abs(ratio.real) or ratio.real <= 0:
                # argument moved by more than pi/4: refine
                if depth >= _MAX_BISECTIONS:
                    raise BranchError("branch continuation failed to resolve the path")
                mid = prev_sigma[0] + 0.5 * (sigma - prev_sigma[0])
                advance(mid, depth + 1)
                advance(sigma, depth + 1)
                return
            new_val = branch[id(node)] * (ratio ** 0.2)
            pending[id(node)] = (arg, new_val)
            table[id(node)] = new_val
        for key, (arg, val) in pending.items():
            radicand[key] = arg
            branch[key] = val
        prev_sigma[0] = sigma

    prev_sigma = [anchor]
    for k in range(1, _PATH_STEPS + 1):
        advance(anchor + (value - anchor) * (k / _PATH_STEPS), 0)

    env[var] = value
    return evaluate(expr, env, dict(branch))


def continued_root5(radicand_of, value: complex, anchor: complex = 0j) -> complex:
    """Branch-continued fifth root of radicand_of(sigma) along anchor -> value."""
    prev = [anchor, complex(radicand_of(anchor))]
    if prev[1] == 0:
        raise BranchError("root5 radicand vanishes at the path anchor")
    val = _principal_root5(prev[1])

    def step(sigma: complex, depth: int) -> None:
        nonlocal val
        arg = complex(radicand_of(sigma))
        if arg == 0:
            raise BranchError("root5 radicand vanishes on the continuation path")
        ratio = arg / prev[1]
        if abs(ratio.imag) > abs(ratio.real) or ratio.real <= 0:
            if depth >= _MAX_BISECTIONS:
                raise BranchError("branch continuation failed to resolve the path")
            mid = prev[0] + 0.5 * (sigma - prev[0])
            step(mid, depth + 1)
            step(sigma, depth + 1)
            return
        val = val * (ratio ** 0.2)
        prev[0] = sigma
        prev[1] = arg

    for k in range(1, _PATH_STEPS + 1):
        step(anchor + (value - anchor) * (k / _PATH_STEPS), 0)
    return val


# ---------------------------------------------------------------------------
# symbolic s-derivative (for analytic jets of expression families)


def differentiate(expr: Expr, var: str) -> Expr:
    """d(expr)/d(var).  root5(g)' = g' * root5(g) / (5 g), valid on any branch."""
    if isinstance(expr, Num):
        return Num(0j)
    if isinstance(expr, Sym):
        return Num(1.0 + 0j) if expr.name == var else Num(0j)
    if isinstance(expr, Neg):
        return Neg(differentiate(expr.arg, var))
    if isinstance(expr, BinOp):
        da = differentiate(expr.left, var)
        db = differentiate(expr.right, var)
        if expr.op in "+-":
            return BinOp(expr.op, da, db)
        if expr.op == "*":
            return BinOp("+", BinOp("*", da, expr.right), BinOp("*", expr.left, db))
        num = BinOp("-", BinOp("*", da, expr.right), BinOp("*", expr.left, db))
        return BinOp("/", num, Pow(expr.right, 2))
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return Num(0j)
        db = differentiate(expr.base, var)
        return BinOp(
            "*",
            BinOp("*", Num(complex(expr.exponent)), Pow(expr.base, expr.exponent - 1)),
            db,
        )
    if isinstance(expr, Root5):
        dg = differentiate(expr.arg, var)
        num = BinOp("*", dg, expr)
        den = BinOp("*", Num(5.0 + 0j), expr.arg)
        return BinOp("/", num, den)
    raise TypeError(f"unknown node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# exact polynomial extraction and canonical printing


def expr_to_multipoly(expr: Expr, nvars: int | None = None, constants: dict[str, complex] | None = None):
    """Exact MultiPoly for a pure polynomial expression in x0..x9.

    Non-polynomial constructs (root5, division or negative exponents applied
    to variables, free s/t) raise EvaluationError.
    """
    from ..multipoly import MultiPoly  # deferred: multipoly sits above this package

    constants = constants or {}

    def build(e: Expr, nv: int) -> MultiPoly:
        if isinstance(e, Num):
            return MultiPoly.constant(nv, e.value)
        if isinstance(e, Sym):
            if e.name in constants:
                return MultiPoly.constant(nv, complex(constants[e.name]))
            if re.fullmatch(r"x\d", e.name):
                idx = int(e.name[1])
                exps = [0] * nv
                exps[idx] = 1
                return MultiPoly.monomial(nv, 1.0, tuple(exps))
            raise EvaluationError(f"symbol {e.name!r} is not polynomial data")
        if isinstance(e, Neg):
            return -build(e.arg, nv)
        if isinstance(e, BinOp):
            a = build(e.left, nv)
            if e.op == "/":
                b = build(e.right, nv)
                c = b.constant_value()
                if c is None or c == 0:
                    raise EvaluationError("polynomial extraction: division by a non-constant")
                return a * (1.0 / c)
            b = build(e.right, nv)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            return a * b
        if isinstance(e, Pow):
            base = build(e.base, nv)
            if e.exponent < 0:
                c = base.constant_value()
                if c is None or c == 0:
                    raise EvaluationError("polynomial extraction: negative exponent on a non-constant")
                return MultiPoly.constant(nv, c**e.exponent)
            return base**e.exponent
        if isinstance(e, Root5):
            raise EvaluationError("polynomial extraction: root5 is not polynomial")
        raise TypeError(f"unknown node {type(e).__name__}")

    if nvars is None:
        idxs = [int(s[1]) for s in expr.free_symbols() if re.fullmatch(r"x\d", s)]
        nvars = (max(idxs) + 1) if idxs else 1
    return build(expr, nvars)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(expr: Expr) -> str:
    """Canonical rendering; parse(to_text(e)) reproduces the tree."""

    def fmt_num(v: complex) -> tuple[str, int]:
        re_, im = v.real, v.imag
        if im == 0.0:
            s = _fmt_float(re_)
            return (s, 5 if re_ >= 0 else 3)
        if re_ == 0.0:
            s = _fmt_float(im) + "i"
            return (s, 5 if im >= 0 else 3)
        sign = "+" if im >= 0 else "-"
        return (f"({_fmt_float(re_)}{sign}{_fmt_float(abs(im))}i)", 5)

    def render(e: Expr) -> tuple[str, int]:
        if isinstance(e, Num):
            return fmt_num(e.value)
        if isinstance(e, Sym):
            return (e.name, 5)
        if isinstance(e, Neg):
            inner, prec = render(e.arg)
            if prec < _PREC["neg"]:
                inner = f"({inner})"
            return (f"-{inner}", _PREC["neg"])
        if isinstance(e, BinOp):
            lp = _PREC[e.op]
            ls, lprec = render(e.left)
            rs, rprec = render(e.right)
            if lprec < lp:
                ls = f"({ls})"
            # -, / are left associative: parenthesize right operands of equal precedence
            if rprec < lp or (rprec == lp and e.op in "-/"):
                rs = f"({rs})"
            elif e.op in "+-" and rs.startswith("-"):
                rs = f"({rs})"
            return (f"{ls}{e.op}{rs}", lp)
        if isinstance(e, Pow):
            bs, bprec = render(e.base)
            if bprec < _PREC["^"] or isinstance(e.base, (Pow, Neg)):
                bs = f"({bs})"
            es = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
            return (f"{bs}^{es}", _PREC["^"])
        if isinstance(e, Root5):
            inner, _ = render(e.arg)
            return (f"root5({inner})", 5)
        raise TypeError(f"unknown node {type(e).__name__}")

    return render(expr)[0]


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)
