"""Sparse multivariate polynomials with complex coefficients.

Terms are stored as a map from exponent tuples to coefficients with exact
zeros dropped.  Iteration order everywhere is graded lexicographic,
descending (total degree first, then lexicographic with x0 heaviest), which
keeps printed output and scan tables byte-stable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .numkernel.unipoly import UniPoly


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key: ascending by this gives grlex-descending when reversed."""
    return (sum(exponents), exponents)


class MultiPoly:
    """Polynomial in ``nvars`` variables x0..x{nvars-1}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], complex] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean: dict[tuple[int, ...], complex] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match nvars={nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = complex(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, 0j) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> MultiPoly:
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: complex) -> MultiPoly:
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def monomial(cls, nvars: int, coeff: complex, exponents: Sequence[int]) -> MultiPoly:
        return cls(nvars, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> MultiPoly:
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1.0})

    # -- structure -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def scale(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def constant_value(self) -> complex | None:
        """The constant if the polynomial is constant, else None."""
        if self.is_zero():
            return 0j
        if self.total_degree() == 0:
            return next(iter(self.terms.values()))
        return None

    def sorted_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0j) + c
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MultiPoly:
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, (int, float, complex)):
            return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0j) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = MultiPoly.constant(self.nvars, 1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.to_text()!r})"

    # -- calculus / evaluation ---------------------------------------------
    def partial(self, index: int) -> MultiPoly:
        out: dict[tuple[int, ...], complex] = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            key = tuple(v - 1 if i == index else v for i, v in enumerate(exps))
            out[key] = out.get(key, 0j) + c * e
        return MultiPoly(self.nvars, out)

    def evaluate(self, point: Sequence[complex]) -> complex:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        acc = 0j
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(point, exps):
                if e:
                    term *= v**e
            acc += term
        return acc

    def compose_unipoly(self, polys: Sequence[UniPoly]) -> UniPoly:
        """Substitute x_i -> polys[i]; returns the chart polynomial in t."""
        if len(polys) != self.nvars:
            raise ValueError("substitution list dimension mismatch")
        powers: dict[tuple[int, int], UniPoly] = {}

        def power(i: int, e: int) -> UniPoly:
            key = (i, e)
            if key not in powers:
                powers[key] = polys[i] ** e
            return powers[key]

        acc = UniPoly.zero()
        for exps, c in self.terms.items():
            term = UniPoly.constant(c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            acc = acc + term
        return acc

    # -- printing ------------------------------------------------------------
    def to_text(self) -> str:
        """Canonical text, grlex-descending; parses back to the same terms."""
        if self.is_zero():
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e > 0]
            coeff_txt = _fmt_coeff(c)
            if factors:
                body = "*".join(factors)
                parts.append(f"{coeff_txt}*{body}" if coeff_txt else body)
            else:
                parts.append(coeff_txt or "1")
        return " + ".join(parts)


def _fmt_coeff(c: complex) -> str:
    if c == 1:
        return ""
    if c.imag == 0.0:
        v = c.real
        return str(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
    if c.real == 0.0:
        v = c.imag
        s = str(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return f"{s}i"
    re_ = repr(c.real) if c.real != int(c.real) else str(int(c.real))
    im = abs(c.imag)
    im_s = repr(im) if im != int(im) else str(int(im))
    sign = "+" if c.imag >= 0 else "-"
    return f"({re_}{sign}{im_s}i)"


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, grlex-descending."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    return out


def monomial_text(exponents: Iterable[int]) -> str:
    factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exponents) if e > 0]
    return "*".join(factors) if factors else "1"


@lru_cache(maxsize=None)
def _monomial_plan(nvars: int, degree: int) -> tuple:
    """For each degree k = 1..degree and variable i: the rows of the
    degree-k monomials whose first nonzero exponent is i, and the rows of
    their degree-(k-1) quotients by x_i."""
    plan = []
    prev = {(0,) * nvars: 0}
    for k in range(1, degree + 1):
        monos = monomials_of_degree(nvars, k)
        steps = []
        for i in range(nvars):
            rows = [r for r, e in enumerate(monos) if next(j for j, v in enumerate(e) if v) == i]
            parents = [prev[tuple(v - (j == i) for j, v in enumerate(monos[r]))] for r in rows]
            if rows:
                steps.append((i, np.array(rows), np.array(parents)))
        plan.append((len(monos), steps))
        prev = {e: r for r, e in enumerate(monos)}
    return tuple(plan)


def monomial_charts(polys: Sequence[UniPoly], degree: int, width: int) -> np.ndarray:
    """Chart coefficients of x^e under x_i -> polys[i] for every exponent
    vector e of the given degree, one row each in ``monomials_of_degree``
    order, zero-padded to ``width`` columns.

    Each degree is built from the one below by one multiplication per
    variable, over all rows at once; exact zero coefficients stay exact.
    """
    charts = np.zeros((1, width), dtype=complex)
    charts[0, 0] = 1.0
    for count, steps in _monomial_plan(len(polys), degree):
        nxt = np.zeros((count, width), dtype=complex)
        for i, rows, parents in steps:
            base = charts[parents]
            acc = np.zeros_like(base)
            for k, c in enumerate(polys[i].coeffs):
                acc[:, k:] += c * base[:, : width - k]
            nxt[rows] = acc
        charts = nxt
    return charts
