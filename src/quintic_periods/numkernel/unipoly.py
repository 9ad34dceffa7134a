"""Dense univariate polynomials and binary forms over complex doubles.

``UniPoly`` stores coefficients in ascending degree order with exact trailing
zeros trimmed; the zero polynomial is the empty coefficient list.  ``BinaryForm``
is a homogeneous polynomial of declared degree D in two variables (x, y) with
D+1 stored coefficients, ``coeffs[k]`` multiplying ``x^k y^(D-k)``; its chart
``y = 1`` dehomogenization shares the same coefficient list, so zeros at the
point at infinity [1:0] show up as a degree drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _as_complex_tuple(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(map(complex, coeffs))


class UniPoly:
    """Univariate polynomial sum_k coeffs[k] * t^k.

    Exact zero leading coefficients are trimmed on construction; use
    :meth:`trimmed` for tolerance-based trimming of derived data.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        cs = list(map(complex, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> UniPoly:
        return cls(())

    @classmethod
    def one(cls) -> UniPoly:
        return cls((1.0,))

    @classmethod
    def constant(cls, c: complex) -> UniPoly:
        return cls((c,))

    @classmethod
    def variable(cls) -> UniPoly:
        return cls((0.0, 1.0))

    @classmethod
    def from_roots(cls, roots: Sequence[complex], lead: complex = 1.0) -> UniPoly:
        p = cls.constant(lead)
        for r in roots:
            p = p * cls((-r, 1.0))
        return p

    # -- structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self) -> float:
        """max |coefficient|; every relative tolerance refers to this."""
        return max(map(abs, self.coeffs), default=0.0)

    def trimmed(self, rel_tol: float = 1e-12) -> UniPoly:
        """Drop leading coefficients with |c| <= rel_tol * scale."""
        s = self.scale()
        if s == 0.0:
            return UniPoly.zero()
        cs = list(self.coeffs)
        while cs and abs(cs[-1]) <= rel_tol * s:
            cs.pop()
        return UniPoly(cs)

    def monic(self) -> UniPoly:
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return UniPoly(c / lead for c in self.coeffs)

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other) -> UniPoly:
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return UniPoly(a)

    __radd__ = __add__

    def __neg__(self) -> UniPoly:
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> UniPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> UniPoly:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> UniPoly:
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        if other.degree == 0:
            return UniPoly(c * other.coeffs[0] for c in self.coeffs)
        if self.degree == 0:
            return UniPoly(self.coeffs[0] * c for c in other.coeffs)
        out = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
        return UniPoly(out.tolist())

    __rmul__ = __mul__

    def __truediv__(self, other) -> UniPoly:
        if isinstance(other, UniPoly):
            if other.degree != 0:
                raise ZeroDivisionError("UniPoly division only by nonzero constants")
            other = other.coeffs[0]
        return UniPoly(c / other for c in self.coeffs)

    def __pow__(self, n: int) -> UniPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("UniPoly exponent must be a nonnegative integer")
        out = UniPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- calculus / evaluation ------------------------------------------
    def derivative(self) -> UniPoly:
        return UniPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __call__(self, t):
        """Horner evaluation; accepts scalars or numpy arrays."""
        if isinstance(t, np.ndarray):
            out = np.zeros_like(t, dtype=complex)
            for c in reversed(self.coeffs):
                out = out * t + c
            return out
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def shifted(self, t0: complex) -> UniPoly:
        """Taylor shift: returns q with q(t) = p(t + t0).

        Synthetic Horner shifts, numerically stable for the small degrees
        used here.
        """
        cs = list(self.coeffs)
        n = len(cs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                cs[j] += t0 * cs[j + 1]
        return UniPoly(cs)

    def reversed_coeffs(self) -> UniPoly:
        """t^deg * p(1/t); used for the chart at infinity."""
        return UniPoly(tuple(reversed(self.coeffs)))

    def vanishing_order(self, t0: complex, rel_tol: float = 1e-9) -> int:
        """Order of vanishing at t0, judged against the shifted scale."""
        if self.is_zero():
            return -1
        sh = self.shifted(t0)
        s = sh.scale()
        for k, c in enumerate(sh.coeffs):
            if abs(c) > rel_tol * s:
                return k
        return len(sh.coeffs)


def _coerce(v) -> UniPoly:
    if isinstance(v, UniPoly):
        return v
    if isinstance(v, (int, float, complex)):
        return UniPoly.constant(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to UniPoly")


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous degree-D polynomial in (x, y); coeffs[k] goes with x^k y^(D-k)."""

    degree: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"degree-{self.degree} form needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", _as_complex_tuple(self.coeffs))

    @classmethod
    def from_unipoly(cls, p: UniPoly, degree: int) -> BinaryForm:
        """Homogenize a chart polynomial to the declared degree."""
        if p.degree > degree:
            raise ValueError(f"polynomial degree {p.degree} exceeds form degree {degree}")
        cs = list(p.coeffs) + [0.0] * (degree + 1 - len(p.coeffs))
        return cls(degree, tuple(cs))

    @classmethod
    def constant(cls, c: complex) -> BinaryForm:
        return cls(0, (c,))

    def dehomogenized(self) -> UniPoly:
        """Chart y=1 polynomial in t; same coefficient list."""
        return UniPoly(self.coeffs)

    def chart_infinity(self) -> UniPoly:
        """Chart x=1 polynomial in u = 1/t; the reversed coefficient list."""
        return UniPoly(tuple(reversed(self.coeffs)))

    def scale(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def infinity_order(self, rel_tol: float = 1e-12) -> int:
        """Multiplicity of the zero at [1:0] = degree drop of the chart polynomial."""
        if self.is_zero():
            return self.degree + 1
        return self.degree - self.dehomogenized().trimmed(rel_tol).degree

    def derivative_chart(self) -> UniPoly:
        """t-derivative of the y=1 chart polynomial."""
        return self.dehomogenized().derivative()

    def substituted(self, a: complex, b: complex, c: complex, d: complex) -> BinaryForm:
        """Form composed with the linear substitution (x, y) -> (a x + b y, c x + d y).

        Degree is preserved; this is how PSL(2, C) acts on curve coordinates.
        """
        xs = UniPoly((b, a))  # chart image of x under the substitution, in t
        ys = UniPoly((d, c))
        # powers of the two linear images, then accumulate per monomial
        out = UniPoly.zero()
        xp = [UniPoly.one()]
        yp = [UniPoly.one()]
        for _ in range(self.degree):
            xp.append(xp[-1] * xs)
            yp.append(yp[-1] * ys)
        for k, coeff in enumerate(self.coeffs):
            if coeff == 0:
                continue
            out = out + coeff * (xp[k] * yp[self.degree - k])
        return BinaryForm.from_unipoly(out, self.degree)

    def __mul__(self, scalar: complex) -> BinaryForm:
        return BinaryForm(self.degree, tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__
