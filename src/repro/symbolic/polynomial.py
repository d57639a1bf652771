"""Dense univariate polynomials over exact rationals.

:class:`Polynomial` is the workhorse of the symbolic substrate: every
winning probability in the paper restricts, on each breakpoint interval,
to a polynomial in the common threshold ``beta`` with rational
coefficients.  The class supports the full arithmetic needed to build
those polynomials directly from the paper's inclusion-exclusion sums
(addition, multiplication, integer powers, composition, differentiation,
exact division with remainder) plus exact and floating evaluation.

Instances are immutable and normalised (no trailing zero coefficients),
so they hash and compare by value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple, Union

from repro.symbolic.intpoly import integer_row, remainder_sequence
from repro.symbolic.rational import RationalLike, as_fraction

__all__ = ["Polynomial"]

_Operand = Union["Polynomial", int, Fraction, str, float]


class Polynomial:
    """An immutable univariate polynomial with ``Fraction`` coefficients.

    Coefficients are stored densely in increasing-degree order:
    ``Polynomial([a0, a1, a2])`` represents ``a0 + a1*x + a2*x**2``.

    >>> p = Polynomial([1, 0, 3])      # 1 + 3 x^2
    >>> p(Fraction(1, 2))
    Fraction(7, 4)
    >>> p.derivative()
    Polynomial([0, 6])
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: Tuple[Fraction, ...] = tuple(coeffs)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial."""
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        """The constant polynomial 1."""
        return cls((1,))

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        """The constant polynomial *value*."""
        return cls((as_fraction(value),))

    @classmethod
    def x(cls) -> "Polynomial":
        """The identity polynomial ``x``."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coefficient: RationalLike = 1) -> "Polynomial":
        """``coefficient * x**degree``."""
        if degree < 0:
            raise ValueError(f"monomial degree must be >= 0, got {degree}")
        coeffs = [Fraction(0)] * degree + [as_fraction(coefficient)]
        return cls(coeffs)

    @classmethod
    def linear(cls, constant: RationalLike, slope: RationalLike) -> "Polynomial":
        """``constant + slope * x`` -- the building block of the paper's sums."""
        return cls((as_fraction(constant), as_fraction(slope)))

    @classmethod
    def from_roots(cls, roots: Sequence[RationalLike]) -> "Polynomial":
        """Monic polynomial with the given rational roots."""
        result = cls.one()
        for r in roots:
            result = result * cls.linear(-as_fraction(r), 1)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> Tuple[Fraction, ...]:
        """Coefficients in increasing-degree order (normalised)."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self._coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def is_zero(self) -> bool:
        """``True`` for the zero polynomial."""
        return not self._coeffs

    def is_constant(self) -> bool:
        """``True`` when the degree is at most 0."""
        return len(self._coeffs) <= 1

    def coefficient(self, degree: int) -> Fraction:
        """Coefficient of ``x**degree`` (0 when out of range)."""
        if 0 <= degree < len(self._coeffs):
            return self._coeffs[degree]
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, point: RationalLike) -> Fraction:
        """Exact evaluation by Horner's rule."""
        x = as_fraction(point)
        result = Fraction(0)
        for c in reversed(self._coeffs):
            result = result * x + c
        return result

    def evaluate_float(self, point: float) -> float:
        """Floating-point Horner evaluation (fast path for plotting grids)."""
        result = 0.0
        for c in reversed(self._coeffs):
            result = result * point + float(c)
        return result

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: _Operand) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial((as_fraction(value),))

    def __add__(self, other: _Operand) -> "Polynomial":
        other = self._coerce(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __sub__(self, other: _Operand) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: _Operand) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other: _Operand) -> "Polynomial":
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        result = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                result[i + j] += a * b
        return Polynomial(result)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> "Polynomial":
        s = as_fraction(scalar)
        if s == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return Polynomial(c / s for c in self._coeffs)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int):
            raise TypeError("polynomial exponent must be an int")
        if exponent < 0:
            raise ValueError("polynomial exponent must be >= 0")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Exact polynomial division: returns ``(quotient, remainder)``."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        remainder = list(self._coeffs)
        dlead = divisor.leading_coefficient
        ddeg = divisor.degree
        quotient = [Fraction(0)] * max(len(remainder) - ddeg, 0)
        for i in range(len(remainder) - 1, ddeg - 1, -1):
            factor = remainder[i] / dlead
            if factor == 0:
                continue
            quotient[i - ddeg] = factor
            for j, c in enumerate(divisor._coeffs):
                remainder[i - ddeg + j] -= factor * c
        return Polynomial(quotient), Polynomial(remainder[:ddeg] if ddeg > 0 else ())

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[0]

    # ------------------------------------------------------------------
    # Calculus / transforms
    # ------------------------------------------------------------------
    def derivative(self, order: int = 1) -> "Polynomial":
        """The *order*-th derivative (exact)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        poly = self
        for _ in range(order):
            poly = Polynomial(
                poly._coeffs[i] * i for i in range(1, len(poly._coeffs))
            )
        return poly

    def antiderivative(self, constant: RationalLike = 0) -> "Polynomial":
        """An antiderivative with constant term *constant*."""
        coeffs = [as_fraction(constant)]
        coeffs.extend(c / (i + 1) for i, c in enumerate(self._coeffs))
        return Polynomial(coeffs)

    def integrate(self, lower: RationalLike, upper: RationalLike) -> Fraction:
        """Exact definite integral over ``[lower, upper]``."""
        anti = self.antiderivative()
        return anti(upper) - anti(lower)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Polynomial composition ``self(inner(x))`` by Horner's rule."""
        result = Polynomial.zero()
        for c in reversed(self._coeffs):
            result = result * inner + Polynomial.constant(c)
        return result

    def shift(self, offset: RationalLike) -> "Polynomial":
        """Return ``p(x + offset)``."""
        return self.compose(Polynomial.linear(as_fraction(offset), 1))

    def scale_argument(self, factor: RationalLike) -> "Polynomial":
        """Return ``p(factor * x)``."""
        f = as_fraction(factor)
        return Polynomial(c * f**i for i, c in enumerate(self._coeffs))

    def primitive_part(self, keep_sign: bool = False) -> "Polynomial":
        """Scale to integer, content-free coefficients.

        By default the leading coefficient is made positive (the
        classical primitive part); with ``keep_sign=True`` the scaling
        factor is strictly positive, so every evaluation keeps its sign
        -- required when the polynomial participates in a Sturm chain,
        where flipping signs would corrupt the variation counts.  Either
        way the root set is unchanged and coefficient growth stays small.
        """
        if self.is_zero():
            return self
        ints = integer_row(self._coeffs)
        if ints[-1] < 0 and not keep_sign:
            ints = [-v for v in ints]
        return Polynomial(ints)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic polynomial greatest common divisor (Euclid over the integers)."""
        a, b = integer_row(self._coeffs), integer_row(other._coeffs)
        g = remainder_sequence(a, b)[-1] if b else a
        return Polynomial(Fraction(c, g[-1]) for c in g)

    def squarefree_part(self) -> "Polynomial":
        """The radical ``p / gcd(p, p')`` -- same roots, all simple."""
        if self.is_zero() or self.is_constant():
            return self
        g = self.gcd(self.derivative())
        if g.is_constant():
            return self
        return self.divmod(g)[0]

    # ------------------------------------------------------------------
    # Comparison / hashing / rendering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self._coeffs)}])"

    def __str__(self) -> str:
        return self.pretty()

    def pretty(self, variable: str = "x") -> str:
        """Human-readable rendering, highest degree first.

        >>> Polynomial([Fraction(1, 6), 0, Fraction(3, 2)]).pretty("b")
        '3/2*b^2 + 1/6'
        """
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            elif i == 1:
                term = variable if abs(c) == 1 else f"{abs(c)}*{variable}"
            else:
                term = (
                    f"{variable}^{i}" if abs(c) == 1 else f"{abs(c)}*{variable}^{i}"
                )
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
