"""Exact arithmetic in the real quadratic fields Q(sqrt5) and Q(sqrt2).

Both have narrow class number 1; they carry the degree-2 Petersson side
(the moment identity itself runs over Q and needs no field object).
Elements are stored as exact rational coordinates a + b*omega where omega
generates the ring of integers (omega = (1+sqrt5)/2 resp. sqrt2).
Embeddings are evaluated lazily at caller-specified precision so that
downstream code controls its own cancellation budget.

Narrow class number 1 plus a fundamental unit of norm -1 means every ideal
has a totally positive generator and the totally positive units are exactly
the even powers of the fundamental unit.  All class-group bookkeeping
therefore collapses to element-level arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

__all__ = [
    "FieldDescriptor",
    "FieldElement",
    "get_field",
    "embed",
    "is_totally_positive",
    "totally_positive_units",
]


@dataclass(frozen=True)
class FieldDescriptor:
    """A real quadratic field, fixed by exact integral data.

    ``omega_trace``/``omega_norm`` encode the minimal polynomial
    t^2 - omega_trace*t + omega_norm of omega; ``fundamental_unit`` holds
    the coordinates of eps0, whose norm must be -1.
    """

    key: str
    omega_trace: int
    omega_norm: int
    fundamental_unit: tuple[int, int]

    def __post_init__(self):
        if norm(self.eps0) != -1:
            raise ValueError("only norm -1 fundamental units are supported")

    @property
    def discriminant(self) -> int:
        """d_F, the discriminant of omega's minimal polynomial: 5 and 8."""
        return self.omega_trace * self.omega_trace - 4 * self.omega_norm

    @property
    def eps1(self) -> float:
        """sigma_1(eps0) > 1 in float64: the one float of the fundamental unit."""
        return float(embed(self.eps0, 53)[0])

    def embed_omega(self, prec: int = 53):
        """The two real roots of omega's minimal polynomial, larger first."""
        with mp.workprec(prec + 16):
            r = mp.sqrt(self.discriminant)
            return ((self.omega_trace + r) / 2, (self.omega_trace - r) / 2)

    def element(self, a, b=0) -> "FieldElement":
        return FieldElement(self, Fraction(a), Fraction(b))

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    @property
    def omega(self) -> "FieldElement":
        return self.element(0, 1)

    @property
    def eps0(self) -> "FieldElement":
        return self.element(*self.fundamental_unit)

    @property
    def different_gen(self) -> "FieldElement":
        """A totally positive generator of the different ideal."""
        # sqrt(d_F) times the fundamental unit has norm +d_F and both
        # embeddings positive for the supported fields.
        root = self._sqrt_disc_element()
        cand = root * self.eps0
        if not is_totally_positive(cand):
            cand = -cand
        if not is_totally_positive(cand):
            raise ValueError("no totally positive generator found for the different")
        return cand

    def _sqrt_disc_element(self) -> "FieldElement":
        # element with square d_F: 2*omega - tr(omega) is sqrt(disc of min poly)
        return self.element(-self.omega_trace, 2)


@dataclass(frozen=True)
class FieldElement:
    """Element a + b*omega with exact rational coordinates."""

    field: FieldDescriptor
    a: Fraction
    b: Fraction

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        t, n = self.field.omega_trace, self.field.omega_norm
        # omega^2 = t*omega - n
        a = self.a * other.a - n * self.b * other.b
        b = self.a * other.b + self.b * other.a + t * self.b * other.b
        return FieldElement(self.field, a, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        nrm = norm(other)
        if nrm == 0:
            raise ZeroDivisionError("division by zero field element")
        return self * conj(other) * FieldElement(self.field, Fraction(1, 1) / nrm, Fraction(0))

    def __pow__(self, k: int):
        if k < 0:
            return self.field.one / (self ** (-k))
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return self.field.key == other.field.key and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.field.key, self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a} + {self.b}*w[{self.field.key}]"

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.key != self.field.key:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, Fraction(other), Fraction(0))
        raise TypeError(f"cannot coerce {type(other)} to FieldElement")

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1


def conj(x: FieldElement) -> FieldElement:
    """Galois conjugate."""
    # omega + omega' = t
    return FieldElement(x.field, x.a + x.field.omega_trace * x.b, -x.b)


def trace(x: FieldElement) -> Fraction:
    return 2 * x.a + x.field.omega_trace * x.b


def norm(x: FieldElement) -> Fraction:
    t, n = x.field.omega_trace, x.field.omega_norm
    return x.a * x.a + t * x.a * x.b + n * x.b * x.b


def embed(x: FieldElement, prec: int = 53):
    """Real embeddings (sigma_1(x), sigma_2(x)) to prec bits, sigma_1(omega) largest."""
    with mp.workprec(prec + 16):
        w1, w2 = x.field.embed_omega(prec)
        a = mp.mpf(x.a.numerator) / x.a.denominator
        b = mp.mpf(x.b.numerator) / x.b.denominator
        return (a + b * w1, a + b * w2)


def embed_float(x: FieldElement) -> tuple[float, ...]:
    return tuple(float(v) for v in embed(x, 53))


def is_totally_positive(x: FieldElement) -> bool:
    """True iff every real embedding of x is positive.  Exact (no rounding)."""
    if x.is_zero():
        raise ValueError("zero element")
    # x = a + b*omega is totally positive iff trace and norm of suitable
    # translates are positive: both embeddings > 0 <=> trace > 0 and norm > 0.
    return trace(x) > 0 and norm(x) > 0


def totally_positive_units(field: FieldDescriptor, bound: float) -> list[FieldElement]:
    """All units eta >> 0 with max_j |log sigma_j(eta)| <= log(bound).

    These are eps0^(2t), |t| <= tmax, in ascending order of sigma_1
    (sigma_1(eps0) > 1).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    tmax = int(math.floor((math.log(bound) + 1e-12) / (2 * math.log(field.eps1))))
    pos = [field.eps0 ** (2 * t) for t in range(1, tmax + 1)]
    return [field.one / u for u in reversed(pos)] + [field.one] + pos


# omega = (1+sqrt5)/2, min poly t^2 - t - 1; eps0 = omega
Q_SQRT5 = FieldDescriptor(key="Q_sqrt5", omega_trace=1, omega_norm=-1, fundamental_unit=(0, 1))
# omega = sqrt2, min poly t^2 - 2; eps0 = 1 + sqrt2
Q_SQRT2 = FieldDescriptor(key="Q_sqrt2", omega_trace=0, omega_norm=-2, fundamental_unit=(1, 1))

_FIELDS = {"Q_sqrt5": Q_SQRT5, "Q_sqrt2": Q_SQRT2}


def get_field(key: str) -> FieldDescriptor:
    try:
        return _FIELDS[key]
    except KeyError:
        raise ValueError(f"unknown field {key!r}; choose from {sorted(_FIELDS)}") from None
