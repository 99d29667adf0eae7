"""Exact arithmetic on the torus R/QZ.

Values are canonical residues in [0, Q) stored as `fractions.Fraction`;
the norm is the distance to zero, taking values in [0, Q/2].  Nothing in
this module ever touches floating point: every inequality downstream is
tolerance-tight and has to be decided exactly.

Q = 1 is a legal modulus; the "p does not divide Q" condition on prime
lifts is vacuous there.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .primes import is_prime, prod

Rational = Fraction | int


class TorusError(ValueError):
    """Violated precondition in torus arithmetic."""


def as_fraction(x: Rational | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return str_to_frac(x)
    raise TorusError(f"not an exact rational: {x!r}")


def frac_to_str(x: Rational) -> str:
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def fields_to_json(obj) -> dict:
    """A dataclass's fields by name, Fractions written as "num/den"."""
    return {name: frac_to_str(v) if isinstance(v, Fraction) else v
            for name, v in vars(obj).items()}


# what reading a malformed JSON document can raise; the instance and record
# readers each turn these into their own typed error
MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError,
             ZeroDivisionError)


def str_to_frac(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


@dataclass(frozen=True)
class Modulus:
    """A positive integer modulus, optionally with its distinct prime factors.

    `factors`, when present, must be distinct primes whose product is q;
    moduli built as products of witness primes carry them so gcd bookkeeping
    stays a set intersection.
    """

    q: int
    factors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 1:
            raise TorusError(f"modulus must be a positive integer, got {self.q!r}")
        if self.factors is not None:
            fs = tuple(self.factors)
            object.__setattr__(self, "factors", fs)
            if len(set(fs)) != len(fs):
                raise TorusError(f"repeated prime in factors {fs}")
            for p in fs:
                if not is_prime(p):
                    raise TorusError(f"{p} in factors is not prime")
            if prod(fs) != self.q:
                raise TorusError(f"factors {fs} do not multiply to {self.q}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.q)

    def __str__(self) -> str:
        return str(self.q)


def _as_modulus(m: Modulus | int) -> Modulus:
    return m if isinstance(m, Modulus) else Modulus(m)


@dataclass(frozen=True)
class TorusPoint:
    """Canonical residue in [0, Q): construct through `reduce_mod`."""

    value: Fraction
    modulus: Modulus

    def __post_init__(self) -> None:
        if not (0 <= self.value < self.modulus.q):
            raise TorusError(f"{self.value} is not canonical mod {self.modulus.q}")

    def scale(self, c: Rational) -> "TorusPoint":
        return reduce_mod(as_fraction(c) * self.value, self.modulus)

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        self._check_same(other)
        return reduce_mod(self.value + other.value, self.modulus)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        self._check_same(other)
        return reduce_mod(self.value - other.value, self.modulus)

    def _check_same(self, other: "TorusPoint") -> None:
        if self.modulus.q != other.modulus.q:
            raise TorusError(
                f"modulus mismatch: {self.modulus.q} vs {other.modulus.q}"
            )

    def __str__(self) -> str:
        return f"{frac_to_str(self.value)} mod {self.modulus.q}"


def reduce_mod(x: Rational, modulus: Modulus | int) -> TorusPoint:
    """The unique representative of x mod Q in [0, Q)."""
    modulus = _as_modulus(modulus)
    x = as_fraction(x)
    q = modulus.q
    return TorusPoint(x - (x / q).__floor__() * q, modulus)


def torus_norm(x: TorusPoint) -> Fraction:
    """Distance from x to 0 in R/QZ: min over integers k of |x - kQ|."""
    q = x.modulus.as_fraction()
    return min(x.value, q - x.value)


def norm_mod(x: Rational, modulus: Modulus | int) -> Fraction:
    """Convenience: torus_norm(reduce_mod(x, modulus))."""
    return torus_norm(reduce_mod(x, modulus))


def signed_residual(x: TorusPoint) -> Fraction:
    """The representative of x in (-Q/2, Q/2]; its absolute value is the norm."""
    q = x.modulus.as_fraction()
    return x.value if 2 * x.value <= q else x.value - q


def lift_roots(alpha: TorusPoint, p: int) -> list[TorusPoint]:
    """The p solutions beta of p*beta = alpha (mod Q), ascending.

    They are alpha/p + k*Q/p for k = 0..p-1; requires p prime and p not
    dividing Q (automatic for Q = 1).
    """
    q = alpha.modulus.q
    if not is_prime(p):
        raise TorusError(f"{p} is not prime")
    if q % p == 0:
        raise TorusError(f"prime {p} divides the modulus {q}")
    step = Fraction(q, p)
    base = alpha.value / p
    return [TorusPoint(base + k * step, alpha.modulus) for k in range(p)]


def _lift_pair_bruteless(
    a1: TorusPoint, a2: TorusPoint, p1: int, p2: int
) -> list[tuple[TorusPoint, TorusPoint]]:
    """Gap-minimizing lift pairs, computed in O(1) instead of scanning p1*p2.

    Lifts b1 of a2 by p1 and b2 of a1 by p2 differ by
    (p2*a2 - p1*a1 + cQ)/(p1*p2) as the integer c ranges over all residues
    mod p1*p2 (CRT), so the torus gap is minimized at the c that reduces
    p2*a2 - p1*a1 into (-Q/2, Q/2].  Two values of c tie exactly when that
    residue sits at Q/2.
    """
    q = a1.modulus.q
    w = reduce_mod(p2 * a2.value - p1 * a1.value, a1.modulus)
    s = signed_residual(w)
    m_frac = (p2 * a2.value - p1 * a1.value - w.value) / q
    if m_frac.denominator != 1:
        raise AssertionError("reduction shift must be an integer")
    m = m_frac.numerator
    shift_frac = (s - w.value) / q
    cs = [shift_frac.numerator]  # shift_frac is an integer by construction
    if 2 * s == q:  # antipodal tie: -Q/2 works as well
        cs.append(cs[0] - 1)
    out = []
    inv_p2 = pow(p2, -1, p1)
    for c in cs:
        k1 = ((c - m) * inv_p2) % p1
        k2_num = k1 * p2 - (c - m)
        k2 = (k2_num // p1) % p2
        b1 = TorusPoint((a2.value + k1 * q) / p1, a1.modulus)
        b2 = TorusPoint((a1.value + k2 * q) / p2, a1.modulus)
        out.append((b1, b2))
    return out


def closest_lift_pair(
    a1: TorusPoint, a2: TorusPoint, p1: int, p2: int
) -> tuple[TorusPoint, TorusPoint]:
    """Representatives b1 of a2/p1 and b2 of a1/p2 at minimal torus distance.

    The minimum is at most Q/(2*p1*p2).  Ties (only possible at the
    antipode) are broken by the lexicographically smallest pair of
    canonical representatives, so the result is deterministic.
    """
    if p1 == p2:
        raise TorusError("the two primes must be distinct")
    a1._check_same(a2)
    for p in (p1, p2):
        if not is_prime(p):
            raise TorusError(f"{p} is not prime")
        if a1.modulus.q % p == 0:
            raise TorusError(f"prime {p} divides the modulus {a1.modulus.q}")
    candidates = _lift_pair_bruteless(a1, a2, p1, p2)
    return min(candidates, key=lambda bb: (bb[0].value, bb[1].value))


def aligned_reals(b1: TorusPoint, b2: TorusPoint) -> tuple[Fraction, Fraction]:
    """Real representatives (a, b) of the two points with |a - b| equal to
    their torus distance; b is shifted by a multiple of Q if wrapping is
    shorter."""
    q = b1.modulus.as_fraction()
    a = b1.value
    best = None
    for t in (0, -1, 1):
        b = b2.value + t * q
        if best is None or abs(a - b) < abs(a - best):
            best = b
    return a, best


def convex_combine(
    a: Rational, b: Rational, w1: Rational, w2: Rational, modulus: Modulus | int
) -> TorusPoint:
    """a - (w2/(w1+w2))*(a - b), reduced mod Q.  Weights must not both vanish."""
    a, b = as_fraction(a), as_fraction(b)
    w1, w2 = as_fraction(w1), as_fraction(w2)
    if w1 + w2 <= 0:
        raise TorusError("weights must have positive sum")
    return reduce_mod(a - (w2 / (w1 + w2)) * (a - b), modulus)


def combine_moduli(
    x: Rational, q1: Modulus | int, q2: Modulus | int, eps: Rational
) -> bool:
    """Checked coprime-modulus combination.

    With q1, q2 coprime and 2*eps < 1: if ||x||_q1 < eps and ||x||_q2 < eps
    then ||x||_{q1*q2} < eps.  The combined bound is *computed*, never
    assumed: the return value is whether ||x||_{q1*q2} < eps holds.
    """
    eps = as_fraction(eps)
    if 2 * eps >= 1:
        raise TorusError(f"need 2*eps < 1, got eps = {eps}")
    n1 = _as_modulus(q1).q
    n2 = _as_modulus(q2).q
    if gcd(n1, n2) != 1:
        raise TorusError(f"moduli {n1}, {n2} share a factor")
    return norm_mod(as_fraction(x), n1 * n2) < eps
