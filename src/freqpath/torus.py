"""Exact arithmetic on the torus R/QZ.

A point is a canonical residue n/d in [0, Q), held as the two integers n
and d in lowest terms; the norm is the distance to zero, taking values in
[0, Q/2].  Nothing in this module ever touches floating point: every
inequality downstream is tolerance-tight and has to be decided exactly.

The arithmetic is decided on the integers n and d.  One norm test serves
the whole package: `residue_gap(N, D, Q)` is ||N/D||_Q as an unreduced
pair (g, D), and `below((g, D), eps)` decides `g/D < eps` by one
cross-multiplication (the pyramid kernel, `PrePath` and the certificates
cross-multiply inline, against bounds they keep as integer pairs).
`pair_gap` (`scaled_gap` on points) feeds it ||c1*a - c2*b||_Q over
D = d_a*d_b; `nearest_lift` returns the closest lift pair as integer lift
indices and its gap over p1*p2*D, leaving `check_lift_primes` to callers.

Where a value is built:
- A TorusPoint is built once per residue, by its one constructor, from a
  pair already reduced: `reduce_mod` reduces n/d in lowest terms by the
  one integer n mod Q*d, and callers that hold a reduced pair (the merge
  kernel, the lift pair, `pathgraph.path_prepath`) pass it directly.
- A Fraction is built only where a value is handed out as one: a point's
  `value`, a norm from `torus_norm`, and a report row's fields read through
  `pair_property`.  A row keeps its values as pairs in lowest terms, and
  `pair_to_str` writes such a pair as `frac_to_str` writes its Fraction.

Q = 1 is a legal modulus; the "p does not divide Q" condition on prime
lifts is vacuous there.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import attrgetter

from .primes import is_prime

Rational = Fraction | int
# a rational n/d as the integers (n, d), d > 0
Pair = tuple[int, int]


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


# what reading a malformed JSON document can raise (RecursionError: nested
# too deep for json.loads); each reader turns these into its own typed error
MALFORMED = (AttributeError, IndexError, KeyError, RecursionError, TypeError,
             ValueError, ZeroDivisionError)


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


def _as_modulus(m: Modulus | int) -> Modulus:
    return m if isinstance(m, Modulus) else Modulus(m)


@dataclass(frozen=True, slots=True)
class TorusPoint:
    """Canonical residue num/den in [0, Q), in lowest terms with den > 0.

    The constructor takes a pair the caller has already reduced into
    [0, Q) and to lowest terms; `reduce_mod` reduces any rational.  The
    residue is held as two integers; `value` builds its Fraction when read.
    """

    num: int
    den: int
    modulus: Modulus

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def scale(self, c: Rational) -> "TorusPoint":
        return reduce_mod(as_fraction(c) * self.value, self.modulus)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        self._check_same(other)
        return reduce_mod(self.value - other.value, self.modulus)

    def _check_same(self, other: "TorusPoint") -> None:
        if self.modulus.q != other.modulus.q:
            raise TorusError(
                f"modulus mismatch: {self.modulus.q} vs {other.modulus.q}"
            )


def reduce_mod(x: Rational, modulus: Modulus | int) -> TorusPoint:
    """The unique representative of x mod Q in [0, Q).

    For x = n/d in lowest terms it is (n mod Q*d)/d, again in lowest terms.
    """
    x, modulus = as_fraction(x), _as_modulus(modulus)
    return TorusPoint(x.numerator % (modulus.q * x.denominator), x.denominator, modulus)


def lowest_terms(n: int, d: int) -> tuple[int, int]:
    """n/d for d > 0 as the pair Fraction(n, d) holds, by one gcd."""
    g = gcd(n, d)
    return n // g, d // g


def pair_to_str(pair: tuple[int, int]) -> str:
    """A pair from `lowest_terms` written as `frac_to_str` writes its value."""
    return "%d/%d" % pair


def pair_property(name: str) -> property:
    """A read-only property: the Fraction of the pair held in attribute
    `name`, built when read."""
    get = attrgetter(name)
    return property(lambda self: Fraction(*get(self)))


def torus_norm(x: TorusPoint) -> Fraction:
    """Distance from x to 0 in R/QZ: min over integers k of |x - kQ|."""
    return Fraction(min(x.num, x.modulus.q * x.den - x.num), x.den)


def norm_mod(x: Rational, modulus: Modulus | int) -> Fraction:
    """Convenience: torus_norm(reduce_mod(x, modulus))."""
    return torus_norm(reduce_mod(x, modulus))


def residue_gap(n: int, d: int, q: int) -> tuple[int, int]:
    """||n/d||_q for d > 0 as the pair (g, d): with r = n mod q*d the norm
    is min(r, q*d - r)/d."""
    m = q * d
    r = n % m
    return min(r, m - r), d


def below(gap: tuple[int, int], bound: Rational) -> bool:
    """Whether the distance g/D of a gap pair (g, D) is below `bound`."""
    g, d = gap
    return g * bound.denominator < bound.numerator * d


def scaled_gap(c1: int, a: TorusPoint, c2: int, b: TorusPoint) -> tuple[int, int]:
    """||c1*a - c2*b||_Q for integers c1, c2, as a pair (g, D) with norm g/D.

    With a = n1/d1 and b = n2/d2 the difference is (c1*n1*d2 - c2*n2*d1)/D
    with D = d1*d2, reduced mod Q*D by `residue_gap`.  The pair is not
    normalised: `below((g, D), e)` decides `norm < e`, and `Fraction(g, D)`
    is the norm.
    """
    q = a.modulus.q
    if b.modulus.q != q:
        raise TorusError(f"modulus mismatch: {q} vs {b.modulus.q}")
    return pair_gap(c1, (a.num, a.den), c2, (b.num, b.den), q)


def pair_gap(c1: int, a: Pair, c2: int, b: Pair, q: int) -> Pair:
    """`scaled_gap` on residues mod q held as pairs (num, den), den > 0."""
    (n1, d1), (n2, d2) = a, b
    return residue_gap(c1 * n1 * d2 - c2 * n2 * d1, d1 * d2, q)


def check_lift_primes(q: int, p1: int, p2: int) -> None:
    """Raise TorusError unless p1, p2 are distinct primes not dividing q."""
    if p1 == p2:
        raise TorusError("the two primes must be distinct")
    for p in (p1, p2):
        if not is_prime(p):
            raise TorusError(f"{p} is not prime")
        if q % p == 0:
            raise TorusError(f"prime {p} divides the modulus {q}")


def nearest_lift(x: int, m: int, p1: int, p2: int) -> tuple[int, int, int]:
    """The closest lift pair of `closest_lift_pair` in integers: (k1, k2, s),
    with no check on the primes.

    With a1 = n1/d1 and a2 = n2/d2, x = (p2*a2 - p1*a1)*d1*d2 and
    M = Q*d1*d2, the pair is b1 = (a2 + k1*Q)/p1 and b2 = (a1 + k2*Q)/p2,
    and s/(p1*p2*d1*d2) is b1 - b2 taken in [-Q/(2*p1*p2), Q/(2*p1*p2)],
    so |s| measures the torus gap.

    Lifts of a2 by p1 and of a1 by p2 differ by (p2*a2 - p1*a1 + c*Q)/(p1*p2)
    as the integer c ranges over all residues mod p1*p2 (CRT), so the gap
    is minimised at the c that reduces x into (-M/2, M/2].  Two values of c
    tie exactly when that residue sits at M/2; b1 grows with k1, so the
    smaller k1 gives the lexicographically smaller pair.
    """
    w = x % m
    inv_p2 = pow(p2, -1, p1)
    best = None
    for s in (w,) if 2 * w < m else (w - m,) if 2 * w > m else (w, w - m):
        c = (s - x) // m  # exact: s = x + c*M
        k1 = c * inv_p2 % p1
        if best is None or k1 < best[0]:
            best = (k1, (k1 * p2 - c) // p1 % p2, s)
    return best


def closest_lift_pair(
    a1: TorusPoint, a2: TorusPoint, p1: int, p2: int
) -> tuple[TorusPoint, TorusPoint]:
    """Representatives b1 of a2/p1 and b2 of a1/p2 at minimal torus distance.

    The minimum is at most Q/(2*p1*p2).  Ties (only possible at the
    antipode) are broken by the lexicographically smallest pair of
    canonical representatives, so the result is deterministic.  The primes
    must be distinct primes that do not divide Q.
    """
    a1._check_same(a2)
    q = a1.modulus.q
    check_lift_primes(q, p1, p2)
    d1, d2 = a1.den, a2.den
    k1, k2, _s = nearest_lift(p2 * a2.num * d1 - p1 * a1.num * d2, q * d1 * d2, p1, p2)
    m = a1.modulus
    return (
        TorusPoint(*lowest_terms(a2.num + k1 * q * d2, p1 * d2), m),
        TorusPoint(*lowest_terms(a1.num + k2 * q * d1, p2 * d1), m),
    )


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
