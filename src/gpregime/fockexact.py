"""Exact arithmetic for the truncated ladder algebra.

This module owns a number system: matrix entries live in the ring of
rational combinations of square roots of square-free integers, a matrix
being one rational scale, an int pair num / den, times int numerators
keyed by (row, col, radicand). Products of the modified ladder operators
stay inside that ring, so the builders and the per-suite identities of
gpregime.fock, run in this number system, turn each identity into a
literal zero test (the zero matrix stores no entry). Rad holds the terms
of one entry or scalar; all arithmetic is RadMatrix's, in pure Python
ints, with no factoring in a product. Dimension capped at 200.
"""

from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from numbers import Rational

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .fock import (
    NumberSystem,
    algebra,
    identity_defects,
    make_random_coefficients,
)

_EXACT_DIM_CAP = 200


@lru_cache(maxsize=None)
def _split_square(n):
    """Write n = s*s*d with d square-free; return (s, d)."""
    s = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
    return s, n // (s * s)


class Rad:
    """Terms {d: c_d} of sum_d c_d sqrt(d), c_d rational, d square-free.

    A container for the entries RadMatrix.build reads: the arithmetic
    lives in RadMatrix, so Rad only constructs and normalizes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {d: c for d, c in (terms or {}).items() if c != 0}

    @classmethod
    def of(cls, q):
        q = Fraction(q)
        return cls({1: q} if q else None)

    @classmethod
    def sqrt(cls, q):
        q = Fraction(q)
        if q < 0:
            raise InvalidParameterError("negative radicand")
        if q == 0:
            return cls()
        s, d = _split_square(q.numerator * q.denominator)
        return cls({d: Fraction(s, q.denominator)})


# ---------------------------------------------------------------------------
# sparse matrices over the radical ring
# ---------------------------------------------------------------------------

class RadMatrix:
    """(num / den) * entries[row, col, d] sqrt(d): nonzero int numerators
    of gcd 1 and a scale in lowest terms with den > 0, so the zero matrix
    is the one with no entries. A product takes sqrt(d1) sqrt(d2) =
    g sqrt((d1/g)(d2/g)) with g = gcd(d1, d2), square-free again."""

    __slots__ = ("entries", "num", "den")

    def __init__(self, entries, num=1, den=1):
        if not num or 0 in entries.values():
            entries = {k: v for k, v in entries.items() if v and num}
        g = gcd(*entries.values())
        if g > 1:
            entries = {k: v // g for k, v in entries.items()}
        num *= g
        h = gcd(num, den)
        self.entries, self.num, self.den = entries, num // h, den // h

    @classmethod
    def build(cls, vals, rows, cols, space):
        """NumberSystem.matrix; the entries carry all it needs of space."""
        fracs = {(r, c, d): q for v, r, c in zip(vals, rows, cols) for d, q
                 in (v if isinstance(v, Rad) else Rad.of(v)).terms.items()}
        den = lcm(*(q.denominator for q in fracs.values()))
        return cls({k: q.numerator * (den // q.denominator)
                    for k, q in fracs.items()}, 1, den)

    @property
    def is_zero(self):
        return not self.entries

    @property
    def T(self):
        return RadMatrix({(c, r, d): v for (r, c, d), v
                          in self.entries.items()}, self.num, self.den)

    def __add__(self, other):
        if not (self.entries and other.entries):
            return self if self.entries else other
        num, den = gcd(self.num, other.num), lcm(self.den, other.den)
        fp = self.num // num * (den // self.den)
        fq = other.num // num * (den // other.den)
        out = (dict(self.entries) if fp == 1
               else {k: v * fp for k, v in self.entries.items()})
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v * fq
        return RadMatrix(out, num, den)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, c):
        if isinstance(c, Rad):  # a product with c times the identity
            cols = sorted({col for _, col, _ in self.entries})
            return self @ RadMatrix.build([c] * len(cols), cols, cols, None)
        if not isinstance(c, Rational):
            raise TypeError(f"cannot scale an exact matrix by {c!r}")
        return RadMatrix(self.entries, self.num * c.numerator,
                         self.den * c.denominator)

    def __truediv__(self, q):
        return self * (1 / Fraction(q))

    def __matmul__(self, other):
        rows = defaultdict(list)
        for (r, c, d), v in other.entries.items():
            rows[r].append((c, d, v))
        out = defaultdict(int)
        for (r, k, d1), va in self.entries.items():
            for c, d2, vb in rows.get(k, ()):
                g = gcd(d1, d2)
                out[r, c, d1 * d2 // (g * g)] += va * vb * g
        return RadMatrix(out, self.num * other.num, self.den * other.den)


EXACT = NumberSystem(sqrt=Rad.sqrt, matrix=RadMatrix.build)


def _rational(x):
    """x as a Fraction of denominator <= 6; a nonzero x that rounds to 0
    becomes +-1/6, so no coupling drops out of the exact identities."""
    q = Fraction(x).limit_denominator(6)
    return q if q or not x else Fraction(1 if x > 0 else -1, 6)


def make_exact_coefficients(M, seed=0):
    """make_random_coefficients rounded by _rational: zero exactly where
    the float is.

    Equal floats round to equal Fractions, so the symmetries, which the
    float set has exactly, carry over.
    """
    coeff = make_random_coefficients(M, seed=seed)
    rational = np.vectorize(_rational, otypes=[object])
    return replace(coeff, **{k: rational(getattr(coeff, k))
                             for k in ("h", "v", "eta", "nu", "g")})


def verify_exact_identities(space, seed, suites):
    """Run the identities of the given suites, keys of
    fock.identity_defects, in exact arithmetic on a FockSpace of dimension
    at most _EXACT_DIM_CAP.

    Returns {suite: bool}, True meaning every defect of that suite is
    exactly zero in the radical ring; the other suites form nothing.
    """
    if space.dim > _EXACT_DIM_CAP:
        raise ResourceLimitError(
            f"exact mode capped at dimension {_EXACT_DIM_CAP}, "
            f"got {space.dim}")
    defects = identity_defects(algebra(space, EXACT),
                               make_exact_coefficients(space.M, seed=seed))
    return {s: all(d.is_zero for d in defects[s]) for s in suites}
