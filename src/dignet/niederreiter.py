"""Generating matrices for digital sequences over Z2.

The construction assigns one primitive polynomial per coordinate (the first
coordinate uses p(x) = x) and fills each matrix row with a prefix of the
Laurent expansion of x^(e-offset-1) / p(x)^power, following Niederreiter's
recipe.  Polynomials are plain int bit masks: bit i is the coefficient of
x^i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .gf2 import BitMatrix

__all__ = [
    "GeneratingMatrixSet",
    "poly_mul",
    "poly_divmod",
    "poly_pow",
    "is_irreducible",
    "is_primitive",
    "primitive_polynomials",
    "laurent_expand",
    "build_matrices",
    "save_matrix_set",
    "load_matrix_set",
]


def poly_mul(a: int, b: int) -> int:
    """Product of two polynomial masks over Z2."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_divmod(num: int, den: int) -> tuple[int, int]:
    """Quotient and remainder of polynomial long division over Z2."""
    if den == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dden = den.bit_length() - 1
    quot = 0
    rem = num
    while rem.bit_length() - 1 >= dden and rem:
        shift = rem.bit_length() - 1 - dden
        quot |= 1 << shift
        rem ^= den << shift
    return quot, rem


def poly_pow(a: int, k: int) -> int:
    """a(x)^k over Z2."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    out = 1
    base = a
    while k:
        if k & 1:
            out = poly_mul(out, base)
        base = poly_mul(base, base)
        k >>= 1
    return out


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    return poly_divmod(poly_mul(a, b), mod)[1]


def _poly_powmod(a: int, k: int, mod: int) -> int:
    out = poly_divmod(1, mod)[1]
    base = poly_divmod(a, mod)[1]
    while k:
        if k & 1:
            out = _poly_mulmod(out, base, mod)
        base = _poly_mulmod(base, base, mod)
        k >>= 1
    return out


def _prime_factors(n: int) -> list[int]:
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(p: int) -> bool:
    """Irreducibility over Z2 via the x^(2^k) Frobenius criterion."""
    e = p.bit_length() - 1
    if e <= 0:
        return False
    if e == 1:
        return True
    # x^(2^e) must reduce to x, and x^(2^(e/q)) - x must be coprime to p
    # for every prime divisor q of e.
    if _poly_powmod(2, 1 << e, p) != 2:
        return False
    for q in _prime_factors(e):
        g = _poly_gcd(_poly_powmod(2, 1 << (e // q), p) ^ 2, p)
        if g.bit_length() - 1 > 0:
            return False
    return True


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def is_primitive(p: int) -> bool:
    """True when p is irreducible and x generates the full multiplicative group.

    Requires x to be a unit mod p, so the constant coefficient must be 1.
    """
    e = p.bit_length() - 1
    if e < 1 or not p & 1:
        return False
    if not is_irreducible(p):
        return False
    order = (1 << e) - 1
    if _poly_powmod(2, order, p) != 1:
        return False
    return all(_poly_powmod(2, order // q, p) != 1 for q in _prime_factors(order))


def primitive_polynomials(count: int) -> list[int]:
    """First ``count`` coordinate polynomials.

    The list starts with p(x) = x, then runs through the primitive
    polynomials in order of nondecreasing degree, ties broken by ascending
    integer mask: x, x+1, x^2+x+1, x^3+x+1, x^3+x^2+1, ...
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    out = [0b10]
    degree = 1
    while len(out) < count:
        for mask in range((1 << degree) | 1, 1 << (degree + 1), 2):
            if is_primitive(mask):
                out.append(mask)
                if len(out) == count:
                    return out
        degree += 1
    return out


def laurent_expand(p: int, power: int, offset: int, length: int) -> int:
    """Leading coefficients of x^(e-offset-1) / p(x)^power in powers of 1/x.

    Returns a_1..a_length packed into an int, a_l the coefficient of x^(-l)
    at bit l - 1, computed by
    long division of x^(e-offset-1+length) by p(x)^power.  The quotient q
    then satisfies q * p^power = x^(e-offset-1+length) up to terms of degree
    below e*power.
    """
    e = p.bit_length() - 1
    if e < 1:
        raise ValueError(f"need a polynomial of degree >= 1, got mask {p:#b}")
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    if not 0 <= offset < e:
        raise ValueError(f"offset must lie in [0, {e}), got {offset}")
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    num = 1 << (e - offset - 1 + length)
    quot, _ = poly_divmod(num, poly_pow(p, power))
    bits = 0
    for l in range(1, length + 1):
        bits |= ((quot >> (length - l)) & 1) << (l - 1)
    return bits


@dataclass
class GeneratingMatrixSet:
    """Generating matrices of one digital sequence, with provenance.

    ``alpha`` records the interlacing factor (1 for a plain construction)
    and ``t`` the quality parameter guaranteed by the construction.
    """

    dimension: int
    alpha: int
    t: int
    matrices: list[BitMatrix]
    polynomials: list[int]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if len(self.matrices) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} matrices, got {len(self.matrices)}"
            )
        shapes = {(m.nrows, m.ncols) for m in self.matrices}
        if len(shapes) > 1:
            raise ValueError(f"matrices disagree on shape: {sorted(shapes)}")

    @property
    def rows(self) -> int:
        return self.matrices[0].nrows

    @property
    def cols(self) -> int:
        return self.matrices[0].ncols

    def describe(self) -> str:
        return (
            f"niederreiter(d={self.dimension}, alpha={self.alpha}, "
            f"t={self.t}, rows={self.rows}, cols={self.cols})"
        )

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "alpha": self.alpha,
            "t": self.t,
            "rows": self.rows,
            "cols": self.cols,
            "matrices": [m.to_strings() for m in self.matrices],
            "polynomials": list(self.polynomials),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratingMatrixSet":
        try:
            matrices = [BitMatrix.from_strings(rows) for rows in data["matrices"]]
            gset = cls(
                dimension=int(data["dimension"]),
                alpha=int(data["alpha"]),
                t=int(data["t"]),
                matrices=matrices,
                polynomials=list(data["polynomials"]),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed matrix-set JSON: {exc}") from exc
        if (gset.rows, gset.cols) != (int(data["rows"]), int(data["cols"])):
            raise ValueError("matrix-set JSON shape fields disagree with row data")
        if any(type(p) is not int or p < 0 for p in gset.polynomials):
            raise ValueError("polynomial masks must be nonnegative integers")
        if len(gset.polynomials) != gset.alpha * gset.dimension:
            raise ValueError(
                f"expected alpha*dimension = {gset.alpha * gset.dimension} "
                f"polynomial masks, got {len(gset.polynomials)}"
            )
        return gset


def build_matrices(dimension: int, rows: int, cols: int) -> GeneratingMatrixSet:
    """Generating matrices C_1..C_d of the requested extent.

    Row k of C_j holds the Laurent prefix for p_j at power (k-1) // e_j + 1
    and offset (k-1) mod e_j, which makes every matrix upper triangular with
    ones on the diagonal.  The quality parameter is t = sum_j (e_j - 1).
    """
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix extent must be positive, got {rows}x{cols}")
    polys = primitive_polynomials(dimension)
    matrices = []
    for p in polys:
        e = p.bit_length() - 1
        row_masks = [
            laurent_expand(p, (k - 1) // e + 1, (k - 1) % e, cols)
            for k in range(1, rows + 1)
        ]
        matrices.append(BitMatrix(row_masks, cols))
    t = sum(p.bit_length() - 2 for p in polys)  # degree - 1 per coordinate
    return GeneratingMatrixSet(
        dimension=dimension, alpha=1, t=t, matrices=matrices, polynomials=polys
    )


def save_matrix_set(gset: GeneratingMatrixSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(gset.to_json_dict(), indent=2) + "\n")


def load_matrix_set(path: str | Path) -> GeneratingMatrixSet:
    return GeneratingMatrixSet.from_json_dict(json.loads(Path(path).read_text()))
