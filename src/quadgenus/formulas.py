"""Closed-form genus values for the supported product families.

Everything is computed over exact integers and rationals and asserted to
land on a non-negative integer; nothing here ever touches a float.  Each
function returns a plain int; a value that fails those checks raises an
error naming the formula it came from.  Every power goes through _power,
which refuses one past MAX_POWER_BITS bits before taking it.

Notation used throughout:

    Q(i, 2r)    i-fold Cartesian product of K(2r,2r)
    C(2m)       cycle on 2m vertices, m >= 2
    P(2m)       path on 2m vertices, m >= 1
    M           product of the m values of all cycle/path factors

One correction worth spelling out: the genus of the i-fold product of
K(t,t) is 1 + 2^(j-3) t^j (jt - 4) for j factors.  A widely transcribed
variant prints the last factor as (j - 4); that variant contradicts both
the bipartite quadrilateral bound and the known K(2r,2r) genus already at
j = 2, t = 2 (it yields -3 for the 4-regular torus grid C4 x C4, whose
genus is 1) and at j = 1 it disagrees with (r-1)^2 for K(2r,2r).  The
variant is kept here, private, as a negative control for the identity
test suite; see _cube_genus_as_printed.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .errors import InvalidParameterError, NotApplicableError


def _as_genus(x: Fraction | int, source: str) -> int:
    # Most formulas give an int; the exact type keeps bool on the
    # Fraction path.
    if type(x) is int:
        if x < 0:
            raise InvalidParameterError(
                f"{source}: genus value {x} is negative")
        return x
    frac = Fraction(x)
    if frac.denominator != 1:
        raise InvalidParameterError(
            f"{source}: genus value {frac} is not an integer")
    if frac < 0:
        raise InvalidParameterError(
            f"{source}: genus value {frac} is negative")
    return int(frac)


# Largest power a formula takes, in bits.  Python prints at most 4300
# digits of an int (about 14,300 bits), so every printable genus is still
# computed, and an exponent like 10**11 is refused before it costs memory.
MAX_POWER_BITS = 1 << 15


def _power(base: int, exponent: int) -> int | Fraction:
    """base ** exponent, exact (an int unless exponent < 0); refused,
    before it is taken, when it has more than MAX_POWER_BITS bits (at
    least exponent * (bits(base) - 1))."""
    if abs(exponent) * (abs(base).bit_length() - 1) > MAX_POWER_BITS:
        raise InvalidParameterError(
            f"a power with a {abs(exponent).bit_length()}-bit exponent is "
            f"too large: more than {MAX_POWER_BITS} bits")
    return base ** exponent if exponent >= 0 else Fraction(base) ** exponent


def _check_m_list(m_list: Sequence[int], minimum: int, what: str) -> None:
    if len(m_list) == 0:
        raise InvalidParameterError(f"{what}: need at least one factor")
    for m in m_list:
        if m < minimum:
            raise InvalidParameterError(
                f"{what}: factor parameter {m} below minimum {minimum}")


def ringel_genus(r: int) -> int:
    """Genus of K(2r,2r): (r-1)^2."""
    if r < 1:
        raise InvalidParameterError(f"need r >= 1, got {r}")
    return _as_genus(_power(r - 1, 2), "ringel")


def hypercube_genus(n: int) -> int:
    """Genus of the n-cube, n >= 2: 1 + 2^(n-3) (n-4)."""
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    return _as_genus(1 + _power(2, n - 3) * (n - 4), "hypercube")


def cube_genus(j: int, t: int) -> int:
    """Genus of the j-fold product of K(t,t): 1 + 2^(j-3) t^j (jt - 4).

    Defined for even t with j >= 1, and for t in {1, 3} with j >= 2.
    """
    if t % 2 == 0:
        if t < 2 or j < 1:
            raise InvalidParameterError(
                f"even t needs t >= 2 and j >= 1, got (j={j}, t={t})")
    elif t in (1, 3):
        if j < 2:
            raise NotApplicableError(
                f"odd t={t} needs j >= 2, got j={j}")
    else:
        raise NotApplicableError(
            f"no closed form for odd t={t} outside {{1, 3}}")
    return _as_genus(1 + _power(2, j - 3) * _power(t, j) * (j * t - 4),
                     "cube")


def _cube_genus_as_printed(j: int, t: int) -> Fraction:
    """Negative control: the (j - 4) variant of cube_genus.  Wrong for
    t > 1; exists only so the identity suite can demonstrate that."""
    return 1 + _power(2, j - 3) * _power(t, j) * (j - 4)


def cube_cycle_genus(i: int, r: int, s: int) -> int:
    """Genus of Q(i,2r) x C(2s): 1 + 2^(2i-1) s r^i (ir - 1)."""
    if i < 1 or r < 1 or s < 2:
        raise InvalidParameterError(
            f"need i >= 1, r >= 1, s >= 2, got ({i}, {r}, {s})")
    return _as_genus(1 + _power(2, 2 * i - 1) * s * _power(r, i) * (i * r - 1),
                     "cube_cycle")


def main_cycles_genus(i: int, r: int, m_list: Sequence[int]) -> int:
    """Genus of Q(i,2r) x C(2m_1) x ... x C(2m_j):
    1 + M 2^(2i+j-2) r^i (j + ir - 2)."""
    if i < 1 or r < 1:
        raise InvalidParameterError(f"need i >= 1 and r >= 1, got ({i}, {r})")
    _check_m_list(m_list, 2, "main_cycles")
    j = len(m_list)
    big_m = prod(m_list)
    return _as_genus(
        1 + big_m * _power(2, 2 * i + j - 2) * _power(r, i) * (j + i * r - 2),
        "main_cycles")


def corollary_genus(r: int, m_list: Sequence[int]) -> int:
    """Genus of K(2r,2r) x C(2m_1) x ... x C(2m_j):
    1 + r 2^j M (j + r - 2)."""
    if r < 1:
        raise InvalidParameterError(f"need r >= 1, got {r}")
    _check_m_list(m_list, 2, "corollary")
    j = len(m_list)
    big_m = prod(m_list)
    return _as_genus(1 + r * _power(2, j) * big_m * (j + r - 2), "corollary")


def cube_path_genus(i: int, r: int, s: int) -> int:
    """Genus of Q(i,2r) x P(2s): 1 + 2^(2i-2) r^i (2s(ir - 1) - 1)."""
    if i < 1 or r < 1 or s < 1:
        raise InvalidParameterError(
            f"need i >= 1, r >= 1, s >= 1, got ({i}, {r}, {s})")
    return _as_genus(
        1 + _power(2, 2 * i - 2) * _power(r, i) * (2 * s * (i * r - 1) - 1),
        "cube_path")


def main_paths_genus(i: int, r: int, m_list: Sequence[int]) -> int:
    """Genus of Q(i,2r) x P(2m_1) x ... x P(2m_j):
    1 + 2^(2i+j-3) r^i M (2ir + 2j - sum(1/m_a) - 4)."""
    if i < 1 or r < 1:
        raise InvalidParameterError(f"need i >= 1 and r >= 1, got ({i}, {r})")
    _check_m_list(m_list, 1, "main_paths")
    j = len(m_list)
    big_m = prod(m_list)
    inv = sum((Fraction(1, m) for m in m_list), Fraction(0))
    return _as_genus(
        1 + _power(2, 2 * i + j - 3) * _power(r, i) * big_m
        * (2 * i * r + 2 * j - inv - 4),
        "main_paths")


def white_cycle_genus(m_list: Sequence[int]) -> int:
    """Genus of C(2m_1) x ... x C(2m_j), j >= 2: 1 + 2^(j-2) (j-2) M."""
    _check_m_list(m_list, 2, "white_cycle")
    j = len(m_list)
    if j < 2:
        raise InvalidParameterError(f"need at least 2 cycles, got {j}")
    big_m = prod(m_list)
    return _as_genus(1 + _power(2, j - 2) * (j - 2) * big_m,
                     "white_cycle")


def white_path_genus(m_list: Sequence[int]) -> int:
    """Genus of P(m_1) x ... x P(m_j) for j >= 3 with m_1, m_2, m_3 even:
    1 + (M/4) (j - 2 - sum(1/m_k)).

    Note the paths here are on m_k vertices (not 2 m_k), matching the
    classical statement for products of paths.
    """
    _check_m_list(m_list, 2, "white_path")
    j = len(m_list)
    if j < 3:
        raise InvalidParameterError(f"need at least 3 paths, got {j}")
    for k in range(3):
        if m_list[k] % 2 != 0:
            raise NotApplicableError(
                "the first three path orders must be even")
    big_m = prod(m_list)
    inv = sum((Fraction(1, m) for m in m_list), Fraction(0))
    return _as_genus(1 + Fraction(big_m, 4) * (j - 2 - inv), "white_path")


FORMULAS = {
    "ringel": ringel_genus,
    "hypercube": hypercube_genus,
    "cube": cube_genus,
    "cube_cycle": cube_cycle_genus,
    "cube_path": cube_path_genus,
    "main_cycles": main_cycles_genus,
    "main_paths": main_paths_genus,
    "corollary": corollary_genus,
    "white_cycle": white_cycle_genus,
    "white_path": white_path_genus,
}
