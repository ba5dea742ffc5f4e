"""Exact irreducible characters of the symmetric group and the Kronecker
coefficient they define.

Characters are computed by the border-strip (Murnaghan-Nakayama) recursion,
which removes each strip straight from the parts, and memoized; everything
stays in arbitrary-precision integers.
This module is the independent ground truth the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .partitions import Partition, conjugate, enumerate_partitions, z_of


class SizeMismatch(ValueError):
    """The partitions of a character or Kronecker query have different sizes."""


class IntegralityViolation(ArithmeticError):
    """n! failed to divide the class-weighted character sum.

    This can only happen through an implementation bug, never through valid
    input, so it is raised loudly instead of being rounded away.
    """


# Provenance labels carried by KroneckerResult.
ORACLE = "Oracle"
TWO_ROW_TWO_ROW = "TwoRowTwoRow"
HOOK_HOOK = "HookHook"
HOOK_TWO_ROW = "HookTwoRow"
DELTA_RULE = "DeltaRule"


@dataclass(frozen=True)
class KroneckerResult:
    """A Kronecker coefficient plus how it was obtained.

    ``moves`` records the symmetry normalization applied before a closed form
    fired: "permute(i,j,k)" means slot s of the normalized triple held entry
    perm[s] of the original, "conjugate(s,t)" that the two named slots were
    then conjugated.  Applying the conjugations again and inverting the
    permutation recovers the original triple.
    """

    gamma: int
    provenance: str
    moves: tuple[str, ...] = ()


_strip_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}


def _char(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on raw part tuples, removing each border
    strip of length rho[0] straight from the parts.  The strip with top row i
    ends on the diagonal foot = lam[i] - i - rho[0], in row j - 1 for the first
    row j below i with lam[j] - j < foot; there is none if a row lies on that
    diagonal.  Rows i+1 .. j-1 move up a row, one cell shorter, and the sign
    is (-1)^(j-i-1)."""
    if not rho:
        return 1 if not lam else 0
    key = (lam, rho)
    cached = _strip_cache.get(key)
    if cached is not None:
        return cached
    strip, rest = rho[0], rho[1:]
    length = len(lam)
    total = 0
    for i in range(length):
        foot = lam[i] - i - strip
        if foot + length - 1 < 0:
            break  # lam[i] - i falls with i, so no lower row has a strip either
        j = i + 1
        while j < length and lam[j] - j > foot:
            j += 1
        if j < length and lam[j] - j == foot:
            continue
        last = foot + j - 1
        moved = tuple(p - 1 for p in lam[i + 1:j] if p > 1)
        term = _char(lam[:i] + moved + ((last,) if last else ()) + lam[j:], rest)
        total += -term if (j - i - 1) % 2 else term
    _strip_cache[key] = total
    return total


def character(lam: Partition, rho: Partition) -> int:
    """Character value of the irreducible indexed by lam at cycle type rho."""
    if lam.n != rho.n:
        raise SizeMismatch(f"|{lam}| = {lam.n} but |{rho}| = {rho.n}")
    return _char(lam.parts, rho.parts)


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible indexed by lam (character at the identity),
    by the hook-length formula n! / prod of the hook lengths."""
    columns = conjugate(lam).parts
    hooks = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            hooks *= row - j + columns[j] - i - 1
    return math.factorial(lam.n) // hooks


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Cycle types of S_n with their class sizes n!/z_rho, in enumeration order."""
    nf = math.factorial(n)
    return tuple((rho.parts, nf // z_of(rho)) for rho in enumerate_partitions(n))


@lru_cache(maxsize=None)
def _char_row(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Character values of lam across all classes of S_n, aligned with _classes(n)."""
    return tuple(_char(lam, rho) for rho, _ in _classes(n))


@lru_cache(maxsize=1)  # the table and sweep loops run nu innermost
def _pair_weights(lam: tuple[int, ...], mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Class size times chi^lam times chi^mu for every class of S_n, aligned
    with _classes(n).  One entry is kept: a run of queries sharing (lam, mu)
    reads one character row each instead of three."""
    return tuple(
        size * a * b
        for (_, size), a, b in zip(_classes(n), _char_row(lam, n), _char_row(mu, n))
    )


def clear_cache() -> None:
    """Drop all memoized character data, the one-entry pair-weight cache
    included; callers sweeping many n may use this between sizes to bound
    memory."""
    _strip_cache.clear()
    _classes.cache_clear()
    _char_row.cache_clear()
    _pair_weights.cache_clear()


def _check_sizes(lam: Partition, mu: Partition, nu: Partition) -> None:
    if not (lam.n == mu.n == nu.n):
        raise SizeMismatch(f"sizes differ: |{lam}|={lam.n}, |{mu}|={mu.n}, |{nu}|={nu.n}")


def kron_oracle(lam: Partition, mu: Partition, nu: Partition) -> KroneckerResult:
    """Kronecker coefficient via the classwise character sum.

    Accumulates sum over cycle types of (class size) * chi^lam * chi^mu * chi^nu
    in exact integers, then divides by n! once; divisibility is checked, not
    assumed, on every call.  The (class size) * chi^lam * chi^mu factor comes
    from _pair_weights, so consecutive calls with the same lam and mu share it.
    """
    _check_sizes(lam, mu, nu)
    n = lam.n
    total = sum(map(mul, _pair_weights(lam.parts, mu.parts, n), _char_row(nu.parts, n)))
    nf = math.factorial(n)
    if total % nf:
        raise IntegralityViolation(
            f"{nf} does not divide {total} for ({lam}; {mu}; {nu})"
        )
    gamma = total // nf
    return KroneckerResult(gamma=gamma, provenance=ORACLE)
