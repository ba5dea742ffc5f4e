"""Exact irreducible characters of the symmetric group and the Kronecker
coefficient they define.

Characters are computed by the border-strip (Murnaghan-Nakayama) recursion on
the bead set (abacus) of a shape, held as the bits of one int: row i of an
l-row shape is a bead at position lam_i + l - 1 - i.  Removing a strip of
length r moves one bead down r places onto a free position, with sign -1 to
the number of beads it passes; a few shifts find every such bead, and
``int.bit_count`` gives the sign.  A bead at position 0 stands for a zero part,
so the trailing run of one-bits is shifted off after each move, which gives
every shape exactly one code.  Cycle types are held in the same code: the
first part is ``bit_length - bit_count`` and clearing the top bit leaves the
code of the remaining parts.  The recursion never leaves this form: the memo
``_strip_cache`` is keyed by two bead codes (shape, cycle type), the strip
moves of a shape are memoized per strip length in ``_strip_moves``, and
``clear_cache`` drops both.  Everything stays in arbitrary-precision integers.
This module is the independent ground truth the closed forms are tested against.

``kron_oracle`` answers one triple.  ``kron_oracle_column`` answers one pair
(mu, nu) for a whole list of lambdas, as a verification sweep and a (lambda,
mu) block of the CLI's table need (gamma is symmetric, so the block's pair
takes the first two slots and its nus the list): it packs
chi^lam(rho) for every lambda into one int per class rho, one signed field of
k bits each, and reads every n! * gamma off one big-int class sum.  gamma is
at most the dimension f^lam, itself at most sqrt(n!), so k depends on n
alone: the bit length of n! * (isqrt(n!) + 1) plus 2, and the fields never
overlap; the packed columns are kept for one list of lambdas at a time, and
``clear_cache`` drops them too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

# enumerate_partitions is unused here: the benchmark's tracer binds it (test_bench_bindings.py)
from .partitions import Partition, _partition_tuples, conjugate, enumerate_partitions, z_of


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


_strip_cache: dict[tuple[int, int], int] = {}
_strip_moves: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}


def _code(parts: tuple[int, ...]) -> int:
    """Bead set of a shape as the bits of one int: row i of an l-row shape puts
    a bead at position parts[i] + l - 1 - i.  The empty shape is 0, and bit 0
    is never set, since the lowest bead sits at the last (positive) part.

    Cycle types use the same code.  The top bead of rho sits at rho[0] + l - 1,
    so rho[0] is r.bit_length() - r.bit_count(), and clearing that bit leaves
    the code of rho[1:]: its beads keep their positions."""
    code, shift = 0, len(parts) - 1  # shift is l - 1 - i for row i
    for part in parts:
        code |= 1 << (part + shift)
        shift -= 1
    return code


def _moves(w: int, strip: int) -> tuple[tuple[int, int], ...]:
    """(child code, sign) for every border strip of length strip of the shape w,
    memoized in _strip_moves.

    Removing the strip moves one bead from a position b >= strip down to the
    free position b - strip, so the beads that can move are
    w & ~(w << strip) & ~((1 << strip) - 1), and the child is
    w ^ (1 << b) ^ (1 << (b - strip)).  The sign is -1 to the number of beads
    strictly between b - strip and b, the popcount of strip - 1 bits of w.  A
    bead at position 0 stands for a zero part, so the trailing run of one-bits
    is shifted off each child (~child & (child + 1) is the lowest free
    position): every shape keeps one code, and the memo shares sub-shapes
    reached along different routes."""
    between = (1 << (strip - 1)) - 1
    movable = w & ~(w << strip) & ~((1 << strip) - 1)
    moves = []
    while movable:
        bead = movable & -movable
        movable ^= bead
        child = w ^ bead ^ (bead >> strip)
        child >>= (~child & (child + 1)).bit_length() - 1
        foot = bead.bit_length() - strip  # b - strip + 1
        moves.append((child, -1 if ((w >> foot) & between).bit_count() & 1 else 1))
    moves = _strip_moves[(w, strip)] = tuple(moves)
    return moves


def _strip_sum(w: int, r: int) -> int:
    """Murnaghan-Nakayama recursion on the bead sets w of a shape and r of a
    nonempty cycle type (see _code), for a pair not yet in _strip_cache.

    The moves of the first part's strip come from _moves; each child's memo
    entry is read before recursing, and at the last part a child scores its
    sign when it is the empty shape, with no call."""
    top = r.bit_length()
    strip, rest = top - r.bit_count(), r ^ (1 << (top - 1))
    moves = _strip_moves.get((w, strip))
    if moves is None:
        moves = _moves(w, strip)
    total = 0
    if rest:
        for child, sign in moves:
            term = _strip_cache.get((child, rest))
            if term is None:
                term = _strip_sum(child, rest)
            total += sign * term
    else:
        for child, sign in moves:
            if not child:
                total += sign
    _strip_cache[(w, r)] = total
    return total


def _char_code(w: int, r: int) -> int:
    """Character value of the shape with bead code w at the cycle type with
    bead code r, read from the memo or computed by _strip_sum."""
    if not r:
        return 1 if not w else 0
    cached = _strip_cache.get((w, r))
    return _strip_sum(w, r) if cached is None else cached


def character(lam: Partition, rho: Partition) -> int:
    """Character value of the irreducible indexed by lam at cycle type rho.

    The strip recursion takes one level per part of rho, so a rho too long
    for Python's recursion limit (1^1200, say) raises ValueError naming its
    length and n; the memo keeps only complete entries, so later calls are
    unaffected."""
    if lam.n != rho.n:
        raise SizeMismatch(f"|{lam}| = {lam.n} but |{rho}| = {rho.n}")
    try:
        return _char_code(_code(lam.parts), _code(rho.parts))
    except RecursionError:
        raise ValueError(f"cycle type of length {len(rho)} at n = {rho.n} is "
                         "too long for the strip recursion") from None


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
def _classes(n: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Cycle types of S_n with their bead codes (see _code) and class sizes
    n!/z_rho, in enumeration order."""
    nf = math.factorial(n)
    return tuple((rho, _code(rho), nf // z_of(rho)) for rho in _partition_tuples(n))


@lru_cache(maxsize=None)
def _char_row(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Character values of lam across all classes of S_n, aligned with _classes(n)."""
    code = _code(lam)
    return tuple(_char_code(code, r) for _, r, _ in _classes(n))


@lru_cache(maxsize=1)  # callers run the third shape innermost
def _pair_weights(lam: tuple[int, ...], mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Class size times chi^lam times chi^mu for every class of S_n, aligned
    with _classes(n).  One entry is kept: a run of kron_oracle queries
    sharing (lam, mu) reads one character row each instead of three.
    kron_oracle_column forms it once per call, for its pair."""
    return tuple(
        size * a * b
        for (_, _, size), a, b in zip(_classes(n), _char_row(lam, n), _char_row(mu, n))
    )


def _pack(values: Sequence[int], k: int) -> int:
    """values[i] in field i (bits k*i up to k*(i+1)) of one int, each field
    signed: the int is sum of values[i] << (k*i), exactly."""
    packed = 0
    for value in reversed(values):
        packed = (packed << k) + value
    return packed


def _unpack(packed: int, k: int, count: int) -> list[int]:
    """The count signed k-bit fields of packed, lowest first; the inverse of
    _pack when every field lies strictly between -2**(k-1) and 2**(k-1).  A
    field with its top bit set is negative, and taking it off before the
    shift returns its borrow to the field above."""
    mask, top, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    fields = []
    for _ in range(count):
        field = packed & mask
        if field & top:
            field -= full
        fields.append(field)
        packed = (packed - field) >> k
    return fields


@lru_cache(maxsize=1)  # a sweep worker keeps one share of shapes per n
def _packed_columns(share: tuple[tuple[int, ...], ...], n: int) -> tuple[int, tuple[int, ...]]:
    """Field width k, and chi^lam(rho) for every lam of the share packed into
    one int per class rho of S_n (field i holds share[i]; see _pack), aligned
    with _classes(n).

    k is wide enough for every class sum these columns enter, and depends on
    n alone.  With |chi^lam(rho)| <= f^lam, Cauchy-Schwarz and row
    orthogonality give n! * gamma <= f^lam * n!, so gamma <= f^lam; the sum of
    (f^lam)**2 over lam is n!, so f^lam <= isqrt(n!).  Hence
    0 <= n! * gamma <= n! * isqrt(n!), and k is the bit_length of
    n! * (isqrt(n!) + 1) plus 2: 35, 57 and 94 bits at n = 10, 14 and 20."""
    for parts in share:
        if sum(parts) != n:
            raise SizeMismatch(f"|{parts}| = {sum(parts)} but the pair has size {n}")
    nf = math.factorial(n)
    k = (nf * (math.isqrt(nf) + 1)).bit_length() + 2
    rows = [_char_row(lam, n) for lam in share]
    return k, tuple(_pack(column, k) for column in zip(*rows))


def clear_cache() -> None:
    """Drop all memoized character data: the strip memo, the strip-move memo,
    the class table, the character rows, the one-entry pair-weight cache and
    the one-entry packed columns of kron_oracle_column; callers sweeping many
    n may use this between sizes to bound memory."""
    _strip_cache.clear()
    _strip_moves.clear()
    _classes.cache_clear()
    _char_row.cache_clear()
    _pair_weights.cache_clear()
    _packed_columns.cache_clear()


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


def kron_oracle_column(mu: Partition, nu: Partition, lams: Sequence[Partition]) -> list[int]:
    """gamma(lam, mu, nu) for every lam in lams, in order, by the classwise
    character sum of kron_oracle taken for all of them at once.

    The class weights |C_rho| * chi^mu * chi^nu come from _pair_weights once.
    _packed_columns holds chi^lam(rho) for every lam of lams in one signed
    k-bit field of one int per class, so one big-int sum over the classes
    carries n! * gamma(lam, mu, nu) in field i for lams[i]; k bounds every
    such sum (see _packed_columns), so the signed fields never overlap.  The
    columns are kept for one share at a time: a caller running many (mu, nu)
    pairs against the same lams builds them once, as a sweep worker does
    with its share of lambdas and the table with its nus.  Divisibility by
    n! is checked, not assumed, for every lam, as in kron_oracle."""
    if mu.n != nu.n:
        raise SizeMismatch(f"sizes differ: |{mu}|={mu.n}, |{nu}|={nu.n}")
    n = mu.n
    k, columns = _packed_columns(tuple(lam.parts for lam in lams), n)
    total = sum(map(mul, _pair_weights(mu.parts, nu.parts, n), columns))
    nf = math.factorial(n)
    gammas = []
    for lam, field in zip(lams, _unpack(total, k, len(lams))):
        gamma, rest = divmod(field, nf)
        if rest:
            raise IntegralityViolation(
                f"{nf} does not divide {field} for ({lam}; {mu}; {nu})"
            )
        gammas.append(gamma)
    return gammas
