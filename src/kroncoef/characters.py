"""Exact irreducible characters of the symmetric group and the Kronecker
coefficient they define.

Characters are computed by the border-strip (Murnaghan-Nakayama) recursion on
the bead set (abacus) of a shape, held as the bits of one int: row i of an
l-row shape is a bead at position lam_i + l - 1 - i.  Removing a strip of
length r moves one bead down r places onto a free position, with sign -1 to
the number of beads it passes; a few shifts find every such bead, and
``int.bit_count`` gives the sign.  A bead at position 0 stands for a zero part,
so when a bead lands there the trailing run of one-bits is shifted off, which
gives every shape exactly one code.  The recursion runs over whole vectors,
not single classes: V(w, a) holds chi^w at every cycle type of |w| with no
part above a, one signed field per class packed into one int, and
V(w, a) = V(w, a - 1) + (sum over the a-strips of w of +-V(child,
min(a, |w| - a))) << (k * p(|w|, parts <= a - 1)), so each (shape, strip
length) costs a few big-int additions.  The recursion stops at a = 1:
V(w, 1) is the one field f^w, which the hook-length formula gives off the
bead code (``_leaf``), so no chain of 1-strips is walked.  The field width
k depends on n alone (|chi^lam| <= f^lam <= sqrt(n!)).  It is a machine width, 8, 16, 32 or 64
bits, while one fits, and a whole number of bytes past 64, so one decoder,
``_fields``, reads every field at once: with ``array`` at a machine width,
from the bytes otherwise.  V(w, a) does not depend on n, so the memo
``_strip_cache`` holds one dict per width, keyed by shape code, with one
immutable pair (top, V(w, top)) per shape: V(w, c) for c < top is the low
bits of V(w, top), sign-extended, so no shorter vector is kept.  Every size
of that width shares it.  Only whole character rows build vectors:
``_char_row`` picks the width, reaches the memo, builds V(lam, n), drops
lam's own entry, which the row holds all of, and decodes the vector.
Entries are written whole when a frame of the recursion returns and never
changed in place, so the module's functions are safe for concurrent use
without a lock.  The partition counts p(m, parts <= a) that shift and
count the fields come from one table per size, ``_counts(n)``, built in
one pass per a and fetched once per row.

``character(lam, rho)`` answers one class without vectors or the memo: it
walks rho's parts of length 2 or more, largest first, one level per part,
keeping a dict from bead code to signed weight; each level moves every
state's strips of that length by the same bead shift and sign test as the
vector recursion and merges equal children, and the leaves f^w of the
states left give the sum.  Its cost is the strip states it reaches along
rho.

``_class_sizes(n)`` lists |C_rho| = n!/z_rho for each cycle type rho of S_n
in the reverse lexicographic order of every character row, by one loop over
a stack of (largest part, multiplicity) prefixes that carries z and builds
no cycle type; the class table ``_classes(n)`` pairs those sizes with the
part tuples.  Every row ``_char_row`` builds is certified before it is
cached: it must satisfy sum over rho of |C_rho| chi(rho)**2 = n! and
chi(1^n) = f^lam, checked by ``if``, so also under ``python -O``, and a
failure raises ``IntegralityViolation``.  Bead codes are for shapes only.
Everything stays in arbitrary-precision integers.  This module is the
independent ground truth the closed forms are tested against.

``kron_oracle`` answers one triple.  ``kron_oracle_column`` answers one pair
(mu, nu) for a whole list of lambdas, as a verification sweep and a (lambda,
mu) block of the CLI's table need (gamma is symmetric, so the block's pair
takes the first two slots and its nus the list): it packs
chi^lam(rho) for every lambda into one int per class rho, one signed field of
k bits each, and reads every n! * gamma off one big-int class sum with
``_fields``.  gamma is at most the dimension f^lam, itself at most sqrt(n!),
so k depends on n alone: the bit length of n! * (isqrt(n!) + 1) plus 2,
rounded up to a width ``_fields`` reads, and the fields never overlap; the
packed columns are kept for one list of lambdas at a time.  ``clear_cache``
drops every memo and cache of this module.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import NamedTuple

# enumerate_partitions is unused here: the benchmark's tracer binds it (test_bench_bindings.py)
from .partitions import Partition, _partition_tuples, enumerate_partitions


class SizeMismatch(ValueError):
    """The partitions of a character or Kronecker query have different sizes."""


class IntegralityViolation(ArithmeticError):
    """An exact identity of the oracle failed: n! did not divide the
    class-weighted character sum, or a character row failed
    sum |C_rho| chi(rho)**2 = n! or chi(1^n) = f^lam.

    This can only happen through an implementation bug, never through valid
    input, so it is raised loudly instead of being rounded away.
    """


# Provenance labels carried by KroneckerResult.
ORACLE = "Oracle"
TWO_ROW_TWO_ROW = "TwoRowTwoRow"
HOOK_HOOK = "HookHook"
HOOK_TWO_ROW = "HookTwoRow"
DELTA_RULE = "DeltaRule"


class KroneckerResult(NamedTuple):
    """A Kronecker coefficient plus how it was obtained: an immutable
    NamedTuple that unpacks as (gamma, provenance, moves).

    ``moves`` records the symmetry normalization applied before a closed form
    fired: "permute(i,j,k)" means slot s of the normalized triple held entry
    perm[s] of the original, "conjugate(s,t)" that the two named slots were
    then conjugated.  Applying the conjugations again and inverting the
    permutation recovers the original triple.
    """

    gamma: int
    provenance: str
    moves: tuple[str, ...] = ()


_strip_cache: dict[int, dict[int, tuple[int, int]]] = {}


def _code(parts: tuple[int, ...]) -> int:
    """Bead set of a shape as the bits of one int: row i of an l-row shape puts
    a bead at position parts[i] + l - 1 - i.  The empty shape is 0, and bit 0
    is never set, since the lowest bead sits at the last (positive) part."""
    code, shift = 0, len(parts) - 1  # shift is l - 1 - i for row i
    for part in parts:
        code |= 1 << (part + shift)
        shift -= 1
    return code


@lru_cache(maxsize=None)
def _counts(n: int) -> list[list[int]]:
    """The table of p(m, parts <= a), the number of partitions of m with no
    part above a, and so the number of fields of V(w, a) for |w| = m: row m
    holds it for 0 <= a <= m, for every 0 <= m <= n.  It is built in one
    pass per a by p(m, <= a) = p(m, <= a - 1) + p(m - a, <= a): in pass a
    the last entry of row m - a is p(m - a, <= min(a, m - a)), since that
    row gained its entry a earlier in the pass or was complete before it.
    The rows are lists that every caller shares and none changes."""
    counts = [[1]] + [[0] for _ in range(n)]
    for a in range(1, n + 1):
        for m in range(a, n + 1):
            row = counts[m]
            row.append(row[-1] + counts[m - a][-1])
    return counts


def _field_width(bits: int) -> int:
    """bits rounded up to a width _fields reads: 8, 16, 32 or 64 while one of
    those holds bits, since _fields reads these with array, and past 64 a
    whole number of bytes."""
    if bits <= 64:
        return max(8, 1 << (bits - 1).bit_length())
    return -(-bits // 8) * 8


def _width(n: int) -> int:
    """Field width of the character vectors of S_n: |chi^lam(rho)| <= f^lam
    <= isqrt(n!) (the squares of the f^lam sum to n!), plus a sign bit,
    rounded up by _field_width: 8 bits to n = 7, 16 to 12, 32 to 20, 64 to
    33, and whole bytes from n = 34 on."""
    return _field_width(math.isqrt(math.factorial(n)).bit_length() + 1)


def _leaf(w: int, m: int) -> int:
    """V(w, 1) = f^w, the one field of the class 1^m, m = |w|, by the
    hook-length formula read off the bead code w (Frame, Robinson and
    Thrall): the cells of bead b's row are the free positions c < b, and
    each has hook length b - c, so the hook product costs m small
    multiplications."""
    free, hooks = [], 1
    for position, bit in enumerate(f"{w:b}"[::-1]):
        if bit == "0":
            free.append(position)
        else:
            for c in free:
                hooks *= position - c
    return math.factorial(m) // hooks


def _vector(memo: dict[int, tuple[int, int]], counts: list[list[int]], k: int, w: int,
            m: int, a: int) -> int:
    """V(w, a): chi^w at every cycle type of m = |w| with no part above a,
    0 <= a <= m, one signed k-bit field each, in ascending lexicographic
    order from the lowest field.

    The cycle types with parts at most a are those with parts at most a - 1
    followed by the (a, sigma) with sigma a cycle type of m - a with parts at
    most min(a, m - a), so V(w, a) is V(w, a - 1) plus, shifted past its
    p(m, parts <= a - 1) = counts[m][a - 1] fields, the signed sum of
    V(child, min(a, m - a)) over the a-strips of w.  Removing a strip of
    length a moves one bead from a position b >= a to the free position
    b - a, so the beads that can move are w & ~(w << a) & ~((1 << a) - 1);
    the sign is -1 to the number of beads strictly between.  A bead moved to
    position 0 stands for a zero part, so then the trailing run of one-bits
    is shifted off the child (~child & (child + 1) is the lowest free
    position): every shape keeps one code.  Bit 0 of w is never set, so a
    bead landing anywhere else leaves nothing to shift.  The recursion stops
    at strip length 1: a shape's vector starts as V(w, 1) = f^w from _leaf
    (the empty shape's as V(0, 0) = 1), and the strip loop starts at 2.

    memo is the memo of width k and counts a table of _counts covering m,
    which _char_row passes in: memo[w] is one immutable pair
    (top, V(w, top)), written whole when a frame returns, so a
    RecursionError leaves nothing partial behind and threads sharing the
    memo never see an entry change under them (two that race on one shape
    at worst leave the lower top, which is as correct).  Since V(w, top) is
    V(w, a) plus fields above it, V(w, a) for a < top is the low
    B = k * counts[m][a] bits of V(w, top), sign-extended: every field is
    signed and under 2**(k - 1) in size, so V(w, a) lies strictly between
    -2**(B - 1) and 2**(B - 1).  A child is read inline only when its top
    is the length needed; any other read recurses."""
    top, vector = memo.get(w) or (1 if w else 0, _leaf(w, m))
    if a < top:
        half = 1 << k * counts[m][a] - 1
        return ((vector + half) & (2 * half - 1)) - half
    for strip in range(top + 1, a + 1):
        movable = w & ~(w << strip) & ~((1 << strip) - 1)
        rest = m - strip
        cap = strip if strip < rest else rest
        between = (1 << (strip - 1)) - 1
        total = 0
        while movable:
            bead = movable & -movable
            movable ^= bead
            child = w ^ bead ^ (bead >> strip)
            if child & 1:
                child >>= (~child & (child + 1)).bit_length() - 1
            known = memo.get(child)
            if known is not None and known[0] == cap:
                term = known[1]
            else:
                term = _vector(memo, counts, k, child, rest, cap)
            if ((w >> (bead.bit_length() - strip)) & between).bit_count() & 1:
                total -= term
            else:
                total += term
        if total:
            vector += total << k * counts[m][strip - 1]
    memo[w] = a, vector
    return vector


def character(lam: Partition, rho: Partition) -> int:
    """Character value of the irreducible indexed by lam at cycle type rho.

    The Murnaghan-Nakayama rule removes one strip per part of rho, in any
    order: here rho's parts of length 2 or more, largest first, from a dict
    of states, bead code to signed weight, that starts at {code(lam): 1}.
    Part r moves every r-strip of every state (the bead shift, zero-part
    shift and sign of _vector) and merges equal children.  Each state w left
    has one cell per 1-cycle of rho, and those cycles contribute its leaf
    f^w (see _leaf).  Nothing is memoized and nothing recurses, so the cost
    is the strip states reached along rho, and every cycle type is
    answered, however many parts it has."""
    if lam.n != rho.n:
        raise SizeMismatch(f"|{lam}| = {lam.n} but |{rho}| = {rho.n}")
    states, ones = {_code(lam.parts): 1}, rho.parts.count(1)
    for strip in rho.parts[:len(rho.parts) - ones]:
        between = (1 << (strip - 1)) - 1
        children: dict[int, int] = {}
        for w, weight in states.items():
            movable = w & ~(w << strip) & ~((1 << strip) - 1)
            while movable:
                bead = movable & -movable
                movable ^= bead
                child = w ^ bead ^ (bead >> strip)
                if child & 1:
                    child >>= (~child & (child + 1)).bit_length() - 1
                odd = ((w >> (bead.bit_length() - strip)) & between).bit_count() & 1
                children[child] = children.get(child, 0) + (-weight if odd else weight)
        states = children
    return sum(weight * _leaf(w, ones) for w, weight in states.items())


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible indexed by lam (character at the identity),
    by the hook-length formula n! / prod of the hook lengths."""
    return _dimension(lam.parts)


def _dimension(parts: tuple[int, ...]) -> int:
    """f^lam for the shape with these parts, by the hook-length formula of
    dimension, read from the tuple alone: column j has as many cells as
    there are parts above j."""
    columns, height = [], len(parts)
    for j in range(parts[0] if parts else 0):
        while parts[height - 1] <= j:
            height -= 1
        columns.append(height)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + columns[j] - i - 1
    return math.factorial(sum(parts)) // hooks


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    """|C_rho| = n!/z_rho for every cycle type rho of S_n, in enumeration
    (reverse lexicographic) order, without building rho.

    One loop pops items (m, a, q) off a stack: the partitions of m with no
    part above a, after a prefix whose classes have n!/z = q.  With only
    ones left (a < 2 or m = 0) the item is one class, of size q // m!.
    Otherwise it pushes its all-ones tail (m, 1, q) first, then, for each
    largest part j = 2 .. min(a, m) and each number c = 1 .. m // j of copies
    of j, the rest (m - c * j, j - 1, q / (j * 1) / ... / (j * c)): the i-th
    copy of j multiplies z by j * i.  Pushed in that order, the most copies
    of the largest part pop first, so the classes come out in reverse
    lexicographic order, and each size costs one division."""
    factorials = list(accumulate(range(1, n + 1), mul, initial=1))
    sizes: list[int] = []
    stack = [(n, n, factorials[n])]
    while stack:
        m, a, q = stack.pop()
        if a < 2 or not m:
            sizes.append(q // factorials[m])
            continue
        stack.append((m, 1, q))
        for j in range(2, (a if a < m else m) + 1):
            rest, q_run = m, q
            for copies in range(1, m // j + 1):
                rest -= j
                q_run //= j * copies
                stack.append((rest, j - 1, q_run))
    return tuple(sizes)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Cycle types rho of S_n with their class sizes n!/z_rho, in enumeration
    (reverse lexicographic) order."""
    return tuple(zip(_partition_tuples(n), _class_sizes(n)))


@lru_cache(maxsize=None)
def _char_row(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Character values of lam across all classes of S_n, aligned with
    _classes(n): the fields of V(lam, n) (see _vector), read from the top,
    since _classes(n) runs in reverse lexicographic order.

    It picks the width of n, reaches that width's memo, fetches _counts(n),
    builds the vector and decodes it, taking no lock: every memo entry is
    immutable and written whole (see _vector), so threads may share it.
    lam's own entry then leaves the memo: the row holds all of it, and a
    later, larger shape w of the same width reaches lam only as a child,
    whose vector up to |w| - n at most it rebuilds from lam's children,
    which stay.  The row is certified before it is cached (see
    IntegralityViolation)."""
    k, code, counts = _width(n), _code(lam), _counts(n)
    memo = _strip_cache.setdefault(k, {})
    vector = _vector(memo, counts, k, code, n, n)
    memo.pop(code, None)
    row = tuple(_fields(vector, k, counts[n][n]))
    if (sum(map(mul, _class_sizes(n), map(mul, row, row))) != math.factorial(n)
            or row[-1] != _dimension(lam)):
        raise IntegralityViolation(
            f"the character row of {lam} fails sum |C_rho| chi(rho)**2 = {n}! "
            "or chi(1^n) = f^lam"
        )
    return row


@lru_cache(maxsize=1)  # callers run the third shape innermost
def _pair_weights(lam: tuple[int, ...], mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Class size times chi^lam times chi^mu for every class of S_n, aligned
    with _classes(n).  One entry is kept: a run of kron_oracle queries
    sharing (lam, mu) reads one character row each instead of three.
    kron_oracle_column forms it once per call, for its pair."""
    return tuple(map(mul, map(mul, _class_sizes(n), _char_row(lam, n)), _char_row(mu, n)))


def _pack(values: Sequence[int], k: int) -> int:
    """values[i] in field len(values) - 1 - i of one int, values[0] on top,
    each field k bits wide and signed: the int is the sum of
    values[i] << (k * (len(values) - 1 - i)), exactly."""
    packed = 0
    for value in values:
        packed = (packed << k) + value
    return packed


# the array type code of each machine width _fields reads in C, and whether
# the host stores those big-endian fields with their bytes reversed
_TYPECODES = {array(code).itemsize * 8: code for code in "bhiq"}
_BYTESWAP = sys.byteorder == "little"


def _fields(packed: int, k: int, count: int) -> list[int]:
    """The count signed k-bit fields of packed, k a multiple of 8, top field
    first; the inverse of _pack when every field lies in
    [-2**(k-1), 2**(k-1)).  Adding 2**(k-1) to every field makes each one
    nonnegative, so no field borrows from the next; flipping the top bit of
    each back leaves every field in two's complement, in big-endian bytes.
    At k = 8, 16, 32 or 64 an array of that width reads them all in C (its
    bytes swapped on a little-endian host); a wider k reads each field with
    int.from_bytes."""
    size = k >> 3
    bias = int.from_bytes((b"\x80" + bytes(size - 1)) * count, "big")
    data = ((packed + bias) ^ bias).to_bytes(size * count, "big")
    typecode = _TYPECODES.get(k)
    if typecode is not None:
        fields = array(typecode, data)
        if _BYTESWAP:
            fields.byteswap()
        return fields.tolist()
    from_bytes = int.from_bytes  # one lookup, not one per field
    return [from_bytes(data[i:i + size], "big", signed=True)
            for i in range(0, size * count, size)]


@lru_cache(maxsize=1)  # a sweep worker keeps one share of shapes per n
def _packed_columns(share: tuple[tuple[int, ...], ...], n: int) -> tuple[int, tuple[int, ...]]:
    """Field width k, and chi^lam(rho) for every lam of the share packed into
    one int per class rho of S_n (share[0] in the top field; see _pack),
    aligned with _classes(n).

    k is wide enough for every class sum these columns enter, and depends on
    n alone.  With |chi^lam(rho)| <= f^lam, Cauchy-Schwarz and row
    orthogonality give n! * gamma <= f^lam * n!, so gamma <= f^lam; the sum of
    (f^lam)**2 over lam is n!, so f^lam <= isqrt(n!).  Hence
    0 <= n! * gamma <= n! * isqrt(n!), and k is the bit_length of
    n! * (isqrt(n!) + 1) plus 2, rounded up by _field_width: 64 bits at
    n = 10 and 14, and 96 at n = 20."""
    for parts in share:
        if sum(parts) != n:
            raise SizeMismatch(f"|{parts}| = {sum(parts)} but the pair has size {n}")
    nf = math.factorial(n)
    k = _field_width((nf * (math.isqrt(nf) + 1)).bit_length() + 2)
    rows = [_char_row(lam, n) for lam in share]
    return k, tuple(_pack(column, k) for column in zip(*rows))


def clear_cache() -> None:
    """Drop all memoized character data: the vector memo, the tables of
    partition counts, the class sizes, the class table, the character rows, the
    one-entry pair-weight cache and the one-entry packed columns of
    kron_oracle_column; callers sweeping many n may use this between sizes
    to bound memory."""
    _strip_cache.clear()
    _counts.cache_clear()
    _class_sizes.cache_clear()
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
    carries n! * gamma(lam, mu, nu) in the field of each lam, which _fields
    reads back in the order of lams; k bounds every
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
    for lam, field in zip(lams, _fields(total, k, len(lams))):
        gamma, rest = divmod(field, nf)
        if rest:
            raise IntegralityViolation(
                f"{nf} does not divide {field} for ({lam}; {mu}; {nu})"
            )
        gammas.append(gamma)
    return gammas
