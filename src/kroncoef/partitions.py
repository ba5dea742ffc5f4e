"""Integer partitions and the structural readers (two-row, hook, double hook).

Each Partition carries the class code of its shape and its conjugate, read
once by its constructor.  The three closed formulas that compute routes to
check their shapes' classes from that code and read legs and second rows
from the parts; of the readers they call only double_hook_parts.
two_row_parts and hook_parts serve the Schur evaluations that certify the
formulas, and two_row_parts the all-two-row corollary."""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, Iterator, Sequence


class NegativePart(ValueError):
    """Partition input contained a negative entry."""


class Partition:
    """Weakly decreasing positive integer parts; the empty partition is the
    unique partition of 0.

    The constructor sorts its input and strips zeros, so ``Partition([1, 3, 0, 4])``
    equals ``Partition([4, 3, 1])``.  Parts are read with ``operator.index``, so
    a float or a string raises ``TypeError`` rather than being truncated or
    parsed.  Instances are immutable by convention and hashable; every
    operation in this package treats them as values.

    ``shape_code`` holds the class bits of the shape and of its conjugate
    (see ``_shape_code``), set once by the constructor; the closed-form
    dispatch, the closed kernels and the CLI's family filters read them
    from this attribute.  Mutating ``parts`` is unsupported: besides the
    hash, it would leave ``shape_code`` and the conjugate that ``conjugate``
    memoizes on the instance stale.
    """

    __slots__ = ("parts", "n", "shape_code", "_conjugate")

    def __init__(self, raw: Iterable[int] = ()):
        parts = sorted(map(operator.index, raw), reverse=True)
        if parts and parts[-1] < 0:
            raise NegativePart(f"negative entries in partition input: {parts}")
        while parts and parts[-1] == 0:
            parts.pop()
        self.parts: tuple[int, ...] = tuple(parts)
        self.n: int = sum(parts)
        self.shape_code: int = _shape_code(parts)
        self._conjugate: Partition | None = None

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the CLI text form: comma-separated integers, "" for empty."""
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))


def make_partition(raw: Iterable[int]) -> Partition:
    """Normalize a list of nonnegative integers into a Partition."""
    return Partition(raw)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lam'_i = #{j : lam_j >= i}.

    Linear in the shape: the distinct parts are walked from the smallest up
    (the parts are stored decreasing, so their counts are read in reverse),
    and the columns between two consecutive distinct widths all have the
    height of the rows at least that wide, so the columns come out already in
    decreasing order.  The result is memoized on ``lam``; the conjugate keeps
    no pointer back, so no reference cycle forms.
    """
    if lam._conjugate is None:
        height, below, columns = len(lam.parts), 0, []
        for width, rows in reversed(Counter(lam.parts).items()):
            columns += [height] * (width - below)
            height -= rows
            below = width
        lam._conjugate = Partition(columns)
    return lam._conjugate


def two_row_parts(lam: Partition) -> tuple[int, int] | None:
    """(p1, p2) when lam has at most two parts (a one-row shape reads as (n, 0))."""
    if len(lam) > 2 or lam.n == 0:
        return None
    p1 = lam.parts[0]
    p2 = lam.parts[1] if len(lam) > 1 else 0
    return p1, p2


def hook_parts(lam: Partition) -> tuple[int, int] | None:
    """(e, m) when lam = (m, 1^e) with e >= 1 and m >= 2, else None.

    One-row shapes and single columns are deliberately excluded; the hook
    formulas assume a genuine arm and a genuine leg.
    """
    p = lam.parts
    if len(p) < 2 or p[0] < 2 or p[1] != 1:  # parts decrease: all after p[1] are 1 too
        return None
    return len(p) - 1, p[0]


# Shape class bits, the classes the closed forms need: at most one row
# (len <= 1), at most two parts (two_row_parts not None) and a genuine hook
# (hook_parts not None).  A shape's code carries its own classes in bits 0-2
# and its conjugate's in bits 9-11, so the signature code(lam) |
# code(mu) << 3 | code(nu) << 6 of a triple holds the classes of source s of
# (lam, mu, nu, lam', mu', nu') in bits 3s to 3s+2.
_ONE_ROW = 1
_TWO_ROW = 2
_HOOK = 4
_CONJ_SHIFT = 9


def _shape_code(parts: Sequence[int]) -> int:
    """Class bits of a shape and of its conjugate, read from its decreasing
    positive parts alone: the conjugate has one row iff lam1 = 1, at most
    two rows iff lam1 <= 2, and is a hook iff the shape is.  The empty shape
    and its conjugate read as one-row and nothing else."""
    if not parts:
        return _ONE_ROW | _ONE_ROW << _CONJ_SHIFT
    first = parts[0]
    length = len(parts)
    code = 0
    if length == 1:
        code |= _ONE_ROW
    if length <= 2:
        code |= _TWO_ROW
    if length >= 2 and first >= 2 and parts[1] == 1:  # parts decrease: all the rest are 1
        code |= _HOOK | _HOOK << _CONJ_SHIFT
    if first == 1:
        code |= _ONE_ROW << _CONJ_SHIFT
    if first <= 2:
        code |= _TWO_ROW << _CONJ_SHIFT
    return code


def double_hook_parts(lam: Partition) -> tuple[int, int, int, int] | None:
    """(d1, d2, n3, n4) when lam is a double hook: the cell (2,2) lies in the
    diagram and at most two parts exceed 2.

    The decomposition always takes n3 = lam_2 and n4 = lam_1, counting only the
    remaining twos in d2.  This builds in the n4 = 0 rewrite (d2 -= 1, n3 := 2,
    n4 := old n3) once and for all, so callers never see n4 = 0.
    """
    p = lam.parts
    if len(p) < 2 or p[1] < 2:
        return None
    if len(p) > 2 and p[2] > 2:
        return None
    return p.count(1), p[2:].count(2), p[1], p[0]


def z_of(lam: Iterable[int]) -> int:
    """Centralizer order z_lam = prod_i i^{d_i} d_i! over part multiplicities d_i,
    as one running product over the decreasing parts of lam, a Partition or a
    part tuple: the k-th copy of a part p contributes p * k."""
    z, run, previous = 1, 0, 0
    for p in lam:
        run = run + 1 if p == previous else 1
        previous = p
        z *= p * run
    return z


def _partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as part tuples, in reverse lexicographic order.

    The parts above 1 are kept in a list and the ones as a count.  Each step
    lowers the last part p > 1 to q = p - 1 and refills with the largest
    tail of parts at most q: as many q as fit, then the remainder."""
    head, ones = ([n], 0) if n > 1 else ([], n)
    while True:
        yield tuple(head) + (1,) * ones
        if not head:
            return
        q = head.pop() - 1
        rest = q + 1 + ones
        if q == 1:
            ones = rest
            continue
        copies, ones = divmod(rest, q)
        head += [q] * copies
        if ones > 1:
            head.append(ones)
            ones = 0


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each exactly once, in reverse lexicographic order:
    (4), (3,1), (2,2), (2,1,1), (1,1,1,1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return map(Partition, _partition_tuples(n))
