"""Exact evaluation of symmetric functions on signed rational alphabets.

A signed alphabet is a formal difference of letter multisets: the entry
(-1, v) is the subtracted letter v, which is *not* the same as the added
letter -v (they differ on every even power sum).  All arithmetic is in
fractions.Fraction; nothing here touches floating point.

The two independent evaluators (character expansion and bialternant quotient),
the product-alphabet expansion identity, and the four two-variable
specializations of the difference formula are the cross-checks that certify
the Kronecker machinery from a direction that never touches lattice counting.
The one-row and one-column forms on u1 + u2 - v1 - v2 complete the
specializations, so that s_lam at that alphabet has a closed form for every
lam without the cell (3,3).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .characters import _char_row, _classes, kron_oracle
from .closed_forms import AUTO, compute
from .partitions import (
    Partition,
    double_hook_parts,
    enumerate_partitions,
    hook_parts,
    two_row_parts,
)


class RepeatedValue(ValueError):
    """The bialternant needs pairwise distinct values (Vandermonde nonzero)."""


class SingularPoint(ValueError):
    """A sample point hit a vanishing denominator of an evaluation formula."""


class SignedAlphabet:
    """Finite list of (sign, value) letters with sign in {+1, -1} and exact
    rational values."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, Fraction | int]] = ()):
        normalized = []
        for sign, value in entries:
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign!r}")
            normalized.append((sign, Fraction(value)))
        self.entries: tuple[tuple[int, Fraction], ...] = tuple(normalized)

    @classmethod
    def positive(cls, values: Iterable[Fraction | int]) -> "SignedAlphabet":
        return cls((1, v) for v in values)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedAlphabet) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SignedAlphabet({list(self.entries)!r})"


def alphabet_sum(a: SignedAlphabet, b: SignedAlphabet) -> SignedAlphabet:
    """X + Y: concatenation; power sums add."""
    return SignedAlphabet(a.entries + b.entries)


def alphabet_product(a: SignedAlphabet, b: SignedAlphabet) -> SignedAlphabet:
    """XY: all pairwise products with multiplied signs; power sums multiply."""
    return SignedAlphabet(
        (sa * sb, va * vb) for sa, va in a.entries for sb, vb in b.entries
    )


def alphabet_negate(a: SignedAlphabet) -> SignedAlphabet:
    """-X: flip every sign, so alphabet_sum(X, alphabet_negate(Y)) is X - Y."""
    return SignedAlphabet((-s, v) for s, v in a.entries)


def power_sum_eval(r: int, alphabet: SignedAlphabet) -> Fraction:
    """p_r over the alphabet: sum of sign * value**r."""
    if r < 1:
        raise ValueError("power sum index must be >= 1")
    return sum((Fraction(s) * v**r for s, v in alphabet.entries), Fraction(0))


def schur_eval_characters(lam: Partition, alphabet: SignedAlphabet) -> Fraction:
    """Schur function via the power-sum expansion
    s_lam = (1/n!) sum over cycle types rho of |C_rho| chi^lam(rho) p_rho."""
    n = lam.n
    powers = {r: power_sum_eval(r, alphabet) for r in range(1, n + 1)}
    total = Fraction(0)
    for (rho, size), chi in zip(_classes(n), _char_row(lam.parts, n)):
        if chi:
            total += math.prod((powers[part] for part in rho), start=Fraction(size * chi))
    return total / math.factorial(n)


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with row pivoting."""
    m = len(matrix)
    det = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if matrix[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            det = -det
        det *= matrix[col][col]
        inv = 1 / matrix[col][col]
        for r in range(col + 1, m):
            factor = matrix[r][col] * inv
            if factor:
                for c in range(col, m):
                    matrix[r][c] -= factor * matrix[col][c]
    return det


def schur_eval_bialternant(lam: Partition, alphabet: SignedAlphabet) -> Fraction:
    """Schur polynomial as a quotient of alternants:
    det(x_i^{lam_j + m - j}) / prod_{i<j} (x_i - x_j).

    Needs a plain alphabet: all signs +1, pairwise distinct values, and at
    least l(lam) letters.  Must agree with schur_eval_characters everywhere
    both apply; the test suite certifies that.
    """
    if any(s != 1 for s, _ in alphabet.entries):
        raise ValueError("bialternant evaluation needs an all-positive alphabet")
    xs = alphabet.values()
    m = len(xs)
    if len(set(xs)) != m:
        raise RepeatedValue(f"alphabet values must be pairwise distinct: {xs}")
    if m < len(lam):
        raise ValueError(f"alphabet of size {m} cannot carry {lam!r}")
    padded = lam.parts + (0,) * (m - len(lam))
    matrix = [[x ** (padded[j] + m - 1 - j) for j in range(m)] for x in xs]
    vandermonde = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            vandermonde *= xs[i] - xs[j]
    return _det(matrix) / vandermonde


def verify_comultiplication(
    lam: Partition,
    x_alpha: SignedAlphabet,
    y_alpha: SignedAlphabet,
    gamma_source: str = "oracle",
) -> bool:
    """Exact check of the product-alphabet expansion
    s_lam[XY] = sum over mu, nu of gamma^lam_{mu,nu} s_mu[X] s_nu[Y].

    gamma_source picks the gamma it certifies: "oracle" (kron_oracle) or
    "auto" (compute); any other value raises ValueError."""
    if gamma_source not in ("oracle", AUTO):
        raise ValueError(f"gamma_source must be 'oracle' or 'auto', got {gamma_source!r}")
    n = lam.n
    lhs = schur_eval_characters(lam, alphabet_product(x_alpha, y_alpha))
    shapes = list(enumerate_partitions(n))
    s_x = {mu.parts: schur_eval_characters(mu, x_alpha) for mu in shapes}
    s_y = {nu.parts: schur_eval_characters(nu, y_alpha) for nu in shapes}
    rhs = Fraction(0)
    for mu in shapes:
        if s_x[mu.parts] == 0:
            continue
        for nu in shapes:
            if s_y[nu.parts] == 0:
                continue
            if gamma_source == "oracle":
                gamma = kron_oracle(lam, mu, nu).gamma
            else:
                gamma = compute(lam, mu, nu, AUTO).gamma
            if gamma:
                rhs += gamma * s_x[mu.parts] * s_y[nu.parts]
    return lhs == rhs


# ---------------------------------------------------------------------------
# Two-variable specializations of the difference formula.  Each right-hand
# side below is checked against the character evaluator on the corresponding
# signed alphabet.
# ---------------------------------------------------------------------------


def rhs_hook_difference(e: int, m: int, x1: Fraction, x2: Fraction) -> Fraction:
    """s_{(m,1^e)}[x1 - x2] = (-1)^e x1^{m-1} x2^e (x1 - x2)."""
    return (-1) ** e * x1 ** (m - 1) * x2**e * (x1 - x2)


def rhs_two_row_sum(p1: int, p2: int, y1: Fraction, y2: Fraction) -> Fraction:
    """s_{(p1,p2)}[y1 + y2] = (y1 y2)^{p2} (y1^{p1-p2+1} - y2^{p1-p2+1}) / (y1 - y2)."""
    if y1 == y2:
        raise SingularPoint("two-row specialization needs y1 != y2")
    return (y1 * y2) ** p2 * (y1 ** (p1 - p2 + 1) - y2 ** (p1 - p2 + 1)) / (y1 - y2)


def rhs_double_hook_difference(
    d1: int, d2: int, n3: int, n4: int,
    u1: Fraction, u2: Fraction, v1: Fraction, v2: Fraction,
) -> Fraction:
    """s_lam[u1 + u2 - v1 - v2] for the double hook lam = (1^{d1} 2^{d2} n3 n4)."""
    if u1 == u2 or v1 == v2:
        raise SingularPoint("double-hook specialization needs u1 != u2 and v1 != v2")
    cross = (u1 - v1) * (u2 - v1) * (u1 - v2) * (u2 - v2)
    return (
        cross
        / ((u1 - u2) * (v1 - v2))
        * (-1) ** d1
        * (u1 * u2) ** (n3 - 2)
        * (v1 * v2) ** d2
        * (u2 ** (n4 - n3 + 1) - u1 ** (n4 - n3 + 1))
        * (v2 ** (d1 + 1) - v1 ** (d1 + 1))
    )


def rhs_hook_difference_four_term(
    d: int, w: int, u1: Fraction, u2: Fraction, v1: Fraction, v2: Fraction
) -> Fraction:
    """s_{(w,1^d)}[u1 + u2 - v1 - v2] as the signed four-term bracket sum."""
    if u1 == u2 or v1 == v2:
        raise SingularPoint("hook specialization needs u1 != u2 and v1 != v2")
    bracket = (
        u1 * v1 * (u1 - v1) * (u1 - v2) * (u2 - v1) * u1 ** (w - 2) * v1 ** (d - 1)
        - u1 * v2 * (u1 - v2) * (u1 - v1) * (u2 - v2) * u1 ** (w - 2) * v2 ** (d - 1)
        - u2 * v1 * (u2 - v1) * (u2 - v2) * (u1 - v1) * u2 ** (w - 2) * v1 ** (d - 1)
        + u2 * v2 * (u2 - v2) * (u2 - v1) * (u1 - v2) * u2 ** (w - 2) * v2 ** (d - 1)
    )
    return (-1) ** (d - 1) * bracket / ((u1 - u2) * (v1 - v2))


def _complete_two(k: int, a: Fraction, b: Fraction) -> Fraction:
    """h_k(a, b), which is s_(k)[a + b]; 0 for k < 0."""
    return rhs_two_row_sum(k, 0, a, b) if k >= 0 else Fraction(0)


def rhs_one_row_difference(
    n: int, u1: Fraction, u2: Fraction, v1: Fraction, v2: Fraction
) -> Fraction:
    """s_(n)[u1 + u2 - v1 - v2] = h_n(U) - h_{n-1}(U)(v1 + v2) + h_{n-2}(U) v1 v2
    with U = (u1, u2); needs u1 != u2."""
    return (
        _complete_two(n, u1, u2)
        - _complete_two(n - 1, u1, u2) * (v1 + v2)
        + _complete_two(n - 2, u1, u2) * v1 * v2
    )


def rhs_one_column_difference(
    n: int, u1: Fraction, u2: Fraction, v1: Fraction, v2: Fraction
) -> Fraction:
    """s_(1^n)[u1 + u2 - v1 - v2] = sum over j <= 2 of (-1)^(n-j) e_j(U) h_{n-j}(V)
    with U = (u1, u2) and V = (v1, v2); needs v1 != v2."""
    e_u = (1, u1 + u2, u1 * u2)
    return sum(
        ((-1) ** (n - j) * e_u[j] * _complete_two(n - j, v1, v2) for j in range(min(n, 2) + 1)),
        Fraction(0),
    )


# The number of distinct values p/q with 1 <= p, q <= 13.
_FRACTION_POOL = 115


def sample_fractions(rng: random.Random, count: int) -> list[Fraction]:
    """Deterministic pseudo-random positive rationals with numerator and
    denominator at most 13, pairwise distinct.  A count above the 115 such
    values could never be met and raises ValueError."""
    if count > _FRACTION_POOL:
        raise ValueError(f"count {count} exceeds the {_FRACTION_POOL} distinct fractions "
                         "p/q with 1 <= p, q <= 13")
    values: list[Fraction] = []
    while len(values) < count:
        candidate = Fraction(rng.randint(1, 13), rng.randint(1, 13))
        if candidate not in values:
            values.append(candidate)
    return values


def _difference_alphabet(u: Sequence[Fraction], v: Sequence[Fraction]) -> SignedAlphabet:
    return alphabet_sum(SignedAlphabet.positive(u), alphabet_negate(SignedAlphabet.positive(v)))


def verify_sergeev_specializations(
    n_max: int, *, seed: int = 2718, points: int = 5
) -> bool:
    """Check the four two-variable difference/sum specializations at seeded
    rational sample points, for every qualifying shape of size up to n_max.

    Identity testing is by evaluation at ``points`` generic points per shape:
    probabilistic by construction, deterministic by seed.  Double hooks with
    second row exactly 2 exercise the rewritten (n4 = 0) decomposition path.
    """
    rng = random.Random(seed)
    for n in range(2, n_max + 1):
        for lam in enumerate_partitions(n):
            hook = hook_parts(lam)
            two_row = two_row_parts(lam)
            double_hook = double_hook_parts(lam)
            for _ in range(points):
                if hook is not None:
                    e, m = hook
                    x1, x2 = sample_fractions(rng, 2)
                    lhs = schur_eval_characters(lam, _difference_alphabet([x1], [x2]))
                    if lhs != rhs_hook_difference(e, m, x1, x2):
                        return False
                    u1, u2, v1, v2 = sample_fractions(rng, 4)
                    lhs = schur_eval_characters(lam, _difference_alphabet([u1, u2], [v1, v2]))
                    if lhs != rhs_hook_difference_four_term(e, m, u1, u2, v1, v2):
                        return False
                if two_row is not None:
                    y1, y2 = sample_fractions(rng, 2)
                    lhs = schur_eval_characters(lam, SignedAlphabet.positive([y1, y2]))
                    if lhs != rhs_two_row_sum(two_row[0], two_row[1], y1, y2):
                        return False
                if double_hook is not None:
                    d1, d2, n3, n4 = double_hook
                    u1, u2, v1, v2 = sample_fractions(rng, 4)
                    lhs = schur_eval_characters(lam, _difference_alphabet([u1, u2], [v1, v2]))
                    if lhs != rhs_double_hook_difference(d1, d2, n3, n4, u1, u2, v1, v2):
                        return False
    return True
