"""Closed formulas for Kronecker coefficients when two of the three shapes are
two-row or hook shapes, plus the symmetry-normalizing dispatcher.

Every formula is exact and certified against the character oracle by the test
suite.  The sanctioned symmetry moves are: any permutation of (lambda, mu, nu),
and conjugating any two of the three shapes simultaneously; their 24
combinations are walked in one documented order by _candidate, which stops
at the first that a closed form fits.  CLOSED_FORMS states once the shape
classes each form needs; compute and the CLI's sweep read it.
No shape is classified here: each Partition carries the classes of its
shape and of its conjugate in its shape_code, set once by its constructor
(partitions._shape_code states the bit layout).  compute's dispatch reads
those bits, and so does each kernel to refuse a shape outside its class;
the kernels read legs and second rows from the parts, and the double-hook
parameters of lam from double_hook_parts.
_compute_block answers a whole (lam, mu) block of the CLI's table with
compute's dispatch and one oracle column.  compute and _compute_block share
one closed step, _closed_answer, which applies the chosen symmetry variant
and evaluates its form through _try_closed; the CLI's sweep evaluates the
forms through _try_closed too, so every closed evaluation passes there.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .characters import (
    DELTA_RULE,
    HOOK_HOOK,
    HOOK_TWO_ROW,
    ORACLE,
    TWO_ROW_TWO_ROW,
    KroneckerResult,
    _check_sizes,
    kron_oracle,
    kron_oracle_column,
)
from .lattice import gamma_region_closed
from .partitions import (
    _HOOK,
    _ONE_ROW,
    _TWO_ROW,
    Partition,
    conjugate,
    double_hook_parts,
    two_row_parts,
)

AUTO = "auto"
CLOSED_ONLY = "closed"
ORACLE_ONLY = "oracle"
METHODS = (AUTO, CLOSED_ONLY, ORACLE_ONLY)


class ShapeMismatch(ValueError):
    """A closed form was handed a partition outside its shape class."""


class NoClosedFormApplicable(LookupError):
    """No symmetry variant of the triple matches a closed form (closed-only mode)."""


class HypothesisNotMet(Exception):
    """No longer raised: the hook-pair formula is total since it uses the
    three-hook rule.  Kept so that code catching it still imports."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed, such as a negative coefficient.

    Only an implementation bug can cause this, never valid input.  It is
    raised rather than asserted so that the check also runs under python -O.
    """


def _nonnegative(gamma: int, lam: Partition, mu: Partition, nu: Partition) -> int:
    if gamma < 0:
        raise InvariantViolation(f"negative coefficient {gamma} for ({lam}; {mu}; {nu})")
    return gamma


def kron_two_tworow(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient for two-row mu and nu and arbitrary lam.

    Zero when lam has more than four rows.  Otherwise lam is padded to four
    parts (l1..l4) and the value is a difference of two rectangle cone counts

        Gamma(a, b, a+b+1, c) - Gamma(a, b, a+b+c+d+2, c)  at  (nu2, mu2+1)

    with a = l3+l4, b = l2-l3, c = min(l1-l2, l3-l4), d = |l1+l4-l2-l3|,
    after swapping mu and nu if needed so that nu2 <= mu2.  A one-row shape
    enters as second part 0.
    """
    _check_sizes(lam, mu, nu)
    if not mu.shape_code & nu.shape_code & _TWO_ROW:
        raise ShapeMismatch(f"mu and nu must have at most two parts: {mu}, {nu}")
    parts = lam.parts
    if len(parts) > 4:
        return 0
    l1, l2, l3, l4 = parts + (0,) * (4 - len(parts))
    mu2 = mu.parts[1] if len(mu.parts) == 2 else 0
    nu2 = nu.parts[1] if len(nu.parts) == 2 else 0
    if nu2 > mu2:
        mu2, nu2 = nu2, mu2
    a = l3 + l4
    b = l2 - l3
    c = min(l1 - l2, l3 - l4)
    d = abs(l1 + l4 - l2 - l3)
    x, y = nu2, mu2 + 1
    gamma = gamma_region_closed(a, b, a + b + 1, c, x, y) - gamma_region_closed(
        a, b, a + b + c + d + 2, c, x, y
    )
    return _nonnegative(gamma, lam, mu, nu)


def kron_tworow_corollary(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient when all three shapes are two-row.

    The certifying twin of kron_two_tworow on that family, not a second
    route: compute answers all-two-row triples with kron_two_tworow, and the
    test suite checks the two against each other at sizes the oracle cannot
    reach.

    With the second parts sorted so nu2 <= mu2 <= lam2 (full symmetry makes
    this normalization free), the value is y - x when y >= x and 0 otherwise,
    where x = max(0, ceil((mu2+nu2+lam2-n)/2)) and y = ceil((mu2+nu2-lam2+1)/2).
    """
    _check_sizes(lam, mu, nu)
    n = lam.n
    seconds = []
    for p in (lam, mu, nu):
        tr = two_row_parts(p)
        if tr is None:
            raise ShapeMismatch(f"all three partitions need at most two parts: {p}")
        seconds.append(tr[1])
    nu2, mu2, lam2 = sorted(seconds)
    x = max(0, -((n - mu2 - nu2 - lam2) // 2))  # ceil((mu2+nu2+lam2-n)/2)
    y = (mu2 + nu2 - lam2 + 2) // 2  # ceil((mu2+nu2-lam2+1)/2)
    return y - x if y >= x else 0


def kron_two_hooks(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient for hook-shaped mu and nu and arbitrary lam.

    Cases on lam: shapes containing the cell (3,3) give 0; double hooks get
    the two-bracket window formula; every other lam is (n-d, 1^d), one-row
    and single-column shapes included, and gets Remmel's three-hook rule
    (J. Algebra 120 (1989)): with e, f the legs of mu and nu, gamma is 1 iff
    |e-f| <= d <= e+f and d+e+f <= 2n-2, else 0.  The rule is invariant
    under conjugating any pair (a leg l becomes n-1-l), so it needs no
    normalization.
    """
    _check_sizes(lam, mu, nu)
    if not mu.shape_code & nu.shape_code & _HOOK:
        raise ShapeMismatch(f"mu and nu must be hooks (m, 1^e) with m >= 2, e >= 1: {mu}, {nu}")
    e, f = len(mu.parts) - 1, len(nu.parts) - 1
    parts = lam.parts
    if len(parts) >= 3 and parts[2] >= 3:
        return 0  # the cell (3,3) lies in lam: not contained in any double hook
    dh = double_hook_parts(lam)
    if dh is not None:
        d1, d2, n3, n4 = dh
        x = 2 * d2 + d1
        # Inequalities on (e+f-x)/2 are real-valued; compare doubled integers.
        first = 1 if 2 * (n3 - 1) <= e + f - x <= 2 * n4 and abs(f - e) <= d1 else 0
        second = 1 if 2 * n3 <= e + f - x + 1 <= 2 * n4 and abs(f - e) <= d1 + 1 else 0
        return first + second
    d = len(parts) - 1
    return 1 if abs(e - f) <= d <= e + f and d + e + f <= 2 * (lam.n - 1) else 0


def kron_hook_tworow(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker coefficient for hook mu, two-row nu and arbitrary lam.

    nu = (n-1, 1) is itself a hook, so (mu, nu) is a hook pair for
    kron_two_hooks.  Every other nu is not a hook, and the cases are on lam.  With lam2 <= 1,
    a hook makes (lam, mu) a hook pair, so by the S3 symmetry of gamma the
    value is kron_two_hooks(nu, lam, mu), with the two-row nu (a double hook
    or one-row) in its arbitrary slot; one row or one column gives 0, since
    it leaves delta(mu, nu) or, after conjugating the pair {lam, mu},
    delta(mu', nu), and mu and mu' are hooks while nu is not.  (3,3) in lam
    gives 0.  Every other lam is a double hook and uses the four-term window
    formula in e1 = leg of mu and nu2, which needs n4 - n3 <= d1; a wider
    double hook conjugates the pair {lam, mu} in the parameters
    (d1, d2, n3, n4, e1), not in the shapes.
    """
    _check_sizes(lam, mu, nu)
    if not mu.shape_code & _HOOK:
        raise ShapeMismatch(f"mu must be a hook: {mu}")
    if not nu.shape_code & _TWO_ROW:
        raise ShapeMismatch(f"nu must have at most two parts: {nu}")
    e1 = len(mu.parts) - 1
    nu2 = nu.parts[1] if len(nu.parts) == 2 else 0
    if nu2 == 1:
        return kron_two_hooks(lam, mu, nu)
    parts = lam.parts
    if len(parts) == 1 or parts[1] == 1:
        return kron_two_hooks(nu, lam, mu) if lam.shape_code & _HOOK else 0
    if len(parts) >= 3 and parts[2] >= 3:
        return 0
    dh = double_hook_parts(lam)
    if dh is None:  # remaining shapes are double hooks by elimination
        raise InvariantViolation(f"lam escaped the case split of the hook/two-row formula: {lam}")
    d1, d2, n3, n4 = dh
    if n4 - n3 > d1:
        # conjugate the pair {lam, mu}: lam' = (d1+d2+2, d2+2, 2^(n3-2),
        # 1^(n4-n3)) is a double hook with n4' - n3' = d1 < d1', and the
        # leg of mu' is n-1-e1
        d1, d2, n3, n4 = n4 - n3, n3 - 2, d2 + 2, d1 + d2 + 2
        e1 = lam.n - 1 - e1
    lo = d1 + 2 * d2
    first = 1 if n3 <= nu2 - d2 - 1 <= n4 and lo < e1 < lo + 3 else 0
    second = 1 if n3 <= nu2 - d2 <= n4 and lo <= e1 <= lo + 3 else 0
    third = 1 if n3 <= nu2 - d2 + 1 <= n4 and lo < e1 < lo + 3 else 0
    correction = 1 if n3 + d2 + d1 == nu2 and lo + 1 <= e1 <= lo + 2 else 0
    gamma = first + second + third - correction
    return _nonnegative(gamma, lam, mu, nu)


# the pairs of slots conjugated together, none first
_CONJ_PATTERNS: tuple[tuple[int, int] | None, ...] = (None, (0, 1), (0, 2), (1, 2))


class ClosedForm(NamedTuple):
    """A closed form's provenance and the class bits it needs of each slot,
    in the layout of partitions._shape_code."""

    provenance: str
    lam: int
    mu: int
    nu: int


# The closed forms, most specific first: a one-row lam, a two-row pair
# (mu, nu), a hook pair, a hook mu with a two-row nu.  _candidate tries them
# in this order, and the CLI's sweep families pick (mu, nu) by their bits.
CLOSED_FORMS = (
    ClosedForm(DELTA_RULE, _ONE_ROW, 0, 0),
    ClosedForm(TWO_ROW_TWO_ROW, 0, _TWO_ROW, _TWO_ROW),
    ClosedForm(HOOK_HOOK, 0, _HOOK, _HOOK),
    ClosedForm(HOOK_TWO_ROW, 0, _HOOK, _TWO_ROW),
)


@lru_cache(maxsize=None)  # keys are 18-bit signatures
def _candidate(signature: int) -> tuple[tuple[int, ...], tuple[str, ...], str] | None:
    """(sources, moves, provenance) of the first symmetry variant whose slot
    classes hold the bits of a row of CLOSED_FORMS; None when none does.

    The 24 variants are walked in the documented order: each pattern of
    _CONJ_PATTERNS, none first, and within it the permutations of the three
    slots in lexicographic order, the identity first.  sources fill the
    slots from (lam, mu, nu, lam', mu', nu'), and moves record the
    permutation, unless it is the identity, then the conjugated pair; they
    are formatted only for the variant returned.  Every form fires once its
    classes match, so this decides the answer."""
    for pattern in _CONJ_PATTERNS:
        for perm in permutations(range(3)):
            sources = tuple(s + 3 if pattern and slot in pattern else s
                            for slot, s in enumerate(perm))
            lam, mu, nu = (signature >> 3 * s & 7 for s in sources)
            for form in CLOSED_FORMS:
                if lam & form.lam == form.lam and mu & form.mu == form.mu and nu & form.nu == form.nu:
                    moves = () if perm == (0, 1, 2) else (f"permute({perm[0]},{perm[1]},{perm[2]})",)
                    if pattern:
                        moves += (f"conjugate({pattern[0]},{pattern[1]})",)
                    return sources, moves, form.provenance
    return None


def _try_closed(provenance: str, lam: Partition, mu: Partition, nu: Partition) -> int:
    """Evaluate the closed form named by provenance on shapes whose classes
    hold that form's bits in CLOSED_FORMS."""
    if provenance == DELTA_RULE:
        return 1 if mu == nu else 0
    if provenance == TWO_ROW_TWO_ROW:
        return kron_two_tworow(lam, mu, nu)
    if provenance == HOOK_HOOK:
        return kron_two_hooks(lam, mu, nu)
    return kron_hook_tworow(lam, mu, nu)


def _closed_answer(found: tuple[tuple[int, ...], tuple[str, ...], str], lam: Partition,
                   mu: Partition, nu: Partition) -> KroneckerResult:
    """The answer of _candidate's (sources, moves, provenance) for the
    triple: the three slots are filled from (lam, mu, nu, lam', mu', nu'),
    building only the conjugates they use, and evaluated by _try_closed;
    gamma is checked to be nonnegative and the moves are recorded."""
    (i, j, k), moves, provenance = found
    shapes = (lam, mu, nu)
    gamma = _try_closed(provenance,
                        shapes[i] if i < 3 else conjugate(shapes[i - 3]),
                        shapes[j] if j < 3 else conjugate(shapes[j - 3]),
                        shapes[k] if k < 3 else conjugate(shapes[k - 3]))
    return KroneckerResult(_nonnegative(gamma, lam, mu, nu), provenance, moves)


def compute(lam: Partition, mu: Partition, nu: Partition, method: str = AUTO) -> KroneckerResult:
    """Kronecker coefficient of a triple, routed to the cheapest correct method.

    auto: use the first symmetry variant, in the documented order, whose
    slot classes match a closed form, falling back to the character oracle
    when none does.  The classes of the six shapes (lam, mu, nu and their
    conjugates) are read from the three shapes' shape_code attributes, which
    their constructors set; _candidate walks the variants once per
    signature to find that variant and its closed form, and _closed_answer
    applies it.
    closed: like auto but raise NoClosedFormApplicable instead of falling back.
    oracle: always evaluate the character sum.

    The result records provenance and the symmetry moves that were applied.
    Every route's gamma is checked to be nonnegative here.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_sizes(lam, mu, nu)
    if method != ORACLE_ONLY:
        signature = lam.shape_code | mu.shape_code << 3 | nu.shape_code << 6
        found = _candidate(signature)
        if found is not None:
            return _closed_answer(found, lam, mu, nu)
        if method == CLOSED_ONLY:
            raise NoClosedFormApplicable(f"no closed form matches any variant of ({lam}; {mu}; {nu})")
    result = kron_oracle(lam, mu, nu)
    _nonnegative(result.gamma, lam, mu, nu)
    return result


def _compute_block(lam: Partition, mu: Partition,
                   nus: Sequence[Partition]) -> list[KroneckerResult]:
    """compute(lam, mu, nu) for every nu of nus, in order.

    Each nu goes through compute's dispatch, with the signature head
    lam.shape_code | mu.shape_code << 3 formed once for the block and each
    nu's shape_code << 6 joined to it, and a closed row is answered by
    _closed_answer as in compute.  The rows no closed form answers all come
    from one kron_oracle_column(lam, mu, nus), since gamma(nu, lam, mu) =
    gamma(lam, mu, nu); it is built only when the block has such a row.
    Every nu's size is compared once, before any row is evaluated, so the
    first mis-sized nu is refused with _check_sizes' message wherever it
    sits.  Every gamma is checked to be nonnegative: a closed row by
    _closed_answer, an oracle row by one comparison, with _nonnegative
    called only when the value is negative.
    """
    n = lam.n
    for nu in nus:
        if not (mu.n == nu.n == n):
            _check_sizes(lam, mu, nu)
    head = lam.shape_code | mu.shape_code << 3
    column = None
    results = []
    for i, nu in enumerate(nus):
        found = _candidate(head | nu.shape_code << 6)
        if found is not None:
            results.append(_closed_answer(found, lam, mu, nu))
        else:
            if column is None:
                column = kron_oracle_column(lam, mu, nus)
            gamma = column[i]
            if gamma < 0:
                _nonnegative(gamma, lam, mu, nu)
            results.append(KroneckerResult(gamma, ORACLE))
    return results
