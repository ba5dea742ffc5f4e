"""The three closed forms certified at n = 20 and n <= 200 by the identity
the source paper derives them from, the comultiplication expansion

    s_lam[XY] = sum over mu, nu of gamma(lam, mu, nu) s_mu[X] s_nu[Y],

on two-letter alphabets X and Y, for every lam of 20, for a slice of lam
of 200 built from their parts, and for lam of n <= 200 that hypothesis
draws from the shape classes the kernels branch on, with gamma from
compute.  Each side is read
from the closed two-variable specializations of schur_eval, so no
character sum is taken.  The identity is checked
exactly at seeded sample points, drawn again for each lam, and again
whenever two letters on one side of XY coincide.

X = x1 - x2 has s_mu[X] = 0 unless mu2 <= 1, and X = x1 + x2 has
s_mu[X] = 0 unless mu has at most two rows, so each family's sum runs over
those mu and nu only:

* hook-hook: X = x1 - x2, Y = y1 - y2, XY = (x1y1 + x2y2) - (x1y2 + x2y1);
* hook-two-row: X = x1 - x2, Y = y1 + y2, XY = (x1y1 + x1y2) - (x2y1 + x2y2);
* two-row: X = x1 + x2, Y = y1 + y2, XY the four products.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncoef import (
    SignedAlphabet,
    compute,
    enumerate_partitions,
    make_partition,
    schur_eval_bialternant,
)
from kroncoef.characters import HOOK_HOOK, HOOK_TWO_ROW, ORACLE, TWO_ROW_TWO_ROW
from kroncoef.partitions import double_hook_parts, hook_parts, two_row_parts
from kroncoef.schur_eval import (
    rhs_double_hook_difference,
    rhs_hook_difference,
    rhs_hook_difference_four_term,
    rhs_one_column_difference,
    rhs_one_row_difference,
    rhs_two_row_sum,
    sample_fractions,
)

SEED = 20000104
MAX_DRAWN_LAMBDAS = 30


def s_difference(mu, x1, x2):
    """s_mu[x1 - x2] for mu2 <= 1: mu = (m, 1^e), one row and one column included."""
    return rhs_hook_difference(len(mu) - 1, mu.parts[0], x1, x2)


def s_sum(nu, y1, y2):
    """s_nu[y1 + y2] for nu of at most two rows."""
    return rhs_two_row_sum(*two_row_parts(nu), y1, y2)


def s_two_minus_two(lam, plus, minus):
    """s_lam[u1 + u2 - v1 - v2]: zero when lam holds the cell (3,3)."""
    if len(lam) >= 3 and lam.parts[2] >= 3:
        return 0
    double_hook = double_hook_parts(lam)
    if double_hook is not None:
        return rhs_double_hook_difference(*double_hook, *plus, *minus)
    hook = hook_parts(lam)
    if hook is not None:
        return rhs_hook_difference_four_term(*hook, *plus, *minus)
    if len(lam) == 1:
        return rhs_one_row_difference(lam.n, *plus, *minus)
    return rhs_one_column_difference(lam.n, *plus, *minus)


def s_four_letters(lam, plus, minus):
    """s_lam at four positive letters: zero past four rows."""
    return schur_eval_bialternant(lam, SignedAlphabet.positive(plus)) if len(lam) <= 4 else 0


def hook_hook_letters(x1, x2, y1, y2):
    return (x1 * y1, x2 * y2), (x1 * y2, x2 * y1)


def hook_two_row_letters(x1, x2, y1, y2):
    return (x1 * y1, x1 * y2), (x2 * y1, x2 * y2)


def two_row_letters(x1, x2, y1, y2):
    return (x1 * y1, x1 * y2, x2 * y1, x2 * y2), ()


def hooks(n):
    """The shapes (n - e, 1^e) of n, one row and one column included."""
    return [make_partition([n - e] + [1] * e) for e in range(n)]


def two_rows(n):
    """The shapes (n - j, j) of n, one row included."""
    return [make_partition([n - j, j]) for j in range(n // 2 + 1)]


# (kernel provenance, mu of n with s_mu[X] != 0, s_mu[X], nu of n with
#  s_nu[Y] != 0, s_nu[Y], the letters of XY, s_lam[XY])
FAMILIES = {
    "hook-hook": (HOOK_HOOK, hooks, s_difference, hooks, s_difference,
                  hook_hook_letters, s_two_minus_two),
    "hook-two-row": (HOOK_TWO_ROW, hooks, s_difference, two_rows, s_sum,
                     hook_two_row_letters, s_two_minus_two),
    "two-row": (TWO_ROW_TWO_ROW, two_rows, s_sum, two_rows, s_sum,
                two_row_letters, s_four_letters),
}

# lam of 200 as part lists, since p(200) cannot be enumerated.
# (90, 40, 2^10, 1^50) is a double hook with n4 - n3 <= d1, (110, 60, 2^5,
# 1^20) one with n4 - n3 > d1, (163, 1^37) a hook, and (100, 50, 30, 20)
# holds the cell (3,3); (80, 60, 30, 20, 10) has five rows, so every gamma
# of the two-row family is 0 on it.  Every family also takes the one row
# (200) and the one column (1^200).
ROW_AND_COLUMN_AT_200 = [[200], [1] * 200]
HOOK_LAMBDAS_AT_200 = [
    [90, 40] + [2] * 10 + [1] * 50,
    [110, 60] + [2] * 5 + [1] * 20,
    [163] + [1] * 37,
    [100, 50, 30, 20],
    *ROW_AND_COLUMN_AT_200,
]
LAMBDAS_AT_200 = {
    "hook-hook": HOOK_LAMBDAS_AT_200,
    "hook-two-row": HOOK_LAMBDAS_AT_200,
    "two-row": [[80, 60, 40, 20], [80, 60, 30, 20, 10], *ROW_AND_COLUMN_AT_200],
}


def sample_point(rng, letters):
    """Seeded x1, x2, y1, y2 and the letters of XY, drawn again until no two
    letters on one side of XY coincide."""
    while True:
        x1, x2 = sample_fractions(rng, 2)
        y1, y2 = sample_fractions(rng, 2)
        plus, minus = letters(x1, x2, y1, y2)
        if len(set(plus)) == len(plus) and len(set(minus)) == len(minus):
            return x1, x2, y1, y2, plus, minus


def assert_certified(family, n, lams):
    """The identity holds on every lam, and compute never answered it with
    the oracle.  Once n >= 4 and some lam has two rows or more, the family's
    kernel is among compute's routes: a one-row lam leaves every answer to
    the delta rule, and below n = 4 the only shape with an arm and a leg,
    (2, 1), is two-row, so the two-row form answers first."""
    kernel, mus_of, s_x, nus_of, s_y, letters, s_xy = FAMILIES[family]
    lams = list(lams)
    mus, nus = mus_of(n), nus_of(n)
    rng = random.Random(SEED)
    failed = []
    provenances = set()
    for lam in lams:
        x1, x2, y1, y2, plus, minus = sample_point(rng, letters)
        y_values = [s_y(nu, y1, y2) for nu in nus]
        rhs = 0
        for mu in mus:
            inner = 0
            for nu, s_nu in zip(nus, y_values):
                result = compute(lam, mu, nu)
                provenances.add(result.provenance)
                if result.gamma:
                    inner += result.gamma * s_nu
            if inner:
                rhs += s_x(mu, x1, x2) * inner
        if s_xy(lam, plus, minus) != rhs:
            failed.append(lam)
    assert failed == []
    assert ORACLE not in provenances
    if n >= 4 and any(len(lam) > 1 for lam in lams):
        assert kernel in provenances


@pytest.mark.parametrize("family", FAMILIES)
def test_comultiplication_certifies_the_closed_forms_at_n_20(family):
    assert_certified(family, 20, enumerate_partitions(20))


@pytest.mark.parametrize("family", FAMILIES)
def test_comultiplication_certifies_the_closed_forms_at_n_200(family):
    assert_certified(family, 200, [make_partition(parts) for parts in LAMBDAS_AT_200[family]])


@st.composite
def kernel_lambdas(draw):
    """A lam of n <= 200 from a shape class the kernels branch on: a hook
    (one row and one column included), a double hook, or at most four rows."""
    kind = draw(st.sampled_from(("hook", "double hook", "four rows")))
    if kind == "hook":
        n = draw(st.integers(1, 200))
        leg = draw(st.integers(0, n - 1))
        return make_partition([n - leg] + [1] * leg)
    if kind == "double hook":
        # (n4, n3, 2^d2, 1^d1) with n3 >= 2 and n4 = n3 + gap, of at most
        # 60 + 40 + 40 + 60 = 200 cells.  The hook/two-row window's
        # correction term can fire only when gap = d1, so that edge is drawn
        # as often as every other gap together.
        d1 = draw(st.integers(0, 60))
        d2 = draw(st.integers(0, 20))
        n3 = draw(st.integers(2, 20))
        gap = draw(st.one_of(st.just(d1), st.integers(0, 60)))
        return make_partition([n3 + gap, n3] + [2] * d2 + [1] * d1)
    n = draw(st.integers(1, 200))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=3, max_size=3)))
    return make_partition(b - a for a, b in zip([0, *cuts], [*cuts, n]))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=MAX_DRAWN_LAMBDAS)
@given(lam=kernel_lambdas())
def test_comultiplication_certifies_the_closed_forms_on_drawn_lambdas(family, lam):
    assert_certified(family, lam.n, [lam])
