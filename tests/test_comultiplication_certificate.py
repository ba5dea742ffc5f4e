"""The three closed forms certified at n = 20 by the identity the source
paper derives them from, the comultiplication expansion

    s_lam[XY] = sum over mu, nu of gamma(lam, mu, nu) s_mu[X] s_nu[Y],

on two-letter alphabets X and Y, for every lam of 20, with gamma from
compute.  Each side is read from the closed two-variable specializations
of schur_eval, so no character sum is taken except for the one-row and
one-column lam on a two-minus-two alphabet.  The identity is checked
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

from kroncoef import (
    SignedAlphabet,
    compute,
    enumerate_partitions,
    make_partition,
    schur_eval_bialternant,
    schur_eval_characters,
)
from kroncoef.characters import HOOK_HOOK, HOOK_TWO_ROW, ORACLE, TWO_ROW_TWO_ROW
from kroncoef.partitions import double_hook_parts, hook_parts, two_row_parts
from kroncoef.schur_eval import (
    rhs_double_hook_difference,
    rhs_hook_difference,
    rhs_hook_difference_four_term,
    rhs_two_row_sum,
    sample_fractions,
)

N = 20
SEED = 20000104


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
    # one row or one column
    return schur_eval_characters(lam, SignedAlphabet([(1, u) for u in plus]
                                                     + [(-1, v) for v in minus]))


def s_four_letters(lam, plus, minus):
    """s_lam at four positive letters: zero past four rows."""
    return schur_eval_bialternant(lam, SignedAlphabet.positive(plus)) if len(lam) <= 4 else 0


def hook_hook_letters(x1, x2, y1, y2):
    return (x1 * y1, x2 * y2), (x1 * y2, x2 * y1)


def hook_two_row_letters(x1, x2, y1, y2):
    return (x1 * y1, x1 * y2), (x2 * y1, x2 * y2)


def two_row_letters(x1, x2, y1, y2):
    return (x1 * y1, x1 * y2, x2 * y1, x2 * y2), ()


HOOKS = [make_partition([N - e] + [1] * e) for e in range(N)]
TWO_ROWS = [make_partition([N - j, j]) for j in range(N // 2 + 1)]

# (kernel provenance, mu with s_mu[X] != 0, s_mu[X], nu with s_nu[Y] != 0,
#  s_nu[Y], the letters of XY, s_lam[XY])
FAMILIES = {
    "hook-hook": (HOOK_HOOK, HOOKS, s_difference, HOOKS, s_difference,
                  hook_hook_letters, s_two_minus_two),
    "hook-two-row": (HOOK_TWO_ROW, HOOKS, s_difference, TWO_ROWS, s_sum,
                     hook_two_row_letters, s_two_minus_two),
    "two-row": (TWO_ROW_TWO_ROW, TWO_ROWS, s_sum, TWO_ROWS, s_sum,
                two_row_letters, s_four_letters),
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


@pytest.mark.parametrize("family", FAMILIES)
def test_comultiplication_certifies_the_closed_forms_at_n_20(family):
    kernel, mus, s_x, nus, s_y, letters, s_xy = FAMILIES[family]
    rng = random.Random(SEED)
    failed = []
    provenances = set()
    for lam in enumerate_partitions(N):
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
    assert kernel in provenances and ORACLE not in provenances
