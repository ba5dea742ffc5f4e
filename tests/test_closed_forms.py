import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kroncoef import (
    AUTO,
    CLOSED_ONLY,
    DELTA_RULE,
    HOOK_HOOK,
    ORACLE_ONLY,
    NoClosedFormApplicable,
    ShapeMismatch,
    SizeMismatch,
    TWO_ROW_TWO_ROW,
    character,
    compute,
    conjugate,
    dimension,
    double_hook_parts,
    enumerate_partitions,
    hook_parts,
    kron_hook_tworow,
    kron_oracle,
    kron_tworow_corollary,
    kron_two_hooks,
    kron_two_tworow,
    make_partition,
    two_row_parts,
)
from kroncoef import closed_forms
from kroncoef.characters import ORACLE, KroneckerResult
from kroncoef.closed_forms import _VARIANTS, InvariantViolation


def oracle(lam, mu, nu):
    return kron_oracle(lam, mu, nu).gamma


def hooks_of(n):
    """The hooks (n - d, 1^d) with an arm and a leg, in enumeration order."""
    return [make_partition([n - d] + [1] * d) for d in range(1, n - 1)]


def two_rows_of(n):
    """The shapes (n - j, j) of n > 0, in enumeration order."""
    return [make_partition([n - j, j]) for j in range(n // 2 + 1)] if n else []


def table_variants(lam, mu, nu):
    """Every entry of the symmetry table applied to the triple, as
    (lam, mu, nu, moves)."""
    shapes = (lam, mu, nu, conjugate(lam), conjugate(mu), conjugate(nu))
    for sources, moves in _VARIANTS:
        yield (*(shapes[s] for s in sources), moves)


def apply_moves(lam, mu, nu, moves):
    """The moves applied forward, as the KroneckerResult docstring reads
    them: "permute(i,j,k)" puts entry perm[s] of the original in slot s,
    then "conjugate(s,t)" conjugates the two named slots."""
    slots = [lam, mu, nu]
    for move in moves:
        kind, args = move.rstrip(")").split("(")
        indices = [int(t) for t in args.split(",")]
        if kind == "permute":
            slots = [slots[i] for i in indices]
        else:
            assert kind == "conjugate", move
            for s in indices:
                slots[s] = conjugate(slots[s])
    return tuple(slots)


class TestTwoTwoRow:
    def test_square_family(self):
        square2 = make_partition([2, 2])
        square3 = make_partition([3, 3])
        assert kron_two_tworow(square2, square2, square2) == 1
        assert kron_two_tworow(square3, square3, square3) == 0

    def test_stretched_family(self):
        lam = make_partition([12, 4])  # (3l, l) with l = 4
        assert kron_two_tworow(lam, lam, lam) == 3

    def test_matches_oracle_with_deep_lambda(self):
        lam = make_partition([3, 1, 1, 1])
        mu = make_partition([4, 2])
        nu = make_partition([3, 3])
        assert kron_two_tworow(lam, mu, nu) == oracle(lam, mu, nu)
        deep = make_partition([5, 1, 1, 1])
        for mu in two_rows_of(8):
            for nu in two_rows_of(8):
                assert kron_two_tworow(deep, mu, nu) == oracle(deep, mu, nu)

    def test_zero_beyond_four_rows(self):
        lam = make_partition([2, 2, 1, 1, 1, 1])
        mu = make_partition([4, 4])
        nu = make_partition([5, 3])
        assert kron_two_tworow(lam, mu, nu) == 0
        assert oracle(lam, mu, nu) == 0

    def test_one_row_reads_as_second_part_zero(self):
        for n in range(2, 9):
            top = make_partition([n])
            for mu in two_rows_of(n):
                for nu in two_rows_of(n):
                    assert kron_two_tworow(top, mu, nu) == (1 if mu == nu else 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kron_two_tworow(make_partition([3, 3]), make_partition([2, 2, 2]), make_partition([6]))

    def test_exhaustive_vs_oracle_small(self):
        for n in range(1, 11):
            lams = [p for p in enumerate_partitions(n) if len(p) <= 4]
            rows = two_rows_of(n)
            for lam in lams:
                for mu in rows:
                    for nu in rows:
                        assert kron_two_tworow(lam, mu, nu) == oracle(lam, mu, nu)

    def test_seeded_sample_vs_oracle_beyond_exhaustive_range(self):
        # 13 triples per n: a lam of at most four rows with two genuine
        # two-row shapes, answered by compute and checked against the oracle
        rng = random.Random(20001084)
        nonzero = 0
        for n in range(15, 23):
            shapes = list(enumerate_partitions(n))
            lams = [p for p in shapes if len(p) <= 4]
            rows = [p for p in shapes if len(p) == 2]
            for _ in range(13):
                lam, mu, nu = rng.choice(lams), rng.choice(rows), rng.choice(rows)
                result = compute(lam, mu, nu)
                assert result.provenance != ORACLE, (lam, mu, nu)
                assert result.gamma == oracle(lam, mu, nu), (lam, mu, nu)
                nonzero += result.gamma > 0
        assert nonzero >= 30  # 34 of the 104 are nonzero, so zeros alone cannot pass


class TestTwoRowCorollary:
    def test_square(self):
        p = make_partition([2, 2])
        assert kron_tworow_corollary(p, p, p) == 1

    def test_three_one(self):
        p = make_partition([3, 1])
        assert kron_tworow_corollary(p, p, p) == 1

    def test_small_second_parts_vanish(self):
        # mu2 + nu2 < lam2 forces zero, in step with the oracle
        lam = make_partition([4, 4])
        mu = make_partition([7, 1])
        nu = make_partition([6, 2])
        assert kron_tworow_corollary(lam, mu, nu) == 0
        assert oracle(lam, mu, nu) == 0

    def test_agrees_with_general_form(self):
        # criterion 4 checks kron_two_tworow against the oracle on these triples
        for n in range(1, 13):
            rows = two_rows_of(n)
            for lam in rows:
                for mu in rows:
                    for nu in rows:
                        assert kron_tworow_corollary(lam, mu, nu) == kron_two_tworow(lam, mu, nu)

    def test_shape_mismatch(self):
        p = make_partition([2, 2])
        with pytest.raises(ShapeMismatch):
            kron_tworow_corollary(make_partition([2, 1, 1]), p, p)

    def test_certifies_general_form_beyond_oracle_range(self):
        # the oracle cannot reach these sizes; the two formulas are derived
        # independently, so their agreement certifies the routed one
        rng = random.Random(20261018)
        for _ in range(2000):
            n = rng.randint(20, 500)
            lam, mu, nu = (make_partition([n - k, k])
                           for k in (rng.randint(0, n // 2) for _ in range(3)))
            assert kron_tworow_corollary(lam, mu, nu) == kron_two_tworow(lam, mu, nu), (lam, mu, nu)

    def test_oracle_agrees_past_the_exhaustive_sizes(self):
        # chi^(n-2,2) is -1 on the class (n-1,1), so a sign error in the
        # oracle's (n-1)-strips moves its gamma by 2/(n-1), and the division
        # by n! fails; the norm of each row cannot see such an error
        for n in range(4, 33):
            p = make_partition([n - 2, 2])
            gamma = kron_two_tworow(p, p, p)
            assert kron_tworow_corollary(p, p, p) == gamma, n
            assert oracle(p, p, p) == gamma, n


class TestTwoHooks:
    def test_one_row_lambda_is_delta(self):
        top = make_partition([6])
        mu = make_partition([4, 1, 1])
        nu = make_partition([3, 1, 1, 1])
        assert kron_two_hooks(top, mu, mu) == 1
        assert kron_two_hooks(top, mu, nu) == 0

    def test_three_three_cell_forces_zero(self):
        lam = make_partition([3, 3, 3])
        for mu in hooks_of(9):
            for nu in hooks_of(9):
                assert kron_two_hooks(lam, mu, nu) == 0

    def test_hook_lambda_triangle(self):
        lam = make_partition([2, 1, 1])
        mu = make_partition([2, 1, 1])
        nu = make_partition([3, 1])
        assert kron_two_hooks(lam, mu, nu) == 1
        assert oracle(lam, mu, nu) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kron_two_hooks(make_partition([3, 3]), make_partition([3, 3]), make_partition([4, 1, 1]))

    def test_leg_longer_than_arm(self):
        # no pair conjugation brings every leg under its arm here; the
        # three-hook rule needs none, and compute answers it in closed form
        lam = make_partition([5, 1])
        mu = make_partition([2, 1, 1, 1, 1])
        nu = make_partition([5, 1])
        assert kron_two_hooks(lam, mu, nu) == oracle(lam, mu, nu) == 0
        result = compute(lam, mu, nu, AUTO)
        assert result.provenance == HOOK_HOOK
        assert result.gamma == 0

    def test_exhaustive_vs_oracle_small(self):
        for n in range(2, 11):
            hooks = hooks_of(n)
            for lam in enumerate_partitions(n):
                for mu in hooks:
                    for nu in hooks:
                        got = kron_two_hooks(lam, mu, nu)
                        assert got == oracle(lam, mu, nu), (lam, mu, nu)
                        assert got in (0, 1, 2)


class TestHookHookTwoRowCorollary:
    # a two-row lam with lam2 >= 2 is a double hook with d1 = d2 = 0, which
    # kron_two_hooks answers directly; (m, 1) is a hook and takes the
    # three-hook rule

    def test_value_two_is_attained(self):
        lam = make_partition([3, 2])
        mu = make_partition([3, 1, 1])
        assert kron_two_hooks(lam, mu, mu) == 2
        assert oracle(lam, mu, mu) == 2

    def test_indicators_can_both_vanish(self):
        lam = make_partition([5, 4])
        mu = make_partition([8, 1])  # e = f = 1 < lam2 - 1 and window misses
        assert kron_two_hooks(lam, mu, mu) == 0
        assert oracle(lam, mu, mu) == 0

    def test_lambda_with_unit_second_row_routes_to_hook(self):
        # (m, 1) is a hook, not a double hook; the double-hook brackets would
        # overcount here, so the three-hook rule must answer it
        lam = make_partition([3, 1])
        mu = make_partition([2, 1, 1])
        assert kron_two_hooks(lam, mu, mu) == 1
        assert oracle(lam, mu, mu) == 1


class TestHookTwoRow:
    def test_one_row_lambda(self):
        # honest delta: zero for hooks with a real leg (>= 3 parts), and the
        # match for the (m, 1) hooks that are simultaneously two-row shapes
        for n in (4, 5, 6):
            top = make_partition([n])
            for mu in hooks_of(n):
                for nu in two_rows_of(n):
                    expected = 1 if mu == nu else 0
                    if len(mu) >= 3:
                        assert expected == 0
                    assert kron_hook_tworow(top, mu, nu) == expected

    def test_leg_window(self):
        # gamma vanishes unless e1 lies within d1 + 2*d2 .. d1 + 2*d2 + 3;
        # (3,2,2,1,1) has d1=2, d2=1, n4-n3 <= d1, so the window is 4..7
        lam = make_partition([3, 2, 2, 1, 1])
        nu = make_partition([5, 4])
        for mu in hooks_of(9):
            e1, _ = hook_parts(mu)
            if not 4 <= e1 <= 7:
                assert kron_hook_tworow(lam, mu, nu) == 0, mu

    def test_single_column_lambda(self, monkeypatch):
        # conjugating {lam, mu} leaves delta(mu', nu); the kernel must answer
        # it without building mu'
        monkeypatch.setattr(closed_forms, "conjugate", None)
        for n in range(3, 13):
            col = make_partition([1] * n)
            for mu in hooks_of(n):
                for nu in two_rows_of(n):
                    assert kron_hook_tworow(col, mu, nu) == oracle(col, mu, nu), (mu, nu)

    def test_shape_mismatch(self):
        lam = make_partition([2, 2, 1])
        with pytest.raises(ShapeMismatch):  # mu not a hook
            kron_hook_tworow(lam, make_partition([3, 2]), make_partition([3, 2]))
        with pytest.raises(ShapeMismatch):  # nu of three rows
            kron_hook_tworow(lam, make_partition([3, 1, 1]), make_partition([2, 2, 1]))

    def test_documented_triple(self):
        lam = make_partition([2, 2, 1])
        mu = make_partition([2, 1, 1, 1])
        nu = make_partition([3, 2])
        assert kron_hook_tworow(lam, mu, nu) == oracle(lam, mu, nu)

    def test_normalization_by_pair_conjugation(self):
        # wide double hooks (n4 - n3 > d1) must conjugate {lam, mu} first
        lam = make_partition([6, 2])
        mu = make_partition([5, 1, 1, 1])
        nu = make_partition([4, 4])
        assert kron_hook_tworow(lam, mu, nu) == oracle(lam, mu, nu)

    def test_wide_double_hook_parameters_are_the_conjugate_pair(self):
        # the map kron_hook_tworow applies when n4 - n3 > d1, against the
        # readers on the conjugate shapes
        wide = 0
        for n in range(4, 31):
            for lam in enumerate_partitions(n):
                dh = double_hook_parts(lam)
                if dh is None or dh[3] - dh[2] <= dh[0]:
                    continue
                d1, d2, n3, n4 = dh
                assert (n4 - n3, n3 - 2, d2 + 2, d1 + d2 + 2) == double_hook_parts(conjugate(lam))
                wide += 1
            for mu in hooks_of(n):
                assert n - 1 - hook_parts(mu)[0] == hook_parts(conjugate(mu))[0]
        assert wide > 1000

    def test_exhaustive_vs_oracle_small(self):
        for n in range(2, 11):
            rows = two_rows_of(n)
            for lam in enumerate_partitions(n):
                for mu in hooks_of(n):
                    for nu in rows:
                        got = kron_hook_tworow(lam, mu, nu)
                        assert got == oracle(lam, mu, nu), (lam, mu, nu)
                        assert got in (0, 1, 2, 3)


# Each kernel with the readers that decide, from (mu, nu), whether it refuses
# the pair: it does exactly when one of its readers returns None.
KERNEL_READERS = {
    "two-row": (kron_two_tworow, two_row_parts, two_row_parts),
    "hook-hook": (kron_two_hooks, hook_parts, hook_parts),
    "hook-two-row": (kron_hook_tworow, hook_parts, two_row_parts),
}


@pytest.mark.parametrize("kernel, mu_reader, nu_reader", KERNEL_READERS.values(),
                         ids=KERNEL_READERS)
def test_kernel_refuses_exactly_the_pairs_its_readers_reject(kernel, mu_reader, nu_reader):
    # every triple with n <= 8, n = 0 included; the shapes of each n hold the
    # single column (1^n) and (n-1, 1), which is both a hook and two-row
    refused = accepted = 0
    for n in range(9):
        shapes = list(enumerate_partitions(n))
        assert make_partition([1] * n) in shapes
        assert n < 2 or make_partition([n - 1, 1]) in shapes
        for mu in shapes:
            for nu in shapes:
                rejects = mu_reader(mu) is None or nu_reader(nu) is None
                for lam in shapes:
                    try:
                        kernel(lam, mu, nu)
                    except ShapeMismatch:
                        assert rejects, (lam, mu, nu)
                        refused += 1
                    else:
                        assert not rejects, (lam, mu, nu)
                        accepted += 1
    assert refused and accepted


class TestHookKernelsBeyondExhaustiveRange:
    def test_seeded_sample_vs_oracle(self):
        # three hook, three double-hook and three general lam per n, each
        # against a hook pair and a hook/two-row pair
        rng = random.Random(20261018)
        for n in range(15, 23):
            shapes = list(enumerate_partitions(n))
            hooks = [p for p in shapes if hook_parts(p) is not None]
            double_hooks = [p for p in shapes if double_hook_parts(p) is not None]
            rows = [p for p in shapes if two_row_parts(p) is not None]
            for pool in (hooks, double_hooks, shapes):
                for _ in range(3):
                    lam, mu = rng.choice(pool), rng.choice(hooks)
                    nu = rng.choice(hooks)
                    assert kron_two_hooks(lam, mu, nu) == oracle(lam, mu, nu), (lam, mu, nu)
                    nu = rng.choice(rows)
                    assert kron_hook_tworow(lam, mu, nu) == oracle(lam, mu, nu), (lam, mu, nu)


def shapes_within(n, rows, widest):
    """Partitions of n into at most rows parts, each at most widest, as tuples."""
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, widest), 0, -1):
        for rest in shapes_within(n - first, rows - 1, first):
            yield (first,) + rest


def support_of(kernel, n):
    """The lam off which the family pairs of kernel give gamma = 0: at most
    four rows for a two-row pair, lam3 <= 2 (no cell (3,3)) when mu is a
    hook.  Built row by row, without enumerating all p(n) shapes: the top two
    rows, then a tail of twos and ones no wider than the second row."""
    if kernel is kron_two_tworow:
        return [make_partition(p) for p in shapes_within(n, 4, n)]
    return [make_partition(top + tail)
            for m in range(n + 1)
            for top in shapes_within(n - m, 2, n)
            for tail in shapes_within(m, m, min(2, top[1] if len(top) == 2 else 0))]


@lru_cache(maxsize=None)
def support_dimensions(kernel, n):
    return [(lam, dimension(lam)) for lam in support_of(kernel, n)]


def column(n, k):
    """The cycle type (k, 1^(n-k))."""
    return make_partition([k] + [1] * (n - k))


FAMILY_KERNELS = [
    (kron_two_tworow, two_rows_of, two_rows_of, 30),
    (kron_two_hooks, hooks_of, hooks_of, 24),
    (kron_hook_tworow, hooks_of, two_rows_of, 24),
]


# the seeded identity check past n = 30: one family pair per example
LARGEST_N, MAX_EXAMPLES = 50, 25


class TestDimensionIdentity:
    """chi^mu chi^nu is the character of the inner tensor product, so sum over
    lam of gamma(lam, mu, nu) chi^lam(rho) = chi^mu(rho) chi^nu(rho) for every
    class rho; at rho = 1^n it reads sum of gamma f^lam = f^mu f^nu.  A check
    of every pair of a family at sizes the oracle cannot sweep."""

    @pytest.mark.parametrize("kernel, mus_of, nus_of, n, k", [
        # the hook columns rho = (k, 1^(n-k)); k = 1, the dimension identity,
        # keeps the id it had before the other columns joined
        pytest.param(kernel, mus_of, nus_of, n, k,
                     id=f"{kernel.__name__}-{mus_of.__name__}-{nus_of.__name__}-{n}"
                        + ("" if k == 1 else f"-k{k}"))
        for kernel, mus_of, nus_of, n in FAMILY_KERNELS for k in (1, 2, 3)
    ])
    def test_family_pairs_fill_the_product_dimension(self, kernel, mus_of, nus_of, n, k):
        rho = column(n, k)
        lams = support_of(kernel, n)
        chi = {lam: character(lam, rho) for lam in lams}
        for mu in mus_of(n):
            for nu in nus_of(n):
                total = sum(kernel(lam, mu, nu) * chi[lam] for lam in lams)
                assert total == character(mu, rho) * character(nu, rho), (mu, nu)

    def test_shape_builders_match_the_shapes_they_filter(self):
        for n in range(17):
            shapes = list(enumerate_partitions(n))
            assert hooks_of(n) == [lam for lam in shapes if hook_parts(lam) is not None]
            assert two_rows_of(n) == [lam for lam in shapes if two_row_parts(lam) is not None]
            assert support_of(kron_two_tworow, n) == [lam for lam in shapes if len(lam) <= 4]
            assert (sorted(support_of(kron_two_hooks, n), key=lambda lam: lam.parts)
                    == sorted((lam for lam in shapes if len(lam) < 3 or lam.parts[2] <= 2),
                              key=lambda lam: lam.parts)), n

    @settings(max_examples=MAX_EXAMPLES)
    @given(st.data())
    def test_one_pair_past_the_exhaustive_sizes(self, data):
        n = data.draw(st.integers(31, LARGEST_N))
        kernel, mus_of, nus_of, _ = data.draw(st.sampled_from(FAMILY_KERNELS))
        mu = data.draw(st.sampled_from(mus_of(n)))
        nu = data.draw(st.sampled_from(nus_of(n)))
        total = sum(kernel(lam, mu, nu) * f for lam, f in support_dimensions(kernel, n))
        assert total == dimension(mu) * dimension(nu), (mu, nu)


class TestCompute:
    def test_two_row_dispatch(self):
        result = compute(make_partition([4, 3, 1]), make_partition([6, 2]), make_partition([5, 3]))
        assert result.provenance == TWO_ROW_TWO_ROW
        assert result.gamma == oracle(
            make_partition([4, 3, 1]), make_partition([6, 2]), make_partition([5, 3])
        )

    def test_delta_dispatch(self):
        result = compute(make_partition([5]), make_partition([3, 2]), make_partition([3, 2]))
        assert result.provenance == DELTA_RULE and result.gamma == 1

    def test_conjugation_variant(self):
        lam = make_partition([2, 2, 1, 1, 1, 1])
        mu = make_partition([4, 4])
        nu = make_partition([5, 3])
        result = compute(lam, mu, nu, AUTO)
        assert result.gamma == oracle(lam, mu, nu)

    def test_moves_round_trip(self):
        triples = [
            (make_partition([1] * 6), make_partition([3, 2, 1]), make_partition([2, 2, 2])),
            (make_partition([3, 2, 1]), make_partition([1] * 6), make_partition([4, 2])),
            (make_partition([2, 2, 2]), make_partition([3, 3]), make_partition([4, 1, 1])),
        ]
        for lam, mu, nu in triples:
            result = compute(lam, mu, nu, AUTO)
            for *shapes, moves in table_variants(lam, mu, nu):
                if moves == result.moves:
                    assert apply_moves(lam, mu, nu, moves) == tuple(shapes)
                    break
            else:
                pytest.fail(f"moves {result.moves} not among the variants")

    def test_all_variants_undo(self):
        lam = make_partition([4, 2, 1])
        mu = make_partition([3, 2, 2])
        nu = make_partition([5, 1, 1])
        seen = set()
        for *shapes, moves in table_variants(lam, mu, nu):
            assert apply_moves(lam, mu, nu, moves) == tuple(shapes)
            seen.add((*(p.parts for p in shapes), moves))
        assert len(seen) == 24

    def test_sign_twist_via_variants(self):
        # a single-column mu turns one pairwise conjugation into the delta rule
        for n in range(1, 9):
            col = make_partition([1] * n)
            for lam in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    expected = 1 if lam == conjugate(nu) else 0
                    assert compute(lam, col, nu, AUTO).gamma == expected

    def test_closed_only_raises_when_nothing_applies(self):
        lam = make_partition([3, 3, 3])
        with pytest.raises(NoClosedFormApplicable):
            compute(lam, lam, lam, CLOSED_ONLY)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            compute(make_partition([3]), make_partition([2, 1]), make_partition([2, 2]))

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            compute(make_partition([2]), make_partition([2]), make_partition([2]), "guess")

    def test_sampled_dispatch_beyond_exhaustive_range(self):
        # spot-check dispatch at sizes past the exhaustive sweeps; results
        # must match the oracle and be reproducible call to call
        rng = random.Random(20260810)
        for n in (12, 15, 18):
            shapes = list(enumerate_partitions(n))
            for _ in range(12):
                lam, mu, nu = (rng.choice(shapes) for _ in range(3))
                result = compute(lam, mu, nu, AUTO)
                assert result.gamma == oracle(lam, mu, nu), (lam, mu, nu)
                assert compute(lam, mu, nu, AUTO) == result

    def test_mode_independence_exhaustive(self):
        # every triple through n = 10: auto, closed (when it applies) and the
        # oracle must agree
        for n in range(1, 11):
            shapes = list(enumerate_partitions(n))
            table = {}
            for lam in shapes:
                for mu in shapes:
                    for nu in shapes:
                        key = tuple(sorted((lam.parts, mu.parts, nu.parts)))
                        if key not in table:
                            table[key] = kron_oracle(lam, mu, nu).gamma
                        expected = table[key]
                        assert compute(lam, mu, nu, AUTO).gamma == expected, (lam, mu, nu)
                        try:
                            closed = compute(lam, mu, nu, CLOSED_ONLY).gamma
                        except NoClosedFormApplicable:
                            continue
                        assert closed == expected, (lam, mu, nu)
        assert compute(make_partition([2, 1]), make_partition([2, 1]),
                       make_partition([2, 1]), ORACLE_ONLY).gamma == 1


@st.composite
def any_partition(draw, n):
    parts = []
    while n:
        parts.append(draw(st.integers(1, n)))
        n -= parts[-1]
    return make_partition(parts)


@st.composite
def double_hook(draw, n):
    n3 = draw(st.integers(2, n // 2))
    d2 = draw(st.integers(0, (n - 2 * n3) // 2))
    d1 = draw(st.integers(0, n - 2 * n3 - 2 * d2))
    return make_partition([n - n3 - 2 * d2 - d1, n3] + [2] * d2 + [1] * d1)


def two_row_or_hook(n):
    return st.one_of(st.integers(0, n // 2).map(lambda k: make_partition([n - k, k])),
                     st.integers(1, n - 2).map(lambda e: make_partition([n - e] + [1] * e)))


@st.composite
def window_triple(draw, n):
    """A double hook lam with a hook mu and a two-row nu drawn around the
    window of the hook/two-row formula in lam's parameters, where gamma is
    often nonzero."""
    lam = draw(double_hook(n))
    d1, d2, n3, _ = double_hook_parts(lam)
    e1 = min(max(d1 + 2 * d2 + draw(st.integers(0, 3)), 1), n - 2)
    nu2 = min(n3 + d2 + draw(st.integers(-1, 1)), n // 2)
    return lam, make_partition([n - e1] + [1] * e1), make_partition([n - nu2, nu2])


@st.composite
def closed_triples(draw):
    n = draw(st.integers(15, 80))
    generic = st.tuples(st.one_of(any_partition(n), double_hook(n)), two_row_or_hook(n),
                        two_row_or_hook(n))
    return draw(st.one_of(generic, window_triple(n)))


class TestSymmetryInvariance:
    @given(closed_triples())
    def test_gamma_is_the_same_on_all_24_presentations(self, triple):
        # two-row or hook mu and nu: a closed form answers every presentation
        gamma = compute(*triple, CLOSED_ONLY).gamma
        for *shapes, _ in table_variants(*triple):
            assert compute(*shapes, CLOSED_ONLY).gamma == gamma, shapes


class TestInvariants:
    """gamma >= 0 and the hook/two-row case split raise, even under python -O."""

    def test_negative_kernel_value_raises(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "kron_two_tworow", lambda lam, mu, nu: -1)
        with pytest.raises(InvariantViolation):
            compute(make_partition([4, 3, 1]), make_partition([6, 2]), make_partition([5, 3]))

    def test_negative_two_row_difference_raises(self, monkeypatch):
        # Gamma growing with the region height makes the difference negative
        monkeypatch.setattr(closed_forms, "gamma_region_closed", lambda a, b, h, c, x, y: h)
        with pytest.raises(InvariantViolation):
            kron_two_tworow(make_partition([4, 3, 1]), make_partition([6, 2]),
                            make_partition([5, 3]))

    def test_hook_tworow_case_split_raises(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "double_hook_parts", lambda lam: None)
        with pytest.raises(InvariantViolation):
            kron_hook_tworow(make_partition([3, 2, 1]), make_partition([4, 1, 1]),
                             make_partition([4, 2]))

    def test_negative_oracle_value_raises(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "kron_oracle",
                            lambda lam, mu, nu: KroneckerResult(-1, ORACLE))
        lam = make_partition([3, 2, 1])
        for method in (AUTO, ORACLE_ONLY):  # the auto fallback and the oracle mode
            with pytest.raises(InvariantViolation):
                compute(lam, lam, lam, method)

    def test_check_survives_optimize_flag(self):
        script = (
            "from kroncoef import closed_forms, make_partition\n"
            "closed_forms.kron_two_tworow = lambda lam, mu, nu: -1\n"
            "try:\n"
            "    closed_forms.compute(*(make_partition(p) for p in ([4, 3, 1], [6, 2], [5, 3])))\n"
            "except closed_forms.InvariantViolation:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(closed_forms.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "raised"

    def test_block_check_survives_optimize_flag(self):
        script = (
            "from kroncoef import closed_forms, enumerate_partitions, make_partition\n"
            "lam = make_partition([3, 2, 1])\n"
            "nus = list(enumerate_partitions(6))\n"
            "at = nus.index(lam)\n"
            "closed_forms.kron_oracle_column = (\n"
            "    lambda lam, mu, nus: [-1 if i == at else 0 for i in range(len(nus))])\n"
            "try:\n"
            "    closed_forms._compute_block(lam, lam, nus)\n"
            "except closed_forms.InvariantViolation:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(closed_forms.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "raised"


class TestResultRecord:
    """KroneckerResult is an immutable, hashable record of (gamma, provenance, moves)."""

    def test_positional_and_keyword_construction_agree(self):
        positional = KroneckerResult(2, TWO_ROW_TWO_ROW)
        assert positional == KroneckerResult(gamma=2, provenance=TWO_ROW_TWO_ROW, moves=())
        assert positional.moves == ()

    def test_repr(self):
        result = compute(make_partition([4, 3, 1]), make_partition([6, 2]), make_partition([5, 3]))
        assert repr(result) == "KroneckerResult(gamma=2, provenance='TwoRowTwoRow', moves=())"

    def test_fields_cannot_be_assigned(self):
        result = KroneckerResult(2, TWO_ROW_TWO_ROW)
        with pytest.raises(AttributeError):
            result.gamma = 3

    def test_equal_results_hash_alike(self):
        moves = ("permute(1,0,2)",)
        first = KroneckerResult(1, HOOK_HOOK, moves)
        second = KroneckerResult(gamma=1, provenance=HOOK_HOOK, moves=moves)
        assert first == second and hash(first) == hash(second)


def size_message(lam, mu, nu):
    """The message _check_sizes raises for the triple."""
    with pytest.raises(SizeMismatch) as caught:
        closed_forms._check_sizes(lam, mu, nu)
    return str(caught.value)


class TestComputeBlockSizes:
    """_compute_block refuses a triple of mixed sizes before it evaluates any
    row, at the first mis-sized nu, with compute's message."""

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_nu_of_another_size_first_or_last(self, monkeypatch, where):
        # (3,2,1)^3 is an oracle row, and the block's column holds every nu,
        # so a bad nu after it must be refused before the column is asked for
        lam, bad = make_partition([3, 2, 1]), make_partition([3, 2, 1, 1])
        shapes = list(enumerate_partitions(6))
        nus = [bad, *shapes] if where == "first" else [*shapes, bad]

        def refuse(*args):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(closed_forms, "kron_oracle_column", refuse)
        monkeypatch.setattr(closed_forms, "_closed_answer", refuse)
        with pytest.raises(SizeMismatch) as caught:
            closed_forms._compute_block(lam, lam, nus)
        assert str(caught.value) == size_message(lam, lam, bad)

    def test_first_nu_of_another_size_at_a_closed_row(self):
        # the delta rule reads no size, so only the block's own check refuses (7)
        lam = make_partition([3, 2, 1])
        nus = [make_partition([7]), *enumerate_partitions(6)]
        with pytest.raises(SizeMismatch) as caught:
            closed_forms._compute_block(lam, lam, nus)
        assert str(caught.value) == size_message(lam, lam, nus[0])

    def test_first_nu_of_another_size_at_an_oracle_row(self):
        lam = make_partition([3, 2, 1])
        nus = [make_partition([3, 2, 1, 1]), *enumerate_partitions(6)]
        with pytest.raises(SizeMismatch) as caught:
            closed_forms._compute_block(lam, lam, nus)
        assert str(caught.value) == size_message(lam, lam, nus[0])

    def test_mu_of_another_size(self):
        lam, mu = make_partition([3, 2, 1]), make_partition([4, 3])
        nus = list(enumerate_partitions(6))
        with pytest.raises(SizeMismatch) as caught:
            closed_forms._compute_block(lam, mu, nus)
        assert str(caught.value) == size_message(lam, mu, nus[0])

    def test_empty_nus(self):
        lam = make_partition([3, 2, 1])
        assert closed_forms._compute_block(lam, lam, []) == []
