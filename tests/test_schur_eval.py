import random
from fractions import Fraction
from itertools import permutations

import pytest

from kroncoef import (
    Partition,
    RepeatedValue,
    SignedAlphabet,
    SingularPoint,
    alphabet_negate,
    alphabet_product,
    alphabet_sum,
    enumerate_partitions,
    kron_oracle,
    make_partition,
    power_sum_eval,
    schur_eval_bialternant,
    schur_eval_characters,
    verify_comultiplication,
    verify_sergeev_specializations,
)
from kroncoef.schur_eval import (
    rhs_double_hook_difference,
    rhs_hook_difference,
    rhs_hook_difference_four_term,
    rhs_one_column_difference,
    rhs_one_row_difference,
    rhs_two_row_sum,
    sample_fractions,
)

F = Fraction


def positive(*values):
    return SignedAlphabet.positive([F(v) for v in values])


class TestAlphabets:
    def test_sum_is_concatenation(self):
        combined = alphabet_sum(positive(1), positive(F(1, 2)))
        assert combined.values() == (F(1), F(1, 2))
        assert power_sum_eval(2, combined) == F(5, 4)

    def test_sum_identity(self):
        a = positive(2, 3)
        assert alphabet_sum(a, SignedAlphabet()) == a

    def test_power_sums_add_over_sums(self):
        rng = random.Random(7)
        for _ in range(10):
            a = SignedAlphabet.positive(sample_fractions(rng, 3))
            b = SignedAlphabet.positive(sample_fractions(rng, 2))
            for r in range(1, 7):
                assert power_sum_eval(r, alphabet_sum(a, b)) == power_sum_eval(
                    r, a
                ) + power_sum_eval(r, b)

    def test_product_expands_letters(self):
        x, y = F(5), F(7)
        product = alphabet_product(positive(1, x), positive(1, y))
        assert sorted(product.values()) == sorted([F(1), y, x, x * y])

    def test_product_identity(self):
        a = positive(2, 3, 5)
        assert alphabet_product(a, positive(1)) == a

    def test_power_sums_multiply_over_products(self):
        rng = random.Random(11)
        for _ in range(10):
            a = SignedAlphabet.positive(sample_fractions(rng, 2))
            b = SignedAlphabet.positive(sample_fractions(rng, 3))
            for r in range(1, 7):
                assert power_sum_eval(r, alphabet_product(a, b)) == power_sum_eval(
                    r, a
                ) * power_sum_eval(r, b)

    def test_signed_entry_is_not_a_negative_letter(self):
        subtracted = SignedAlphabet([(-1, F(2))])
        negative_letter = positive(-2)
        assert power_sum_eval(2, subtracted) == -4
        assert power_sum_eval(2, negative_letter) == 4

    def test_negate(self):
        a = SignedAlphabet([(1, F(1)), (-1, F(3))])
        assert power_sum_eval(1, alphabet_negate(a)) == -power_sum_eval(1, a)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedAlphabet([(2, F(1))])


class TestPowerSums:
    def test_difference_linear(self):
        a = SignedAlphabet([(1, F(1)), (-1, F(2, 3))])
        assert power_sum_eval(1, a) == F(1, 3)

    def test_four_letter_difference_square(self):
        x, y = F(2), F(5)
        a = SignedAlphabet([(1, F(1)), (-1, x), (-1, y), (1, x * y)])
        assert power_sum_eval(2, a) == 1 - x**2 - y**2 + (x * y) ** 2

    def test_empty_alphabet(self):
        assert power_sum_eval(3, SignedAlphabet()) == 0

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            power_sum_eval(0, positive(1))


class TestSchurEvaluators:
    def test_single_row_single_letter(self):
        t = F(3, 4)
        for n in range(1, 6):
            assert schur_eval_characters(make_partition([n]), positive(t)) == t**n

    def test_column_two_letters(self):
        x = F(5, 7)
        assert schur_eval_characters(make_partition([1, 1]), positive(1, x)) == x

    def test_empty_shape_is_one(self):
        assert schur_eval_characters(Partition(), positive(2, 3)) == 1

    def test_bialternant_single_box(self):
        a, b = F(2), F(7, 2)
        assert schur_eval_bialternant(make_partition([1]), positive(a, b)) == a + b

    def test_bialternant_agrees_with_characters(self):
        lam = make_partition([2, 1])
        alpha = positive(1, 2, 3)
        value = schur_eval_bialternant(lam, alpha)
        assert value == schur_eval_characters(lam, alpha)

    def test_dual_methods_agree_up_to_6(self):
        rng = random.Random(2718)
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                size = max(len(lam), 3)
                for _ in range(5):
                    alpha = SignedAlphabet.positive(sample_fractions(rng, size))
                    assert schur_eval_bialternant(lam, alpha) == schur_eval_characters(lam, alpha)

    def test_permutation_invariance(self):
        lam = make_partition([3, 1])
        values = [F(1), F(2), F(5, 3)]
        reference = schur_eval_bialternant(lam, SignedAlphabet.positive(values))
        for perm in permutations(values):
            assert schur_eval_bialternant(lam, SignedAlphabet.positive(perm)) == reference

    def test_repeated_value_rejected(self):
        with pytest.raises(RepeatedValue):
            schur_eval_bialternant(make_partition([2, 1]), positive(1, 1, 2))

    def test_signed_alphabet_rejected_by_bialternant(self):
        with pytest.raises(ValueError):
            schur_eval_bialternant(make_partition([1]), SignedAlphabet([(-1, F(1))]))

    def test_homogeneity(self):
        rng = random.Random(99)
        c = F(3, 5)
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                values = sample_fractions(rng, 3)
                plain = schur_eval_characters(lam, SignedAlphabet.positive(values))
                scaled = schur_eval_characters(
                    lam, SignedAlphabet.positive([c * v for v in values])
                )
                assert scaled == c**n * plain


class TestSampleFractions:
    def test_the_whole_pool_is_drawn(self):
        pool = {F(p, q) for p in range(1, 14) for q in range(1, 14)}
        assert len(pool) == 115
        values = sample_fractions(random.Random(1), 115)
        assert set(values) == pool

    def test_a_count_past_the_pool_is_refused(self):
        # there are only 115 distinct p/q with 1 <= p, q <= 13
        with pytest.raises(ValueError, match="115"):
            sample_fractions(random.Random(1), 116)


class TestComultiplication:
    def test_tiny_hand_checkable(self):
        assert verify_comultiplication(make_partition([2]), positive(1, 2), positive(1, 3))

    def test_all_shapes_through_6(self):
        rng = random.Random(424242)
        for n in range(1, 7):
            x = SignedAlphabet.positive(sample_fractions(rng, 3))
            y = SignedAlphabet.positive(sample_fractions(rng, 3))
            for lam in enumerate_partitions(n):
                assert verify_comultiplication(lam, x, y)

    def test_auto_gamma_source_matches(self):
        rng = random.Random(5)
        x = SignedAlphabet.positive(sample_fractions(rng, 3))
        y = SignedAlphabet.positive(sample_fractions(rng, 3))
        for lam in enumerate_partitions(4):
            assert verify_comultiplication(lam, x, y, gamma_source="auto")

    def test_unknown_gamma_source_is_refused(self):
        with pytest.raises(ValueError, match="orcale"):
            verify_comultiplication(make_partition([2]), positive(1, 2), positive(1, 3),
                                    gamma_source="orcale")

    def test_perturbed_gamma_is_detected(self):
        # the identity must fail if any single coefficient is off by one
        lam = make_partition([2, 1])
        x, y = positive(1, 2, 4), positive(1, 3, 5)
        from kroncoef.schur_eval import alphabet_product as product
        from kroncoef.schur_eval import schur_eval_characters as ev

        shapes = list(enumerate_partitions(3))
        lhs = ev(lam, product(x, y))
        rhs = sum(
            kron_oracle(lam, mu, nu).gamma * ev(mu, x) * ev(nu, y)
            for mu in shapes
            for nu in shapes
        )
        assert lhs == rhs
        perturbed = rhs + ev(shapes[0], x) * ev(shapes[1], y)
        assert lhs != perturbed


class TestSergeevSpecializations:
    def test_hook_difference_example(self):
        mu = make_partition([3, 1, 1])  # (1^2 3) of size 5
        x1, x2 = F(2), F(1, 2)
        lhs = schur_eval_characters(mu, SignedAlphabet([(1, x1), (-1, x2)]))
        assert lhs == rhs_hook_difference(2, 3, x1, x2)

    def test_two_row_sum_example(self):
        nu = make_partition([3, 2])
        y1, y2 = F(1, 3), F(4)
        lhs = schur_eval_characters(nu, positive(y1, y2))
        assert lhs == rhs_two_row_sum(3, 2, y1, y2)

    def test_double_hook_with_rewrite_path(self):
        # (3,2,2,1) reads as d1=1, d2=1, n3=2, n4=3 after the forced rewrite
        lam = make_partition([3, 2, 2, 1])
        u1, u2, v1, v2 = F(2), F(3), F(5), F(7, 2)
        lhs = schur_eval_characters(
            lam, SignedAlphabet([(1, u1), (1, u2), (-1, v1), (-1, v2)])
        )
        assert lhs == rhs_double_hook_difference(1, 1, 2, 3, u1, u2, v1, v2)

    def test_four_term_hook_difference(self):
        lam = make_partition([2, 1])
        u1, u2, v1, v2 = F(2), F(1), F(3), F(5)
        lhs = schur_eval_characters(
            lam, SignedAlphabet([(1, u1), (1, u2), (-1, v1), (-1, v2)])
        )
        assert lhs == rhs_hook_difference_four_term(1, 2, u1, u2, v1, v2)
        assert lhs == F(6)

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_one_row_and_one_column_differences(self, n):
        rng = random.Random(n)
        for _ in range(3):
            u1, u2, v1, v2 = sample_fractions(rng, 4)
            alphabet = SignedAlphabet([(1, u1), (1, u2), (-1, v1), (-1, v2)])
            assert schur_eval_characters(make_partition([n]), alphabet) == (
                rhs_one_row_difference(n, u1, u2, v1, v2))
            assert schur_eval_characters(make_partition([1] * n), alphabet) == (
                rhs_one_column_difference(n, u1, u2, v1, v2))

    def test_singular_points_rejected(self):
        with pytest.raises(SingularPoint):
            rhs_two_row_sum(3, 1, F(2), F(2))
        with pytest.raises(SingularPoint):
            rhs_double_hook_difference(0, 0, 2, 2, F(1), F(1), F(2), F(3))
        with pytest.raises(SingularPoint):
            rhs_hook_difference_four_term(1, 2, F(1), F(2), F(3), F(3))

    def test_sweep_small(self):
        assert verify_sergeev_specializations(6, seed=2718, points=3)

    def test_sweep_is_seed_deterministic(self):
        assert verify_sergeev_specializations(4, seed=77, points=2)
        assert verify_sergeev_specializations(4, seed=77, points=2)
