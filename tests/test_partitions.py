import math
import pickle
import random
from collections import Counter

import pytest

from kroncoef import (
    NegativePart,
    Partition,
    conjugate,
    double_hook_parts,
    enumerate_partitions,
    hook_parts,
    make_partition,
    two_row_parts,
    z_of,
)
from kroncoef.partitions import _partition_tuples


def partition_count(n):
    """Independent p(n) oracle: Euler's pentagonal-number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


class TestMakePartition:
    def test_already_normalized(self):
        p = make_partition([4, 3, 1])
        assert p.parts == (4, 3, 1)
        assert p.n == 8

    def test_sorts_and_strips_zeros(self):
        assert make_partition([1, 3, 0, 4]) == make_partition([4, 3, 1])

    def test_all_zeros_is_empty(self):
        p = make_partition([0, 0])
        assert p.parts == () and p.n == 0

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativePart):
            make_partition([3, -1])

    def test_non_integer_parts_rejected(self):
        # parts are read with operator.index: nothing is truncated or parsed
        with pytest.raises(TypeError):
            Partition([2.5, 1])
        with pytest.raises(TypeError):
            Partition(["3"])

    def test_text_round_trip(self):
        assert str(Partition.from_text("4,3,1")) == "4,3,1"
        assert Partition.from_text("") == Partition()
        assert str(Partition()) == ""


def reference_conjugate(lam):
    """The column-count definition lam'_i = #{j : lam_j >= i}, one pass over
    the parts per column: the twin that the linear-time conjugate is checked
    against."""
    if not lam.parts:
        return Partition()
    return Partition(sum(1 for p in lam.parts if p >= i) for i in range(1, lam.parts[0] + 1))


def large_shapes():
    """Seeded two-row shapes to n = 5000 and hooks to n = 1000 (each with its
    extremes), rectangles and staircases."""
    rng = random.Random(20001084)
    shapes = [[5000], [2500, 2500], [1] * 1000, [999, 1], [500] + [1] * 500]
    for _ in range(20):
        n = rng.randint(2, 5000)
        second = rng.randint(0, n // 2)
        shapes.append([n - second, second])
    for _ in range(10):
        n = rng.randint(3, 1000)
        arm = rng.randint(2, n - 1)
        shapes.append([arm] + [1] * (n - arm))
    for rows, cols in ((1, 70), (70, 1), (40, 60), (60, 40), (3, 500), (500, 3)):
        shapes.append([cols] * rows)
    for top in (2, 3, 17, 100, 180):
        shapes.append(list(range(top, 0, -1)))
        shapes.append([p for p in range(top, 0, -1) for _ in range(3)])
    return [Partition(parts) for parts in shapes]


class TestConjugate:
    def test_matches_reference_to_20(self):
        for n in range(21):
            for lam in enumerate_partitions(n):
                assert conjugate(lam) == reference_conjugate(lam)

    def test_matches_reference_on_large_shapes(self):
        for lam in large_shapes():
            assert conjugate(lam) == reference_conjugate(lam)

    def test_memoized_on_the_instance(self):
        lam = make_partition([5, 3, 3, 1])
        first = conjugate(lam)
        assert conjugate(lam) is first
        assert first._conjugate is None  # no back-pointer, so no reference cycle
        assert conjugate(first) == lam

    def test_pickle_round_trip(self):
        lam = make_partition([6, 4, 4, 2, 1])
        assert pickle.loads(pickle.dumps(lam)) == lam
        conjugate(lam)
        again = pickle.loads(pickle.dumps(lam))
        assert again == lam
        assert conjugate(again) == conjugate(lam)

    def test_instances_have_no_dict(self):
        lam = make_partition([3, 1])
        conjugate(lam)
        assert not hasattr(lam, "__dict__")

    def test_documented_example(self):
        assert conjugate(make_partition([4, 3, 1])) == make_partition([3, 2, 2, 1])

    def test_row_column_exchange(self):
        for n in range(1, 9):
            assert conjugate(make_partition([n])) == make_partition([1] * n)

    def test_involution_up_to_12(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam

    def test_hook_conjugates_to_hook(self):
        for n in range(3, 13):
            for lam in enumerate_partitions(n):
                hk = hook_parts(lam)
                if hk is None:
                    continue
                e, m = hk
                if m - 1 >= 1 and e + 1 >= 2:
                    assert hook_parts(conjugate(lam)) == (m - 1, e + 1)


def most_specific_class(lam):
    """Most specific shape class in the order OneRow > SingleColumn > TwoRow >
    Hook > DoubleHook > AtMostFourRows > General, read from the structural
    readers; the classes overlap as plain predicates."""
    if len(lam) <= 1:
        return "OneRow"
    if len(conjugate(lam)) <= 1:
        return "SingleColumn"
    if two_row_parts(lam) is not None:
        return "TwoRow"
    if hook_parts(lam) is not None:
        return "Hook"
    if double_hook_parts(lam) is not None:
        return "DoubleHook"
    if len(lam) <= 4:
        return "AtMostFourRows"
    return "General"


class TestClassify:
    """Shape classes and their parameters as the structural readers report them."""

    @pytest.mark.parametrize(
        "parts, tag",
        [
            ([7], "OneRow"),
            ([1], "OneRow"),
            ([1, 1, 1], "SingleColumn"),
            ([1, 1], "SingleColumn"),
            ([5, 3], "TwoRow"),
            ([2, 2], "TwoRow"),
            ([3, 1, 1], "Hook"),
            ([2, 1, 1, 1], "Hook"),
            ([3, 2, 2, 1], "DoubleHook"),
            ([3, 3, 3], "AtMostFourRows"),
            ([3, 3, 3, 1, 1], "General"),
        ],
    )
    def test_tags(self, parts, tag):
        assert most_specific_class(make_partition(parts)) == tag

    def test_two_row_parameters(self):
        assert two_row_parts(make_partition([5, 3])) == (5, 3)

    def test_hook_parameters(self):
        assert hook_parts(make_partition([3, 1, 1])) == (2, 3)

    def test_double_hook_decomposition(self):
        assert double_hook_parts(make_partition([4, 3, 2, 2, 1, 1])) == (2, 2, 3, 4)

    def test_degenerate_hooks_are_not_hooks(self):
        # (n) and (1^n) lack a genuine arm or leg
        assert hook_parts(make_partition([6])) is None
        assert hook_parts(make_partition([1] * 6)) is None

    def test_rewrite_keeps_n4_positive(self):
        # shapes whose multiplicity reading would give n4 = 0
        for parts in ([2, 2], [3, 2, 2, 1], [2, 2, 2], [2, 2, 1, 1]):
            dh = double_hook_parts(make_partition(parts))
            assert dh is not None
            d1, d2, n3, n4 = dh
            assert n4 >= n3 >= 2
            assert d1 + 2 * d2 + n3 + n4 == sum(parts)

    def test_structural_readers(self):
        assert two_row_parts(make_partition([6])) == (6, 0)
        assert two_row_parts(make_partition([4, 2])) == (4, 2)
        assert two_row_parts(make_partition([3, 2, 1])) is None
        assert double_hook_parts(make_partition([3, 1, 1])) is None  # (2,2) missing

    def test_shape_code_halves_swap_under_conjugation(self):
        # own classes in bits 0-2, the conjugate's in bits 9-11
        for n in range(13):
            for lam in enumerate_partitions(n):
                code = lam.shape_code
                swapped = (code & 7) << 9 | code >> 9
                assert conjugate(lam).shape_code == swapped, lam

    def test_shape_code_ignores_order_and_zeros(self):
        assert Partition([1, 3, 0, 4]).shape_code == Partition([4, 3, 1]).shape_code
        assert Partition([0, 0]).shape_code == Partition().shape_code
        rng = random.Random(18)
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                raw = list(lam.parts) + [0] * rng.randint(0, 3)
                rng.shuffle(raw)
                assert Partition(raw).shape_code == lam.shape_code, raw


class TestZ:
    @pytest.mark.parametrize(
        "parts, expected",
        [([1, 1, 1], 6), ([2, 1], 2), ([3, 2, 2, 1], 24)],
    )
    def test_values(self, parts, expected):
        assert z_of(make_partition(parts)) == expected
        assert z_of(tuple(parts)) == expected  # a part tuple reads the same

    def test_divides_factorial(self):
        for n in range(1, 13):
            nf = math.factorial(n)
            for lam in enumerate_partitions(n):
                assert nf % z_of(lam) == 0

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 11):
            nf = math.factorial(n)
            assert sum(nf // z_of(lam) for lam in enumerate_partitions(n)) == nf

    def test_running_product_matches_multiplicity_formula(self):
        for n in range(21):
            for lam in enumerate_partitions(n):
                expected = 1
                for part, d in Counter(lam.parts).items():
                    expected *= part**d * math.factorial(d)
                assert z_of(lam) == expected, lam


class TestEnumerate:
    def test_zero(self):
        assert list(enumerate_partitions(0)) == [Partition()]

    def test_order_for_four(self):
        got = [p.parts for p in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts_match_recurrence(self):
        for n in range(31):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

    def test_no_duplicates(self):
        for n in range(15):
            seen = list(enumerate_partitions(n))
            assert len(set(seen)) == len(seen)
            assert all(p.n == n for p in seen)

    def test_iterative_generator_matches_recursive_twin(self):
        for n in range(26):
            got = list(_partition_tuples(n))
            assert got == list(recursive_partition_tuples(n, n)), n
            assert len(got) == partition_count(n)


def recursive_partition_tuples(n, max_part):
    """The recursive twin of _partition_tuples: largest first part first,
    then every partition of the rest with parts at most that first part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in recursive_partition_tuples(n - first, first):
            yield (first,) + rest
