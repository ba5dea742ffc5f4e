import pytest

from kroncoef import (
    gamma_region_bruteforce,
    gamma_region_closed,
    reachable,
    sigma_bruteforce,
    sigma_closed,
)


class TestReachable:
    def test_zero_steps(self):
        assert reachable((0, 4), (0, 4))

    def test_cone_and_parity(self):
        assert reachable((0, 4), (2, 2))
        assert not reachable((0, 4), (1, 2))  # parity breaks

    def test_column_never_grows(self):
        assert not reachable((0, 4), (0, 5))

    def test_documented_cone_from_0_4(self):
        # the nine points of the 9x5 rectangle reachable from (0, 4)
        cone = {(u, v) for u in range(5) for v in range(9) if reachable((0, 4), (u, v))}
        assert cone == {(0, 0), (0, 2), (0, 4), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (4, 0)}


class TestSigma:
    def test_negative_start_is_zero(self):
        assert sigma_closed(7, 4, -3) == 0
        assert sigma_bruteforce(7, 4, -3) == 0

    def test_single_cell(self):
        assert sigma_bruteforce(1, 1, 0) == 1
        assert sigma_closed(1, 1, 0) == 1

    def test_far_start_with_parity(self):
        # from (0, 10) every cell of matching parity in a 2x3 box is reachable
        assert sigma_bruteforce(3, 2, 10) == 3
        assert sigma_closed(3, 2, 10) == 3

    def test_closed_equals_bruteforce(self):
        for k in range(1, 11):
            for l in range(1, 11):
                for h in range(-2, k + l + 5):
                    assert sigma_closed(k, l, h) == sigma_bruteforce(k, l, h), (k, l, h)

    def test_transposition_symmetry(self):
        for k in range(1, 13):
            for l in range(1, 13):
                for h in range(-2, k + l + 5):
                    assert sigma_bruteforce(k, l, h) == sigma_bruteforce(l, k, h)

    def test_weakly_increasing_in_h_per_parity(self):
        # the cone from (0, h) only contains the cone from (0, h-2): adjacent
        # h values have disjoint parities, so monotonicity holds in steps of 2
        for k in range(1, 8):
            for l in range(1, 8):
                values = [sigma_bruteforce(k, l, h) for h in range(0, k + l + 4)]
                assert all(a <= b for a, b in zip(values, values[2:]))

    def test_rejects_empty_rectangle(self):
        with pytest.raises(ValueError):
            sigma_closed(0, 3, 1)
        with pytest.raises(ValueError):
            sigma_bruteforce(3, 0, 1)


class TestGammaRegion:
    def test_start_far_left_of_region(self):
        # x + y - a - c < 0 gives an empty cone
        assert gamma_region_closed(5, 1, 4, 2, 1, 1) == 0

    def test_case_one_matches_sigma(self):
        assert gamma_region_closed(0, 2, 1, 2, 3, 1) == sigma_closed(3, 3, 3)
        assert gamma_region_bruteforce(0, 2, 1, 2, 3, 1) == sigma_closed(3, 3, 3)

    def test_start_past_region_reduces_to_sigma(self):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        for x in range(a + b + c + d + 4):
                            for y in range(c + d, x + 1):
                                assert gamma_region_closed(a, b, c, d, x, y) == sigma_closed(
                                    b + 1, d + 1, x - y + c + d - a
                                )

    def test_start_inside_region_counts_itself(self):
        assert gamma_region_bruteforce(2, 3, 1, 4, 2, 1) >= 1

    def test_bounded_by_region_size(self):
        for x in range(12):
            for y in range(12):
                assert gamma_region_bruteforce(1, 2, 3, 4, x, y) <= 3 * 5

    def test_closed_equals_bruteforce_where_y_dominates(self):
        # start columns right of the diagonal x = y, and left of column 0
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        top = a + b + c + d
                        for x in range(-2, top + 5):
                            for y in range(-3, top + 11):
                                if 0 <= y <= x:
                                    continue  # the x >= y points: acceptance criterion 3
                                assert gamma_region_closed(
                                    a, b, c, d, x, y
                                ) == gamma_region_bruteforce(a, b, c, d, x, y), (a, b, c, d, x, y)

    def test_closed_equals_bruteforce_at_two_row_kernel_points(self):
        # kron_two_tworow evaluates Gamma at x = nu2 <= mu2 < y = mu2 + 1 for
        # lam = (l1, l2, l3, l4); every such point through n = 30
        for n in range(1, 31):
            for l4 in range(n // 4 + 1):
                for l3 in range(l4, (n - l4) // 3 + 1):
                    for l2 in range(l3, (n - l3 - l4) // 2 + 1):
                        l1 = n - l2 - l3 - l4
                        a, b = l3 + l4, l2 - l3
                        c, d = min(l1 - l2, l3 - l4), abs(l1 + l4 - l2 - l3)
                        for mu2 in range(n // 2 + 1):
                            for nu2 in range(mu2 + 1):
                                for height in (a + b + 1, a + b + c + d + 2):
                                    args = (a, b, height, c, nu2, mu2 + 1)
                                    assert gamma_region_closed(*args) == gamma_region_bruteforce(
                                        *args
                                    ), args

    def test_bfs_cross_check_example(self):
        got = gamma_region_bruteforce(4, 2, 0, 3, 5, 2)
        assert got == gamma_region_closed(4, 2, 0, 3, 5, 2)


def brute_cone(start, rows, cols):
    """Independent cone construction by breadth-first stepping."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for r, c in frontier:
            for q in ((r + 1, c - 1), (r - 1, c - 1)):
                if q[0] >= 0 and q[1] >= 0 and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return {(r, c) for r, c in seen if r < rows and c < cols}


def test_reachable_agrees_with_bfs():
    for h in range(0, 9):
        expected = brute_cone((0, h), 6, 8)
        got = {(u, v) for u in range(6) for v in range(8) if reachable((0, h), (u, v))}
        assert got == expected

