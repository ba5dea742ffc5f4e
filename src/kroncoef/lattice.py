"""Lattice-point counting primitives: the reachability cone, the rectangle
count sigma and the translated rectangle count Gamma.

Coordinates are matrix style: point (i, j) sits in row i, column j, and (0, 0)
is the upper-left corner.  Every closed form here has a literal brute-force
twin, and the test suite certifies their exhaustive agreement.

A note on orientation, because the two counting families genuinely differ:

* ``reachable``/``sigma_*`` use the cone whose steps decrease the *column* by
  one while moving the row by +-1.  This is the only orientation under which
  the documented example values sigma_{9,5}(4) = 9 and sigma_{9,5}(8) = 19
  hold.
* ``gamma_region_*`` count cones in the transposed frame (steps decrease the
  *row*, moving the column by +-1), the frame presumed by the closed form's
  case split on the starting column and the frame in which the two-row
  Kronecker formula consumes these counts.  The brute force writes out the
  ``reachable`` test inline with both coordinate pairs swapped.  The closed
  form holds at every start point (x, y), on both sides of the diagonal: the
  two-row formula evaluates it at x = nu2 < y = mu2 + 1.
"""

from __future__ import annotations


def reachable(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """True iff q can be reached from p by steps (row+1, col-1) / (row-1, col-1),
    with zero steps allowed (every point reaches itself)."""
    (r, c), (u, v) = p, q
    return v <= c and abs(u - r) <= c - v and (u - r - (c - v)) % 2 == 0


def sigma_bruteforce(k: int, l: int, h: int) -> int:
    """Literal count of points in the k-wide, l-tall rectangle anchored at
    (0, 0) that are reachable from (0, h); 0 for h < 0."""
    if k < 1 or l < 1:
        raise ValueError("rectangle must have positive width and height")
    if h < 0:
        return 0
    start = (0, h)
    return sum(1 for u in range(l) for v in range(k) if reachable(start, (u, v)))


def sigma_closed(k: int, l: int, h: int) -> int:
    """Closed form for sigma_bruteforce(k, l, h).

    Piecewise in h: a square count below min(k, l), diagonal growth up to
    max(k, l), and complementary counting (ceil or floor of kl/2 by parity)
    beyond.  The recursion depth is at most two.
    """
    if k < 1 or l < 1:
        raise ValueError("rectangle must have positive width and height")
    if h < 0:
        return 0
    low, high = min(k, l), max(k, l)
    if h < low:
        return (h + 2) ** 2 // 4  # floor((h/2 + 1)^2)
    if h < high:
        s = low - 2 if (h - low) % 2 == 0 else low - 1
        return sigma_closed(k, l, s) + ((h - s) // 2) * low
    half = k * l
    tail = sigma_closed(k, l, k + l - h - 4)
    if h % 2 == 0:
        return (half + 1) // 2 - tail
    return half // 2 - tail


def gamma_region_closed(a: int, b: int, c: int, d: int, x: int, y: int) -> int:
    """Closed form for gamma_region_bruteforce(a, b, c, d, x, y), for any
    integers x and y.

    Piecewise rectangle-count expression, split on the start column y
    against the column range [c, c+d]; the overlap correction delta removes
    points counted by both sigma terms in the middle case.
    """
    if y <= c:
        return sigma_closed(b + 1, d + 1, x + y - a - c)
    if y >= c + d:
        return sigma_closed(b + 1, d + 1, x - y + c + d - a)
    if x < a:
        delta = 0
    elif x <= a + b:
        delta = (x - a + 2) // 2  # ceil((x-a+1)/2)
    elif (x - a - b) % 2 == 0:
        delta = (b + 2) // 2  # ceil((b+1)/2)
    else:
        delta = (b + 1) // 2  # floor((b+1)/2)
    return (
        sigma_closed(b + 1, y - c + 1, x - a)
        + sigma_closed(b + 1, c + d - y + 1, x - a)
        - delta
    )


def gamma_region_bruteforce(a: int, b: int, c: int, d: int, x: int, y: int) -> int:
    """Literal count of points (u, v) with a <= u <= a+b, c <= v <= c+d whose
    transposed-frame cone from (x, y) contains them, i.e. reachable((y, x), (v, u))."""
    count = 0
    for u in range(a, a + b + 1):
        dx = x - u
        if dx < 0:
            break  # rows below x are unreachable and rows only grow from here
        for v in range(c, c + d + 1):
            dv = abs(v - y)
            if dv <= dx and (dx - dv) % 2 == 0:
                count += 1
    return count
