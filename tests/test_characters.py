import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from kroncoef import (
    IntegralityViolation,
    Partition,
    SizeMismatch,
    character,
    conjugate,
    dimension,
    enumerate_partitions,
    kron_oracle,
    make_partition,
    z_of,
)
from kroncoef import characters
from kroncoef.characters import (
    _char_row,
    _class_sizes,
    _classes,
    _code,
    _counts,
    _dimension,
    _fields,
    _leaf,
    _pack,
    _vector,
    _width,
    clear_cache,
    kron_oracle_column,
)
from kroncoef.partitions import _partition_tuples


def test_trivial_character_is_one():
    for n in range(1, 11):
        top = make_partition([n])
        assert all(character(top, rho) == 1 for rho in enumerate_partitions(n))


def test_sign_character():
    for n in range(1, 11):
        col = make_partition([1] * n)
        for rho in enumerate_partitions(n):
            assert character(col, rho) == (-1) ** (n - len(rho))


def test_standard_character_of_s3():
    lam = make_partition([2, 1])
    assert character(lam, make_partition([1, 1, 1])) == 2
    assert character(lam, make_partition([2, 1])) == 0
    assert character(lam, make_partition([3])) == -1


def test_cycle_type_too_long_for_the_recursion_is_refused():
    # no cycle type is too long any more: character walks rho one level per
    # part of length 2 or more, with no recursion, and the 1-cycles are one
    # leaf f^w, so 1200 parts are answered like 3
    column = make_partition([1] * 1200)
    assert character(column, column) == 1
    long = make_partition([2] * 1200)
    assert character(make_partition([2400]), long) == 1
    # (2^300) has an empty 2-core and the 2-quotient (1^150, 1^150), so its
    # character at 2^300 counts the interleavings of two 150-domino columns
    dominoes = make_partition([2] * 300)
    assert character(dominoes, dominoes) == math.comb(300, 150)
    assert character(make_partition([1] * 500), make_partition([1] * 500)) == 1
    lam, mu, nu = (make_partition(p) for p in ([3, 2, 1], [4, 2], [3, 3]))
    assert kron_oracle(lam, mu, nu).gamma == 1


def test_character_leaves_the_vector_memo_empty():
    # character walks its cycle type without the memo: after clear_cache(),
    # every value of S_8 leaves it as empty as it was
    clear_cache()
    shapes = list(enumerate_partitions(8))
    for lam in shapes:
        for rho in shapes:
            character(lam, rho)
    assert not characters._strip_cache


def test_character_costs_the_states_its_cycle_type_reaches():
    # one 990-cycle removes the one strip of (990), where the field of (990)
    # lay in V((990), 990), past p(990) fields; 33 3-cycles of (40,30,20,10)
    # give the value the vector recursion gave
    assert character(make_partition([990]), make_partition([990])) == 1
    lam, rho = make_partition([40, 30, 20, 10]), make_partition([3] * 33 + [1])
    assert character(lam, rho) == -9984474228643200


def test_character_agrees_with_the_row_at_20_to_30():
    # character, a walk over the strips of one cycle type, and _char_row,
    # the vector recursion over every class at once, share no code path
    # past the bead code and the leaf: for one seeded shape of each even n
    # from 20 to 30 they agree on every class
    rng = random.Random(33)
    for n in range(20, 31, 2):
        lam = rng.choice(list(_partition_tuples(n)))
        shape = make_partition(list(lam))
        values = tuple(character(shape, make_partition(list(rho))) for rho, _ in _classes(n))
        assert values == _char_row(lam, n), lam


def test_size_mismatch_rejected():
    with pytest.raises(SizeMismatch):
        character(make_partition([2, 1]), make_partition([2, 2]))
    with pytest.raises(SizeMismatch):
        kron_oracle(make_partition([2]), make_partition([2]), make_partition([3]))


def test_conjugate_twists_by_sign():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            lam_c = conjugate(lam)
            for rho in enumerate_partitions(n):
                sign = (-1) ** (n - len(rho))
                assert character(lam_c, rho) == sign * character(lam, rho)


@lru_cache(maxsize=None)
def reference_char(lam, rho):
    """Murnaghan-Nakayama in beta-number form, the twin of character: slide one
    bead of the beta set down rho[0] places onto a free position; the sign
    counts the beads it passes."""
    if not rho:
        return 1 if not lam else 0
    strip, rest = rho[0], rho[1:]
    length = len(lam)
    beta = [lam[i] + length - 1 - i for i in range(length)]
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        m = len(new_beta)
        new_lam = tuple(x - (m - 1 - i) for i, x in enumerate(new_beta) if x > m - 1 - i)
        total += (-1) ** height * reference_char(new_lam, rest)
    return total


def test_char_matches_beta_number_reference():
    clear_cache()
    pairs = 0
    for n in range(13):
        shapes = list(enumerate_partitions(n))
        for lam in shapes:
            for rho in shapes:
                assert character(lam, rho) == reference_char(lam.parts, rho.parts), (lam, rho)
                pairs += 1
    assert pairs == 12648


@st.composite
def shape_and_class(draw):
    n = draw(st.integers(min_value=13, max_value=24))
    shapes = list(enumerate_partitions(n))
    return draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))


@given(shape_and_class())
def test_char_matches_reference_beyond_exhaustive_range(pair):
    lam, rho = pair
    assert character(lam, rho) == reference_char(lam.parts, rho.parts)


def test_code_has_one_bead_per_row_and_no_bead_at_zero():
    for n in range(21):
        for lam in enumerate_partitions(n):
            code = _code(lam.parts)
            assert code.bit_count() == len(lam), lam
            assert not code & 1, lam


def test_empty_shape_has_code_zero_and_the_one_class_row():
    clear_cache()
    assert _code(()) == 0
    assert character(make_partition([]), make_partition([])) == 1
    assert _char_row((), 0) == (1,)


def general_shapes(n):
    """Shapes of n with three or more rows, lam_2 >= 3 and lam_3 >= 2."""
    return [p.parts for p in enumerate_partitions(n)
            if len(p) >= 3 and p[1] >= 3 and p[2] >= 2]


def test_cold_char_rows_match_beta_number_reference():
    # seeded general shapes, each row computed from empty memos and compared
    # class by class
    rng = random.Random(20001084)
    rows = 0
    for n in (13, 14, 15, 16, 17, 20, 24):
        for lam in rng.sample(general_shapes(n), 3):
            clear_cache()
            row = _char_row(lam, n)
            classes = _classes(n)
            assert len(row) == len(classes)
            for value, (rho, _) in zip(row, classes):
                assert value == reference_char(lam, rho), (lam, rho)
            rows += 1
    assert rows == 21


def test_cold_char_rows_are_orthonormal_and_twist_by_sign_at_17_to_24():
    # two seeded general shapes per n and the conjugate of the first, each
    # row computed from empty memos: the rows are orthonormal under the
    # class sizes, and the conjugate's row is the first row times sgn(rho)
    rng = random.Random(20001084)
    for n in range(17, 25):
        lam, mu = rng.sample(general_shapes(n), 2)
        lam_c = conjugate(make_partition(lam)).parts
        rows = {}
        for shape in (lam, mu, lam_c):
            clear_cache()
            rows[shape] = _char_row(shape, n)
        classes = _classes(n)

        def dot(a, b):
            return sum(size * x * y for (_, size), x, y in zip(classes, a, b))

        nf = math.factorial(n)
        assert dot(rows[lam], rows[lam]) == nf and dot(rows[mu], rows[mu]) == nf, n
        assert dot(rows[lam], rows[mu]) == 0, n
        signs = [(-1) ** (n - len(rho)) for rho, _ in classes]
        assert rows[lam_c] == tuple(sign * x for sign, x in zip(signs, rows[lam])), n


def test_class_table_matches_one_built_from_partitions(monkeypatch):
    # the class table reads part tuples; the same table built from
    # Partitions, as it once was, must agree entry for entry
    for n in range(21):
        nf = math.factorial(n)
        built = tuple((rho.parts, nf // z_of(rho)) for rho in enumerate_partitions(n))
        assert _classes(n) == built, n
    # bead codes are for shapes only: a cold class table encodes no cycle type
    coded = []
    monkeypatch.setattr(characters, "_code", lambda parts: coded.append(parts) or _code(parts))
    clear_cache()
    _classes(18)
    assert coded == []
    character(make_partition([2, 1]), make_partition([3]))
    assert coded  # the counter sees the vector lookup


def test_cold_oracle_and_class_table_build_no_partition(monkeypatch):
    lam, mu, nu = (make_partition(p) for p in ([5, 4, 3, 2], [6, 4, 3, 1], [5, 5, 3, 1]))
    built = []
    init = Partition.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Partition, "__init__", counting)
    clear_cache()
    kron_oracle(lam, mu, nu)
    _classes(18)
    assert built == []
    make_partition([2, 1])
    assert len(built) == 1  # the counter sees the constructor


def test_strip_to_the_empty_shape_is_shifted_to_zero():
    # the 3-strip is all of (1,1,1): its bead moves 3 -> 0 over two beads, and the
    # remaining beads 0,1,2 are three zero parts, which the shift turns into code 0
    assert _code((1, 1, 1)) == 0b1110
    assert character(make_partition([1, 1, 1]), make_partition([3])) == 1


def test_vector_memo_of_21_is_keyed_by_width_and_code():
    # (2,1) has beads at 3 and 1, code 0b1010; at n = 3 the fields are 8 bits
    # wide, and the memo of width 8 is keyed by code.  V(w, 1) is the leaf
    # f^(2,1) = 3!/(3 * 1 * 1) = 2, so the class 1^3 reaches no child, and the
    # entry is the pair (top, V(w, top)) = (1, 2)
    clear_cache()
    assert _width(3) == 8
    memo = characters._strip_cache.setdefault(8, {})
    assert _vector(memo, _counts(3), 8, 0b1010, 3, 1) == 2
    assert set(characters._strip_cache) == {8}
    assert set(memo) == {0b1010}
    assert memo[0b1010] == (1, 2)
    # the whole row adds V(w, 2) and V(w, 3): no 2-strip, so the field of (2,1)
    # is 0; the 3-strip moves bead 3 -> 0 past bead 1, leaving the empty
    # shape, code 0, whose entry is (0, 1), so the field of (3), shifted past
    # p(3, parts <= 2) = 2 fields, is -1.  The entry is replaced whole
    assert _vector(memo, _counts(3), 8, 0b1010, 3, 3) == 2 - (1 << 16)
    assert memo[0b1010] == (3, 2 - (1 << 16))
    assert memo[0] == (0, 1)
    assert _fields(2 - (1 << 16), 8, 3) == [-1, 0, 2]
    # a read below the top is the low 8 * p(3, parts <= a) bits, sign-extended,
    # and leaves the entry as it was
    assert [_vector(memo, _counts(3), 8, 0b1010, 3, a) for a in (1, 2)] == [2, 2]
    assert memo[0b1010] == (3, 2 - (1 << 16))
    # the row reads that vector, then drops the entry of (2,1) itself
    assert _char_row((2, 1), 3) == (-1, 0, 2)
    assert set(memo) == {0}


def sub_shapes(parts, cap):
    """Every shape whose diagram lies inside that of parts, with no part
    above cap, as part tuples."""
    yield ()
    if parts:
        for first in range(1, min(parts[0], cap) + 1):
            for rest in sub_shapes(parts[1:], first):
                yield (first,) + rest


def memo_bytes(memo) -> int:
    """sys.getsizeof summed over the distinct int objects the entries of one
    width's memo hold."""
    return sum(map(sys.getsizeof, {id(x): x for entry in memo.values() for x in entry}.values()))


@pytest.mark.parametrize("triple, gamma, shapes, held", [
    (([5, 4, 3, 2], [4, 4, 3, 2, 1], [6, 3, 3, 2]), 882, 84, 5128),
    (([6, 4, 3, 2, 1], [5, 4, 4, 3], [4, 4, 3, 3, 2]), 2122, 120, 9372),
    (([6, 5, 4, 3], [5, 5, 4, 2, 2], [7, 4, 4, 3]), 7336, 198, 16852),
])
def test_cold_oracle_strip_cache_size(triple, gamma, shapes, held):
    # one cold query fills the vector memo of its width alone, keyed by code,
    # for exactly these many sub-shapes of its three shapes, with one
    # (top, V(w, top)) pair per shape, top at most the sub-shape's size, and
    # its ints taking these many bytes (the prefix lists of [V(w, 0), ...,
    # V(w, top)] the memo held before took 9,904, 19,972 and 34,944).  A
    # sub-shape is reached only through a strip of length 2 or more, since
    # V(w, 1) is a leaf.  The three queried shapes, whose rows hold all of
    # their vectors, leave the memo once read: with them it held 87, 123 and
    # 201 shapes
    clear_cache()
    assert kron_oracle(*(make_partition(p) for p in triple)).gamma == gamma
    n = sum(triple[0])
    sizes = {_code(shape): sum(shape) for p in triple for shape in sub_shapes(p, n)}
    assert set(characters._strip_cache) == {_width(n)}
    memo = characters._strip_cache[_width(n)]
    assert len(memo) == shapes
    assert not any(_code(tuple(p)) in memo for p in triple)
    for code, entry in memo.items():
        assert code in sizes and sizes[code] < n
        assert type(entry) is tuple and len(entry) == 2 and type(entry[1]) is int
        assert entry[0] <= sizes[code]
    assert memo_bytes(memo) == held


def test_a_read_below_the_top_equals_a_fresh_build():
    # for every shape of n <= 12, V(w, a) read off an entry extended to the
    # whole row, 1 <= a < n, is the V(w, a) a memo with nothing in it builds;
    # in 511 of these 2,375 reads the top field, and so the sign the read
    # extends, is negative.  A shape of n >= 1 is never asked for V(w, 0),
    # which has no field
    negative = 0
    for n in range(1, 13):
        k, counts = _width(n), _counts(n)
        for lam in _partition_tuples(n):
            w, memo = _code(lam), {}
            _vector(memo, counts, k, w, n, n)
            for a in range(1, n):
                read = _vector(memo, counts, k, w, n, a)
                assert memo[w][0] == n
                assert read == _vector({}, counts, k, w, n, a), (lam, a)
                negative += _fields(read, k, counts[n][a])[0] < 0
    assert negative == 511


# the class a reader reads while rows of S_16 are built; character keeps no
# memo, so the reader checks that its values do not depend on the builders'
# memo or on clear_cache
READ_CLASS = make_partition([7, 5, 2, 1, 1])


def race(build, shapes, trials=30):
    """Run build on every third shape in each of three threads, from empty
    memos, while a fourth thread reads character(lam, READ_CLASS) for every
    lam of S_16 and a fifth calls clear_cache() three times, trials times
    with the interpreter switching threads every microsecond.  Return the
    builders' results and the reader's values of every trial, and every
    exception raised."""
    outcomes, errors = [], []

    def work(task, items, results):
        try:
            for item in items:
                results[item] = task(item)
        except Exception as error:
            errors.append(error)

    def clear(_):
        time.sleep(1e-3)
        clear_cache()

    def read(lam):
        return character(lam, READ_CLASS)

    lams = list(enumerate_partitions(READ_CLASS.n))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(trials):
            clear_cache()
            results: dict = {}
            reads: dict = {}
            jobs = [(build, shapes[i::3], results) for i in range(3)]
            jobs += [(read, lams, reads), (clear, range(3), {})]
            threads = [threading.Thread(target=work, args=job) for job in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            outcomes.append((results, reads))
    finally:
        sys.setswitchinterval(interval)
    return outcomes, errors


def reads_of_one_thread() -> dict:
    clear_cache()
    return {lam: character(lam, READ_CLASS) for lam in enumerate_partitions(READ_CLASS.n)}


def test_threads_building_cold_rows_agree_with_one_thread():
    # three threads build the cold rows of S_16 at once while a fourth reads
    # one class and a fifth clears the caches; memo entries are immutable
    # pairs, written whole, so no trial raises and every row and value
    # equals the one a single thread builds
    n = 16
    shapes = list(_partition_tuples(n))
    reads = reads_of_one_thread()
    expected = {lam: _char_row(lam, n) for lam in shapes}
    outcomes, errors = race(lambda lam: _char_row(lam, n), shapes)
    assert not errors, errors[:3]
    assert all(outcome == (expected, reads) for outcome in outcomes)


def test_threads_reading_one_class_agree_with_one_thread():
    # the same for character at one cycle type, which reads and writes no
    # memo, so only clear_cache runs beside it
    rho = make_partition([6, 4, 3, 2, 1])
    shapes = list(enumerate_partitions(16))
    reads = reads_of_one_thread()
    expected = {lam: character(lam, rho) for lam in shapes}
    outcomes, errors = race(lambda lam: character(lam, rho), shapes)
    assert not errors, errors[:3]
    assert all(outcome == (expected, reads) for outcome in outcomes)


# six-row shapes at n = 32-40 whose dimension f^lam takes more than n + 20
# bits, so their rows hold values near the field width of their n
CERTIFIED_SHAPES = {
    32: ((9, 7, 6, 5, 3, 2), (10, 8, 6, 4, 3, 1)),
    34: ((10, 8, 6, 5, 3, 2), (11, 9, 6, 4, 3, 1)),
    36: ((11, 8, 7, 5, 3, 2), (12, 9, 7, 4, 3, 1)),
    38: ((11, 9, 8, 5, 3, 2), (12, 10, 8, 4, 3, 1)),
    40: ((12, 10, 8, 5, 3, 2), (13, 11, 8, 4, 3, 1)),
}


def test_cold_rows_past_the_exhaustive_sizes_are_certified():
    # cold rows at n = 32-40, each certified as it is built, so a field
    # width too narrow for these sizes raises IntegralityViolation here
    for n, shapes in CERTIFIED_SHAPES.items():
        for lam in shapes:
            clear_cache()
            row = _char_row(lam, n)
            assert row[-1] == dimension(make_partition(list(lam))), lam
            assert row[-1].bit_length() > n + 20, lam
            assert len(row) == len(_class_sizes(n))


def stable_size(tails) -> int:
    """The size m from which gamma(lam[n], mu[n], nu[n]) is constant in n,
    for lam[n] = (n - |lam|, lam) and the same for the other two tails
    (Murnaghan's stability): the smallest m >= B, with B the bound of
    Briand, Orellana and Rosas, the minimum over the three roles of
    |a| + |b| + c_1 (c_1 the first part of the third tail), at which every
    padding is a partition, n - |t| >= t_1."""
    sizes = [sum(tail) for tail in tails]
    bound = min(sum(sizes) - size + tail[0] for size, tail in zip(sizes, tails))
    return max(bound, *(size + tail[0] for size, tail in zip(sizes, tails)))


def padded(tail, n):
    return make_partition([n - sum(tail), *tail])


def test_oracle_is_stable_past_the_stable_size():
    # gamma of three seeded tails of 2-6 cells in at most 4 parts is its value
    # at the stable size m for every n from max(m + 1, 24) to 34: shapes of
    # 3-5 rows whose strips of length 24 and more no exhaustive test reaches.
    # The 60 triples have m = 5-15, and 41 of them a nonzero gamma
    rng = random.Random(20261020)
    tails_of = {size: [p for p in _partition_tuples(size) if len(p) <= 4] for size in range(2, 7)}
    compared, nonzero = 0, 0
    for _ in range(60):
        tails = [rng.choice(tails_of[rng.randint(2, 6)]) for _ in range(3)]
        m = stable_size(tails)
        stable = kron_oracle(*(padded(tail, m) for tail in tails)).gamma
        nonzero += stable > 0
        for n in range(max(m + 1, 24), 35):
            assert kron_oracle(*(padded(tail, n) for tail in tails)).gamma == stable, (tails, n)
            compared += 1
    assert (compared, nonzero) == (660, 41)


def test_oracle_rises_weakly_up_to_the_stable_size():
    # below the stable size m, gamma(lam[n], mu[n], nu[n]) is weakly
    # increasing in n (Brion; Briand, Orellana and Rosas): for 100 seeded
    # triples of tails of 4-12 cells in at most 4 parts, gamma at each n from
    # the first size at which every padding is a partition up to m - 1 is at
    # most gamma at n + 1.  33 of the triples have m above 20, up to 27, and
    # 203 of the 283 steps rise strictly
    rng = random.Random(20261021)
    tails_of = {size: [p for p in _partition_tuples(size) if len(p) <= 4] for size in range(4, 13)}
    compared, rose, late = 0, 0, 0
    for _ in range(100):
        tails = [rng.choice(tails_of[rng.randint(4, 12)]) for _ in range(3)]
        m = stable_size(tails)
        late += m > 20
        first = max(sum(tail) + tail[0] for tail in tails)
        gammas = [kron_oracle(*(padded(tail, n) for tail in tails)).gamma
                  for n in range(first, m + 1)]
        for n, (low, high) in enumerate(zip(gammas, gammas[1:]), first):
            assert low <= high, (tails, n)
            compared += 1
            rose += low < high
    assert (compared, rose, late) == (283, 203, 33)


def test_certificate_refuses_a_row_under_python_optimize():
    # with the field width too narrow the fields wrap, and with the leaf
    # f^w one too high on every proper sub-shape of (5,4,3,2) the classes
    # with a 1-cycle, summed from those leaves, go wrong while chi(1^14) does
    # not; the certificate is an if, not an assert, so it refuses both rows
    # under python -O as well
    script = (
        "from kroncoef import IntegralityViolation, characters\n"
        "assert False, 'asserts are on'\n"
        "leaf = characters._leaf\n"
        "for name, wrong in (('_width', lambda n: 8),\n"
        "                    ('_leaf', lambda w, m: leaf(w, m) + (m < 14))):\n"
        "    real = getattr(characters, name)\n"
        "    setattr(characters, name, wrong)\n"
        "    characters.clear_cache()\n"
        "    try:\n"
        "        characters._char_row((5, 4, 3, 2), 14)\n"
        "    except IntegralityViolation as error:\n"
        "        print('refused:', error)\n"
        "    setattr(characters, name, real)\n"
    )
    src = os.path.dirname(os.path.dirname(characters.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, check=True, env=env, timeout=60).stdout.splitlines()
    assert len(out) == 2, out
    assert all(line.startswith("refused: the character row of (5, 4, 3, 2) fails")
               for line in out), out


def test_certificate_refuses_a_wrong_row(monkeypatch):
    # a row that fails either identity is refused, and nothing is cached
    lam = (3, 2, 1)
    clear_cache()
    good = _char_row(lam, 6)
    real = characters._fields
    corruptions = (lambda fields: [fields[0] + 1] + fields[1:],  # breaks the norm alone
                   lambda fields: [-value for value in fields])  # breaks chi(1^6) = 16 alone
    for corrupt in corruptions:
        clear_cache()
        monkeypatch.setattr(characters, "_fields", lambda *args: corrupt(real(*args)))
        with pytest.raises(IntegralityViolation, match=re.escape(f"row of {lam} fails")):
            _char_row(lam, 6)
        assert _char_row.cache_info().currsize == 0
    monkeypatch.undo()
    assert _char_row(lam, 6) == good


def test_class_sizes_match_centralizers_to_40():
    # the walk over (largest part, multiplicity) lists n!/z_rho in the order
    # of the partitions, and the classes partition S_n
    for n in range(41):
        nf = math.factorial(n)
        sizes = _class_sizes(n)
        assert sizes == tuple(nf // z_of(rho) for rho in _partition_tuples(n)), n
        assert sum(sizes) == nf, n


def test_count_table_matches_a_brute_force_count_to_40():
    # row m of _counts(n) holds the number of partitions of m with no part
    # above a for every a <= m, here counted off the list of the partitions
    # of m by their largest parts
    brute = []
    for m in range(41):
        largest = Counter(parts[0] for parts in _partition_tuples(m) if parts)
        brute.append(list(accumulate(largest[a] for a in range(m + 1))) if m else [1])
    for n in range(41):
        table = _counts(n)
        assert len(table) == n + 1, n
        for m, row in enumerate(table):
            assert row == brute[m], (n, m)
    clear_cache()


def test_leaf_is_the_dimension_to_25_and_at_the_empty_shape():
    # V(w, 1) = f^w from the hook lengths of the bead code, against
    # _dimension from the column heights of the part tuple
    assert _leaf(_code(()), 0) == _dimension(()) == 1
    for n in range(1, 26):
        for lam in _partition_tuples(n):
            assert _leaf(_code(lam), n) == _dimension(lam), lam


def test_dimensions():
    assert dimension(make_partition([5])) == 1
    assert dimension(make_partition([2, 1])) == 2
    # regular representation: sum of squared dimensions is n!
    for n in range(1, 9):
        assert sum(dimension(lam) ** 2 for lam in enumerate_partitions(n)) == math.factorial(n)
        assert all(dimension(lam) > 0 for lam in enumerate_partitions(n))


def test_dimension_matches_character_at_identity():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert dimension(lam) == character(lam, make_partition([1] * n)), lam


def test_dimension_of_large_rectangle_is_catalan():
    # the 2 x 600 rectangle counts Dyck paths: the Catalan number C_600
    assert dimension(make_partition([600, 600])) == math.comb(1200, 600) // 601


def test_column_orthogonality():
    # rows of the character table are orthonormal under the class weighting

    for n in range(1, 9):
        shapes = list(enumerate_partitions(n))
        rows = {lam.parts: [character(lam, rho) for rho in shapes] for lam in shapes}
        weights = [math.factorial(n) // z_of(rho) for rho in shapes]
        for i, lam in enumerate(shapes):
            for mu in shapes[i:]:
                dot = sum(w * a * b for w, a, b in zip(weights, rows[lam.parts], rows[mu.parts]))
                assert dot == (math.factorial(n) if lam == mu else 0)


def test_oracle_small_values():
    two_one = make_partition([2, 1])
    assert kron_oracle(two_one, two_one, two_one).gamma == 1
    assert kron_oracle(make_partition([1, 1, 1]), two_one, two_one).gamma == 1
    result = kron_oracle(two_one, two_one, two_one)
    assert result.provenance == "Oracle" and result.moves == ()


def test_oracle_sign_twist():
    # gamma^lam_{(1^n), nu} = [lam == nu']
    for n in range(1, 11):
        col = make_partition([1] * n)
        for lam in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                expected = 1 if lam == conjugate(nu) else 0
                assert kron_oracle(lam, col, nu).gamma == expected


def test_oracle_full_symmetry_small():
    for n in range(1, 6):
        shapes = list(enumerate_partitions(n))
        for lam in shapes:
            for mu in shapes:
                for nu in shapes:
                    base = kron_oracle(lam, mu, nu).gamma
                    assert base >= 0
                    assert kron_oracle(mu, lam, nu).gamma == base
                    assert kron_oracle(nu, mu, lam).gamma == base
                    assert kron_oracle(conjugate(lam), conjugate(mu), nu).gamma == base


def test_empty_triple():
    empty = make_partition([])
    assert kron_oracle(empty, empty, empty).gamma == 1


def test_integrality_violation_unreachable_from_valid_input():
    # spot check: the weighted sum is divisible by n! across all of S_6
    for lam in enumerate_partitions(6):
        for mu in enumerate_partitions(6):
            kron_oracle(lam, mu, mu)  # would raise IntegralityViolation on a bug
    assert issubclass(IntegralityViolation, ArithmeticError)


def classwise_sum(lam, mu, nu):
    """The oracle's character sum written out, one class at a time."""
    n = lam.n
    total = 0
    for parts, size in _classes(n):
        rho = make_partition(parts)
        total += size * character(lam, rho) * character(mu, rho) * character(nu, rho)
    gamma, rest = divmod(total, math.factorial(n))
    assert rest == 0
    return gamma


def test_oracle_matches_classwise_sum_in_any_query_order():
    # Each (lam, mu) block is cut into runs of random length and the runs of
    # all blocks are shuffled, so queries that reuse the cached pair weights
    # alternate with queries that replace them.
    rng = random.Random(20001084)
    clear_cache()
    runs = []
    for n in range(8):
        shapes = list(enumerate_partitions(n))
        for lam in shapes:
            for mu in shapes:
                nus = shapes[:]
                rng.shuffle(nus)
                while nus:
                    cut = rng.randint(1, len(nus))
                    runs.append([(lam, mu, nu) for nu in nus[:cut]])
                    del nus[:cut]
    rng.shuffle(runs)
    for run in runs:
        for lam, mu, nu in run:
            assert kron_oracle(lam, mu, nu).gamma == classwise_sum(lam, mu, nu), (lam, mu, nu)
    info = characters._pair_weights.cache_info()
    assert info.hits > 1000 and info.misses > 1000
    assert info.currsize == 1


def test_clear_cache_drops_pair_weights():
    two_one = make_partition([2, 1])
    kron_oracle(two_one, two_one, two_one)
    assert characters._pair_weights.cache_info().currsize == 1
    clear_cache()
    assert characters._pair_weights.cache_info().currsize == 0


def test_clear_cache_drops_packed_columns():
    two_one = make_partition([2, 1])
    kron_oracle_column(two_one, two_one, list(enumerate_partitions(3)))
    assert characters._packed_columns.cache_info().currsize == 1
    clear_cache()
    assert characters._packed_columns.cache_info().currsize == 0


def test_clear_cache_drops_the_vector_memo_and_the_counts():
    lam, mu, nu = (make_partition(p) for p in ([3, 2, 1], [4, 2], [3, 3]))
    clear_cache()
    kron_oracle(lam, mu, nu)
    assert characters._strip_cache and _counts.cache_info().currsize
    clear_cache()
    assert not characters._strip_cache and not _counts.cache_info().currsize


def test_integrality_violation_fires_on_a_cache_hit(monkeypatch):
    lam, mu, nu = (make_partition(p) for p in ([3, 2, 1], [3, 2, 1], [6]))
    assert kron_oracle(lam, mu, nu).gamma == 1  # fills the pair-weight cache
    cached = characters._pair_weights

    def corrupted(*key):
        hits = cached.cache_info().hits
        weights = cached(*key)
        assert cached.cache_info().hits == hits + 1  # served from the cache
        # chi^(6) is 1 on every class, so the sum moves by 1 and 6! no longer divides it
        return (weights[0] + 1,) + weights[1:]

    monkeypatch.setattr(characters, "_pair_weights", corrupted)
    with pytest.raises(IntegralityViolation):
        kron_oracle(lam, mu, nu)


def column_shares(shapes):
    """The shares a sweep worker can hold: all shapes, every other one, a
    single shape (each in turn) and none."""
    yield shapes
    yield shapes[1::2]
    for lam in shapes:
        yield [lam]
    yield []


def test_oracle_column_matches_oracle_exhaustively():
    # every (mu, nu) with n <= 8 against every share; each share runs all its
    # pairs in a row, as a sweep does, so the packed columns are reused
    clear_cache()
    columns = 0
    for n in range(9):
        shapes = list(enumerate_partitions(n))
        want = {(lam, mu, nu): kron_oracle(lam, mu, nu).gamma
                for lam in shapes for mu in shapes for nu in shapes}
        for share in column_shares(shapes):
            for mu in shapes:
                for nu in shapes:
                    got = kron_oracle_column(mu, nu, share)
                    assert got == [want[lam, mu, nu] for lam in share], (share, mu, nu)
                    columns += 1
    assert columns == 18616  # p(n)**2 pairs times p(n) + 3 shares, summed over n


def test_oracle_column_matches_oracle_beyond_exhaustive_range():
    # seeded (mu, nu) pairs at n = 13-16, each against both halves of the shapes
    rng = random.Random(20001084)
    checked = 0
    for n in range(13, 17):
        clear_cache()
        shapes = list(enumerate_partitions(n))
        for _ in range(2):
            mu, nu = rng.choice(shapes), rng.choice(shapes)
            for share in (shapes[0::2], shapes[1::2]):
                got = kron_oracle_column(mu, nu, share)
                assert got == [kron_oracle(lam, mu, nu).gamma for lam in share], (mu, nu)
                checked += len(share)
    assert checked == 2 * (101 + 135 + 176 + 231)


def test_pack_round_trips_signed_fields_at_the_width_limit():
    rng = random.Random(20001084)
    # k = 8, 16, 32 and 64 take the array path of _fields, the others the bytes
    for k in (8, 16, 32, 40, 64, 72, 96):
        edge = (1 << (k - 1)) - 1
        values = [edge, -edge - 1, 0, -1, 1, -edge, -edge - 1, edge, 0]
        values += [rng.randint(-edge - 1, edge) for _ in range(40)]
        for cut in range(len(values) + 1):
            assert _fields(_pack(values[:cut], k), k, cut) == values[:cut], (k, cut)
        # a weighted sum of packed ints carries the weighted sum of each field
        weights = [rng.randint(-3, 3) for _ in range(5)]
        rows = [[rng.randint(-(edge // 16), edge // 16) for _ in range(7)] for _ in weights]
        total = sum(w * _pack(row, k) for w, row in zip(weights, rows))
        assert _fields(total, k, 7) == [sum(w * row[i] for w, row in zip(weights, rows))
                                        for i in range(7)]


def is_field_width(k):
    """8, 16, 32, 64, or a whole number of bytes past 64."""
    return k in (8, 16, 32, 64) or (k > 64 and k % 8 == 0)


def test_packed_field_width_bound():
    # the width covers n! * (isqrt(n!) + 1) with a sign bit to spare, because
    # 0 <= gamma <= f^lam <= isqrt(n!); it depends on n alone
    # up to 64 bits both widths are machine widths, which _fields reads with
    # array, and past that whole bytes
    assert [characters._packed_columns(((n,),), n)[0] for n in (10, 14, 20)] == [64, 64, 96]
    for n in range(1, 25):
        nf = math.factorial(n)
        k = characters._packed_columns(((n,),), n)[0]
        assert nf * (math.isqrt(nf) + 1) < 2 ** (k - 1) and is_field_width(k), n
    for n in range(45):
        # the character fields hold +-isqrt(n!), and so every character value
        nf = math.factorial(n)
        k = _width(n)
        assert math.isqrt(nf) < 2 ** (k - 1) and is_field_width(k), n
    assert [_width(n) for n in (7, 8, 12, 13, 20, 21, 33, 34)] == [8, 16, 16, 32, 32, 64, 64, 72]
    for n in range(13):
        nf = math.factorial(n)
        shapes = list(enumerate_partitions(n))
        assert max(dimension(lam) for lam in shapes) <= math.isqrt(nf), n
        rows = [_char_row(lam.parts, n) for lam in shapes]
        for j, (_, size) in enumerate(_classes(n)):
            z = nf // size
            assert sum(row[j] ** 2 for row in rows) == z
            assert max(abs(row[j]) for row in rows) <= math.isqrt(z)


def test_oracle_column_refuses_mixed_sizes():
    two_one, three = make_partition([2, 1]), make_partition([3])
    with pytest.raises(SizeMismatch):
        kron_oracle_column(two_one, make_partition([2]), [three])
    with pytest.raises(SizeMismatch):
        kron_oracle_column(two_one, three, [three, make_partition([2, 2])])


def test_integrality_violation_fires_for_each_column_entry(monkeypatch):
    mu, nu = make_partition([3, 2, 1]), make_partition([6])
    share = list(enumerate_partitions(6))
    assert kron_oracle_column(mu, nu, share) == [int(lam == mu) for lam in share]
    weights = characters._pair_weights(mu.parts, nu.parts, 6)
    # class (1^6) comes last, where every character is its dimension: adding
    # 1 to its weight moves field i by dim(share[i]), which 6! never divides
    monkeypatch.setattr(characters, "_pair_weights",
                        lambda *key: weights[:-1] + (weights[-1] + 1,))
    for lam in share:
        with pytest.raises(IntegralityViolation, match=re.escape(f"({lam}; {mu}; {nu})")):
            kron_oracle_column(mu, nu, [lam])
