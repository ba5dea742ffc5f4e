"""compute's signature dispatch against the 24-variant walk it replaced.

The reference walker below is the walk compute used to run: build every
symmetry variant in the documented order and return the first closed form
that fires, else the oracle.  It matches each variant with its own
reader-based class tests and builds the variants from its own literal
tables of the order, so it shares no dispatch code or table with compute.
compute must agree with it on gamma, provenance and moves.  Run this file
as a script to gate every triple through a larger n:
``PYTHONPATH=src python tests/test_dispatch.py 10``.
"""

import random
import sys

from kroncoef import closed_forms, enumerate_partitions, kron_oracle, make_partition
from kroncoef.characters import (
    DELTA_RULE,
    HOOK_HOOK,
    HOOK_TWO_ROW,
    ORACLE,
    TWO_ROW_TWO_ROW,
    KroneckerResult,
)
from kroncoef.closed_forms import kron_hook_tworow, kron_two_hooks, kron_two_tworow
from kroncoef.partitions import conjugate, hook_parts, two_row_parts

# The documented order, written out here rather than read from closed_forms:
# no conjugation first, then each conjugated pair, and inside each pattern
# the permutations in lexicographic order, the identity first.
CONJ_PATTERNS = (None, (0, 1), (0, 2), (1, 2))
PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


# Each form's provenance and the class bits it needs of (lam, mu, nu), most
# specific first, in the layout test_shape_code_matches_the_readers checks:
# one-row 1, two-row 2, hook 4.
FORM_BITS = (
    (DELTA_RULE, 1, 0, 0),
    (TWO_ROW_TWO_ROW, 0, 2, 2),
    (HOOK_HOOK, 0, 4, 4),
    (HOOK_TWO_ROW, 0, 4, 2),
)


def reference_order():
    """All 24 symmetry variants as (sources, moves), in the documented
    deterministic order: the plain permutations first (identity leading),
    then each pairwise-conjugation pattern crossed with the permutations.
    sources fill the three slots from (lam, mu, nu, lam', mu', nu')."""
    for pattern in CONJ_PATTERNS:
        for perm in PERMUTATIONS:
            sources = list(perm)
            moves = ()
            if perm != (0, 1, 2):
                moves += (f"permute({perm[0]},{perm[1]},{perm[2]})",)
            if pattern is not None:
                i, j = pattern
                sources[i] += 3
                sources[j] += 3
                moves += (f"conjugate({i},{j})",)
            yield tuple(sources), moves


def reference_variants(lam, mu, nu):
    """All 24 symmetry variants as (lam, mu, nu, moves), in the documented
    order of reference_order."""
    shapes = (lam, mu, nu, conjugate(lam), conjugate(mu), conjugate(nu))
    for (i, j, k), moves in reference_order():
        yield shapes[i], shapes[j], shapes[k], moves


def reference_candidate(codes):
    """(sources, moves, provenance) of the first variant whose slot classes
    hold a row of FORM_BITS, for three shape codes, or None."""
    classes = [code & 7 for code in codes] + [code >> 9 for code in codes]
    for sources, moves in reference_order():
        slots = [classes[s] for s in sources]
        for provenance, *bits in FORM_BITS:
            if all(c & b == b for c, b in zip(slots, bits)):
                return sources, moves, provenance
    return None


def reference_match(variant):
    """Match one variant against the closed forms, most specific first,
    reading the shape classes with the partition readers."""
    lam, mu, nu, moves = variant
    if len(lam) <= 1:
        return KroneckerResult(1 if mu == nu else 0, DELTA_RULE, moves)
    if two_row_parts(mu) is not None and two_row_parts(nu) is not None:
        return KroneckerResult(kron_two_tworow(lam, mu, nu), TWO_ROW_TWO_ROW, moves)
    if hook_parts(mu) is not None and hook_parts(nu) is not None:
        return KroneckerResult(kron_two_hooks(lam, mu, nu), HOOK_HOOK, moves)
    if hook_parts(mu) is not None and two_row_parts(nu) is not None:
        return KroneckerResult(kron_hook_tworow(lam, mu, nu), HOOK_TWO_ROW, moves)
    return None


def reference_compute(lam, mu, nu, oracle=kron_oracle):
    for variant in reference_variants(lam, mu, nu):
        result = reference_match(variant)
        if result is not None:
            return result
    return oracle(lam, mu, nu)


def gate(n_max):
    """Compare compute with the reference on every triple with n <= n_max;
    return the number of triples checked."""
    checked = 0
    for n in range(n_max + 1):
        shapes = list(enumerate_partitions(n))
        for lam in shapes:
            for mu in shapes:
                for nu in shapes:
                    expected = reference_compute(lam, mu, nu)
                    assert closed_forms.compute(lam, mu, nu) == expected, (lam, mu, nu)
                    checked += 1
    return checked


def test_candidate_is_the_first_match_in_the_documented_order():
    # the moves are part of compute's answer, so a reordered walk changes
    # the contract; every signature of the shape codes met at n <= 12
    codes = sorted({p.shape_code for n in range(13) for p in enumerate_partitions(n)})
    assert len(codes) == 14
    found = set()
    for a in codes:
        for b in codes:
            for c in codes:
                expected = reference_candidate((a, b, c))
                assert closed_forms._candidate(a | b << 3 | c << 6) == expected, (a, b, c)
                found.add(expected and expected[2])
    assert found == {None, DELTA_RULE, TWO_ROW_TWO_ROW, HOOK_HOOK, HOOK_TWO_ROW}


def test_shape_code_matches_the_readers():
    # the reference matcher's class tests: len <= 1, two_row_parts and hook_parts
    for n in range(13):
        for lam in enumerate_partitions(n):
            code = lam.shape_code
            for shape, bits in ((lam, code & 7), (conjugate(lam), code >> 9)):
                expected = ((len(shape) <= 1)
                            | (two_row_parts(shape) is not None) << 1
                            | (hook_parts(shape) is not None) << 2)
                assert bits == expected, shape


def test_exhaustive_gate_through_8():
    assert gate(8) == 15_859  # sum of p(n)^3 for n = 0..8


def _random_partition(rng, n):
    parts = []
    while n:
        part = rng.randint(1, n)
        parts.append(part)
        n -= part
    return make_partition(parts)


def _random_two_row(rng, n):
    second = rng.randint(0, n // 2)
    return make_partition([n - second, second])


def _random_hook(rng, n):
    leg = rng.randint(1, n - 2)
    return make_partition([n - leg] + [1] * leg)


def _present(rng, triple):
    """The triple in a random S3 order, then with a random pair conjugated."""
    triple = [triple[s] for s in rng.choice(PERMUTATIONS)]
    pattern = rng.choice(CONJ_PATTERNS)
    if pattern is not None:
        for s in pattern:
            triple[s] = conjugate(triple[s])
    return tuple(triple)


def test_seeded_presentations_at_large_n(monkeypatch):
    # The oracle is out of reach at these sizes.  Two of the three shapes
    # are two-row or hooks, so a closed form always applies: a stub records
    # any triple that either route would leave to the oracle.
    oracle_calls = []

    def stub_oracle(lam, mu, nu):
        oracle_calls.append((lam, mu, nu))
        return KroneckerResult(0, ORACLE)

    monkeypatch.setattr(closed_forms, "kron_oracle", stub_oracle)
    rng = random.Random(20261018)
    makers = (_random_two_row, _random_hook)
    lam_makers = (_random_partition, _random_two_row, _random_hook)
    provenances = set()
    for _ in range(300):
        n = rng.randint(20, 200)
        mu, nu = (rng.choice(makers)(rng, n) for _ in range(2))
        lam = rng.choice(lam_makers)(rng, n)
        for triple in (_present(rng, (lam, mu, nu)), _present(rng, (lam, mu, nu))):
            expected = reference_compute(*triple, oracle=stub_oracle)
            assert closed_forms.compute(*triple) == expected, triple
            provenances.add(expected.provenance)
    assert provenances == {DELTA_RULE, TWO_ROW_TWO_ROW, HOOK_HOOK, HOOK_TWO_ROW}
    assert oracle_calls == []


def _counting_conjugate(monkeypatch):
    calls = []

    def counted(lam):
        calls.append(lam)
        return conjugate(lam)

    monkeypatch.setattr(closed_forms, "conjugate", counted)
    return calls


def test_general_triple_makes_no_conjugation(monkeypatch):
    calls = _counting_conjugate(monkeypatch)
    lam = make_partition([3, 3, 3])
    assert closed_forms.compute(lam, lam, lam).provenance == ORACLE
    assert calls == []


def test_only_used_shapes_are_conjugated(monkeypatch):
    calls = _counting_conjugate(monkeypatch)
    lam = make_partition([4, 3, 1])
    mu, nu = make_partition([6, 2]), make_partition([5, 3])
    closed_forms.compute(lam, mu, nu)
    assert calls == []  # the identity variant fires
    # mu' and nu' are two-row: the first hit conjugates that pair only
    mu, nu = conjugate(mu), conjugate(nu)
    result = closed_forms.compute(lam, mu, nu)
    assert result.moves == ("conjugate(1,2)",)
    assert calls == [mu, nu]


if __name__ == "__main__":
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print(f"n <= {n_max}: {gate(n_max)} triples identical")
