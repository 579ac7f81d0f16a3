"""The Hopf suites' residual caches: a warm cache answers as a cold one."""

from itertools import product

import pytest

from ospq.gmatrix import GradedMatrix
from ospq.halfint import HalfInt
from ospq.hopf import (
    SUITE_CACHE_SIZE,
    antipode_residuals,
    coassociativity_residuals,
    counit_residuals,
    delta_homomorphy_residuals,
    hopf_suite_failures,
    q_algebra,
    r1_algebra,
    r2_algebra,
    relations_residuals,
)
from ospq.reps import GeneratorTable, q_rep, r1_generators, r2_generators

HALF = HalfInt.from_twice(1)
ONEJ = HalfInt(1)

CASES = {
    "r2": (r2_algebra, r2_generators),
    "r1-minimal": (r1_algebra, lambda j: r1_generators(j, "minimal")),
    "r1-hdiag": (r1_algebra, lambda j: r1_generators(j, "hdiag")),
    "q": (q_algebra, q_rep),
}

SUITE_CACHES = (
    relations_residuals,
    delta_homomorphy_residuals,
    coassociativity_residuals,
    counit_residuals,
    antipode_residuals,
)


def clear_suite_caches():
    for cached in SUITE_CACHES:
        cached.cache_clear()


def y_flipped(rep) -> GeneratorTable:
    mats = {name: rep.matrix(name) for name in rep.names()}
    mats["Y"] = -mats["Y"]
    return GeneratorTable(rep.variant, rep.j, rep.parity, mats)


def sweep(tables):
    """Failures of every case on every triple of its tables."""
    return {
        (case, triple): hopf_suite_failures(CASES[case][0](), [tables[case][k] for k in triple])
        for case in tables
        for triple in product(range(len(tables[case])), repeat=3)
    }


def good_tables():
    return {case: [rep_of(HALF), rep_of(ONEJ)] for case, (_, rep_of) in CASES.items()}


def test_cold_sweep_matches_warm_sweep():
    clear_suite_caches()
    cold = sweep(good_tables())
    misses = sum(cached.cache_info().misses for cached in SUITE_CACHES)
    warm = sweep(good_tables())
    assert warm == cold
    assert len(cold) == 4 * 8 and all(fails == [] for fails in cold.values())
    # the warm sweep computed nothing
    assert sum(cached.cache_info().misses for cached in SUITE_CACHES) == misses
    # one entry per distinct table, pair and triple of each case
    assert [cached.cache_info().currsize for cached in SUITE_CACHES] == [8, 16, 32, 8, 8]


@pytest.mark.parametrize("case", ["r2", "r1-minimal"])
def test_y_flipped_table_fails_in_every_triple_that_holds_it(case):
    sweep(good_tables())  # warm the caches with the unflipped tables
    tables = good_tables()
    flipped = y_flipped(tables[case][0])
    tables = {case: tables[case] + [flipped]}
    warm = sweep(tables)
    for (_, triple), fails in warm.items():
        if 2 in triple:
            # the leg is named only when the good spin-1/2 table is there too
            tag = f"j=1/2,leg={triple.index(2) + 1}" if 0 in triple else "j=1/2"
            assert any(label.startswith(f"relations[{tag}]:") for label, _, _ in fails)
        else:
            assert fails == []
    clear_suite_caches()
    assert sweep(tables) == warm


def test_q_sweep_builds_each_word_matrix_once_per_table(monkeypatch):
    # The q tables take the Scalar route, whose word matrices live in the
    # tables' own memos; fresh copies of the cached tables start them empty.
    tables = {
        "q": [GeneratorTable(t.variant, t.j, t.parity, t.matrices) for t in good_tables()["q"]]
    }
    calls = [0]
    matmul = GradedMatrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(GradedMatrix, "__matmul__", counted)
    first = sweep(tables)
    assert all(fails == [] for fails in first.values())
    # one product per memoized word of two or more letters, and no other
    built = sum(len(word) > 1 for table in tables["q"] for word in table.words)
    assert calls[0] == built > 0
    clear_suite_caches()
    calls[0] = 0
    assert sweep(tables) == first
    assert calls[0] == 0


def test_residuals_are_fresh_lists():
    rep = r2_generators(HALF)
    bad = y_flipped(rep)
    fails = relations_residuals(r2_algebra(), bad)
    assert type(fails) is list and fails
    fails.append("stray")
    assert "stray" not in relations_residuals(r2_algebra(), bad)
    assert relations_residuals(r2_algebra(), rep) == []


def test_caches_are_bounded():
    # the criterion-7 sweep's 32 coassociativity keys fit
    assert SUITE_CACHE_SIZE >= 32
    rep = r2_generators(HALF)
    for _ in range(2 * SUITE_CACHE_SIZE):
        assert relations_residuals(r2_algebra(), y_flipped(rep))
    info = relations_residuals.cache_info()
    assert info.maxsize == SUITE_CACHE_SIZE
    assert info.currsize <= SUITE_CACHE_SIZE


def test_two_tables_of_one_spin_name_their_legs():
    good = r2_generators(HALF)
    bad = y_flipped(good)
    fails = hopf_suite_failures(r2_algebra(), [good, bad, good])
    single_leg = {label.split(":")[0] for label, _, _ in fails if "[" in label}
    assert "relations[j=1/2,leg=2]" in single_leg
    # the good table, first on leg 1, has no single-leg failure
    assert not any("leg=1" in label for label in single_leg)
    # with one table per spin the labels name the spin only
    alone = hopf_suite_failures(r2_algebra(), [bad, r2_generators(ONEJ), bad])
    assert any(label.startswith("relations[j=1/2]:") for label, _, _ in alone)
    assert not any("leg=" in label for label, _, _ in alone)
