"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).  Budgets are wall-clock
seconds on commodity hardware and are asserted, not advisory.
"""

import itertools
import math
import random
import time

from conftest import all_labeled_graphs, k4_minus_edge, random_graph

from orcov import (
    SearchBudget,
    SetFamily,
    brute_mifs,
    brute_sigma,
    complete_graph,
    construct_cover,
    cover_from_families,
    cycle_graph,
    enumerate_mifs,
    families_from_cover,
    hosten_morris,
    is_intersecting,
    lambda_asymptote,
    petersen_graph,
    sigma_complete,
    sigma_estimate,
    sigma_of_graph,
    upward_closure,
    verify_cover,
    wheel_graph,
)
from orcov.families import _mif_walk

LAMBDA_EXPECTED = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_lambda_table():
    counts = {k: enumerate_mifs(k).count for k in range(1, 7)}
    table_ok = counts == LAMBDA_EXPECTED
    brute_ok = all(
        brute_mifs(k) == enumerate_mifs(k).families for k in range(1, 5)
    )
    t0 = time.perf_counter()
    c6 = hosten_morris(6)
    dt6 = time.perf_counter() - t0
    t0 = time.perf_counter()
    c7 = hosten_morris(7)
    dt7 = time.perf_counter() - t0
    t0 = time.perf_counter()
    n7 = len(_mif_walk(7))
    dt7_walk = time.perf_counter() - t0
    n7_rev = len(_mif_walk(7, reverse_pairs=True))
    report(
        1,
        table_ok and brute_ok and c6 == 2646 and dt6 < 10 and dt7 < 120
        and dt7_walk < 120 and c7 == n7 == n7_rev,
        f"lambda(1..6)={list(counts.values())}, brute match k<=4, "
        f"lambda(6) in {dt6:.2f}s, lambda(7)={c7} in {dt7:.2f}s, "
        f"walk finds {n7} in {dt7_walk:.2f}s, reverse order agrees ({n7_rev})",
    )


def test_criterion_02_lambda9_order_of_magnitude():
    v = hosten_morris(9, literature_table=True)
    report(2, 10**20 < v < 10**21, f"lambda(9)={v} lies in (1e20, 1e21)")


def test_criterion_03_sigma_complete_boundaries():
    table = {2: 2, 3: 3, 4: 3, 5: 4, 12: 4, 13: 5, 81: 5, 82: 6, 2646: 6, 2647: 7}
    got = {n: sigma_complete(n).value for n in table}
    report(3, got == table, f"sigma(K_n) boundaries {got}")


def _criterion4_graphs():
    for n in (2, 3, 4):
        yield from all_labeled_graphs(n, nonempty=True)
    yield cycle_graph(5)
    yield cycle_graph(7)
    yield k4_minus_edge()
    yield wheel_graph(5)
    yield complete_graph(5)
    yield complete_graph(6)


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    budget = SearchBudget(max_edges=15, max_k=4)
    for g in _criterion4_graphs():
        assert brute_sigma(g, budget) == sigma_of_graph(g).value, f"mismatch on {g.edges}"
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        elapsed < 300,
        f"brute_sigma == sigma_of_graph on {checked} graphs in {elapsed:.1f}s",
    )


def test_criterion_05_sigma_depends_only_on_chi():
    c5 = brute_sigma(cycle_graph(5))
    k3 = brute_sigma(complete_graph(3))
    k4e = brute_sigma(k4_minus_edge())
    report(
        5,
        c5 == k3 == 3 and k4e == k3,
        f"brute: C5={c5}, K3={k3}, K4-e={k4e}",
    )


def test_criterion_06_constructed_covers_are_minimum():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 82):
        g = complete_graph(n)
        cert = construct_cover(g, max_chi_vertices=81)
        assert cert.k == sigma_of_graph(g, max_chi_vertices=81).value
        assert verify_cover(g, cert.orientations) is None
        checked += 1
    g = petersen_graph()
    cert = construct_cover(g)
    assert cert.k == sigma_of_graph(g).value == 3
    assert verify_cover(g, cert.orientations) is None
    checked += 1
    rng = random.Random(2026)
    for _ in range(100):
        g = random_graph(rng, n_max=10)
        cert = construct_cover(g)
        assert cert.k == sigma_of_graph(g).value
        assert verify_cover(g, cert.orientations) is None
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        elapsed < 60,
        f"construct_cover verified with exact sigma on {checked} graphs in {elapsed:.1f}s",
    )


def test_criterion_07_assignment_round_trip():
    rng = random.Random(410)
    for _ in range(50):
        g = random_graph(rng, n_max=9)
        cover = list(construct_cover(g).orientations)
        rng.shuffle(cover)
        fa = families_from_cover(g, cover)
        rebuilt = cover_from_families(g, fa)
        assert rebuilt.k == len(cover)
        assert verify_cover(g, rebuilt.orientations) is None
    report(7, True, "50 permuted covers round-tripped through family assignments")


def test_criterion_08_estimate_within_one():
    gaps = {}
    for n in (13, 20, 50, 100, 500, 1000, 2646):
        gaps[n] = sigma_estimate(n).rounded - sigma_complete(n).value
    report(
        8,
        all(abs(d) <= 1 for d in gaps.values()),
        f"estimate - exact gaps {gaps}",
    )


def test_criterion_09_growth_ratio_trend():
    ratios = [
        math.log2(hosten_morris(k)) / lambda_asymptote(k) for k in (4, 5, 6, 7)
    ]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    bounded = all(1.0 <= r <= 1.2 for r in ratios)
    report(
        9,
        decreasing and bounded,
        "log2(lambda)/asymptote for k=4..7: "
        + ", ".join(f"{r:.4f}" for r in ratios),
    )


def test_criterion_10_mif_invariant_suite():
    checked = 0
    for k in range(1, 6):
        catalog = enumerate_mifs(k)
        members = {f.member for f in catalog.families}
        full = (1 << k) - 1
        for f in catalog.families:
            assert f.size == 1 << (k - 1)
            assert upward_closure(f) == f
            assert all((s in f) != ((full ^ s) in f) for s in range(1 << k))
            assert is_intersecting(f)
            assert full in f and 0 not in f
            checked += 1
        for i in range(1, k + 1):
            star = SetFamily.from_masks(
                k, [s for s in range(1 << k) if (s >> (i - 1)) & 1]
            )
            assert star.member in members
        for perm in itertools.permutations(range(k)):
            for m in members:
                image = 0
                rest = m
                while rest:
                    lsb = rest & -rest
                    s = lsb.bit_length() - 1
                    mapped = 0
                    for b in range(k):
                        if (s >> b) & 1:
                            mapped |= 1 << perm[b]
                    image |= 1 << mapped
                    rest ^= lsb
                assert image in members
            if k == 1:
                break
        checked += 1
    report(10, True, f"five structural invariants, stars, and permutation closure hold for k <= 5 ({checked} families)")
