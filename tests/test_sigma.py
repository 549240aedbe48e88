import math
import random

import pytest
import orcov.families
from conftest import k4_minus_edge, random_graph, relabeled

from orcov import (
    CapacityError,
    Graph,
    complete_graph,
    cycle_graph,
    hosten_morris,
    lambda_asymptote,
    path_graph,
    sigma_complete,
    sigma_estimate,
    sigma_of_graph,
    wheel_graph,
)

BOUNDARIES = [
    (2, 2),
    (3, 3),
    (4, 3),
    (5, 4),
    (12, 4),
    (13, 5),
    (81, 5),
    (82, 6),
    (2646, 6),
    (2647, 7),
]


class TestSigmaComplete:
    @pytest.mark.parametrize("n,want", BOUNDARIES)
    def test_boundary_table(self, n, want):
        res = sigma_complete(n)
        assert res.value == want
        assert res.witness_k == res.value
        assert res.chi == n
        assert res.provenance == "computed"

    def test_witness_brackets_chi(self):
        for n in (2, 5, 13, 100, 2646):
            res = sigma_complete(n)
            assert hosten_morris(res.witness_k) >= n
            if res.witness_k > 1:
                assert hosten_morris(res.witness_k - 1) < n

    def test_rejects_k1(self):
        with pytest.raises(ValueError, match="n >= 2"):
            sigma_complete(1)

    def test_capacity_names_largest_supported_n(self):
        lam7 = hosten_morris(7)
        with pytest.raises(CapacityError, match=str(lam7)):
            sigma_complete(lam7 + 1)
        assert sigma_complete(lam7).value == 7

    def test_literature_table_extends_range(self):
        res = sigma_complete(10**12, literature_table=True)
        assert res.value == 9
        assert res.provenance == "literature"
        res = sigma_complete(hosten_morris(7) + 1, literature_table=True)
        assert res.value == 8
        with pytest.raises(CapacityError):
            sigma_complete(10**21, literature_table=True)

    @pytest.mark.parametrize("literature_table", [False, True])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_early_stop_matches_the_full_count(self, k, literature_table):
        """Stopping lambda(k)'s sum once it reaches n changes no answer.

        The reference is min{k : lambda(k) >= n} over the full counts,
        at both ends of (lambda(k-1), lambda(k)] and a seeded sample.
        """
        low = hosten_morris(k - 1) if k > 1 else 1
        high = hosten_morris(k)
        rng = random.Random(k)
        ns = {low, low + 1, high, high + 1, *(rng.randint(low, high) for _ in range(5))}
        for n in sorted(n for n in ns if n >= 2):
            want = min(j for j in range(1, 10) if hosten_morris(j, literature_table=True) >= n)
            if want > 7 and not literature_table:
                with pytest.raises(CapacityError) as err:
                    sigma_complete(n)
                assert str(err.value) == f"sigma(K_n) supported up to n = lambda(7) = {high}; got n={n}"
                continue
            res = sigma_complete(n, literature_table=literature_table)
            assert (res.value, res.witness_k, res.chi) == (want, want, n)
            assert res.provenance == ("literature" if want > 7 else "computed")

    def test_the_last_sum_stops_once_it_reaches_n(self, monkeypatch):
        terms = orcov.families._mif_terms
        used = []

        def counted(k):
            for term in terms(k):
                used.append(k)
                yield term

        monkeypatch.setattr(orcov.families, "_mif_terms", counted)
        total = len(list(terms(7)))
        assert sigma_complete(2647).value == 7
        assert 0 < used.count(7) < total
        lam7 = hosten_morris(7)  # sums lambda(7)'s terms too, so it runs before the clear
        used.clear()
        assert sigma_complete(lam7).value == 7
        assert used.count(7) == total

    def test_non_decreasing(self):
        values = [sigma_complete(n).value for n in range(2, 200)]
        for a, b in zip(values, values[1:]):
            assert a <= b <= a + 1


class TestSigmaOfGraph:
    def test_named_graphs(self):
        assert sigma_of_graph(cycle_graph(5)).value == 3
        assert sigma_of_graph(complete_graph(4)).value == 3
        assert sigma_of_graph(path_graph(4)).value == 2
        assert sigma_of_graph(k4_minus_edge()).value == 3
        assert sigma_of_graph(wheel_graph(5)).value == 3

    def test_chi_recorded(self):
        res = sigma_of_graph(cycle_graph(5))
        assert res.chi == 3 and res.witness_k == 3

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sigma_of_graph(path_graph(1))

    def test_bound_before_the_edgeless_refusal(self):
        with pytest.raises(CapacityError, match="limited to 32 vertices"):
            sigma_of_graph(Graph.from_edges([], n=40))

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, n_max=8)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert sigma_of_graph(relabeled(g, perm)).value == sigma_of_graph(g).value


class TestEstimate:
    def test_matches_exact_at_2646(self):
        est = sigma_estimate(2646)
        assert est.rounded == 6 == sigma_complete(2646).value

    def test_within_one_at_100(self):
        est = sigma_estimate(100)
        assert abs(est.rounded - sigma_complete(100).value) <= 1

    def test_domain_boundary(self):
        est = sigma_estimate(3)
        assert math.isfinite(est.raw)
        with pytest.raises(ValueError):
            sigma_estimate(2)

    def test_rounding_invariant(self):
        for n in (3, 7, 13, 100, 1000, 2646, 10**6):
            est = sigma_estimate(n)
            assert est.rounded - 1 < est.raw <= est.rounded

    def test_formula_value(self):
        n = 2646
        llg = math.log2(math.log2(n))
        want = llg + 0.5 * math.log2(llg) + 0.5 * (math.log2(math.pi) + 1)
        assert sigma_estimate(n).raw == pytest.approx(want)


    # First n of each interval (lambda(k-1), lambda(k)] at which the
    # estimate equals the exact sigma(K_n) = k, as the float formula
    # decides it.  Below it, in the same interval, the estimate gives k - 1.
    WINDOW_ENDS = {3: 4, 4: 7, 5: 21, 6: 180, 7: 9_595, 8: 15_316_999, 9: 14_725_380_938_893}

    @pytest.mark.parametrize("k", range(3, 10))
    def test_exact_from_the_window_end(self, k):
        """The estimate misses sigma(K_n) only in a window just above lambda(k-1).

        sigma_estimate(n).rounded is monotone in n, so bisection finds the
        window's end, and the values at the ends of the miss window and of
        the exact window fix every n of the interval.  Over k = 3..9 that
        is every n in [3, lambda(9)], with lambda(8), lambda(9) from the
        literature.
        """
        first = hosten_morris(k - 1, literature_table=True) + 1
        last = hosten_morris(k, literature_table=True)
        lo, hi = first, last
        while lo < hi:
            mid = (lo + hi) // 2
            if sigma_estimate(mid).rounded >= k:
                hi = mid
            else:
                lo = mid + 1
        end = self.WINDOW_ENDS[k]
        assert lo == end
        for n in (first, last):
            assert sigma_complete(n, literature_table=True).value == k
        assert sigma_estimate(end).rounded == sigma_estimate(last).rounded == k
        assert sigma_estimate(first).rounded == sigma_estimate(end - 1).rounded == k - 1


class TestLambdaAsymptote:
    def test_values(self):
        assert lambda_asymptote(1) == pytest.approx(2 / math.sqrt(2 * math.pi), rel=1e-9)
        assert lambda_asymptote(1) == pytest.approx(0.7979, abs=5e-5)
        assert lambda_asymptote(6) == pytest.approx(64 / math.sqrt(12 * math.pi), rel=1e-9)
        assert lambda_asymptote(6) == pytest.approx(10.42, abs=5e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda_asymptote(0)

    def test_log_lambda_ratio_decreasing_small(self):
        ratios = [
            math.log2(hosten_morris(k)) / lambda_asymptote(k) for k in (4, 5, 6)
        ]
        assert ratios[0] > ratios[1] > ratios[2]
