"""Orientation covering numbers.

sigma(G) is the smallest k such that at least chi(G) maximal
intersecting families exist over [k], so the whole computation reduces
to the exact chromatic number plus the lambda(k) table.  The closed
-form estimate for sigma(K_n) and the growth rate of log lambda(k) are
provided as advisory floating-point helpers; they never feed an exact
path.  All logarithms are base 2.
"""

from __future__ import annotations

import math
from itertools import count

from .errors import CapacityError
from .families import _lambda_sums, lambda_provenance
from .graphs import DEFAULT_CHI_VERTEX_BOUND, Graph, _Value, _set, chromatic_number


class SigmaResult(_Value):
    """sigma value with the chromatic number and witness it came from.

    witness_k is the smallest k with lambda(k) >= chi (and equals
    value); provenance is lambda_provenance(witness_k): "literature" when
    a literature-table lambda was consulted, else "computed".
    """

    __slots__ = ("value", "chi", "witness_k", "provenance")
    value: int
    chi: int
    witness_k: int
    provenance: str

    def __init__(self, value: int, chi: int, witness_k: int, provenance: str) -> None:
        _set(self, "value", value)
        _set(self, "chi", chi)
        _set(self, "witness_k", witness_k)
        _set(self, "provenance", provenance)


class EstimateResult(_Value):
    """Closed-form estimate: raw formula value and its ceiling."""

    __slots__ = ("raw", "rounded")
    raw: float
    rounded: int

    def __init__(self, raw: float, rounded: int) -> None:
        _set(self, "raw", raw)
        _set(self, "rounded", rounded)


def sigma_complete(n: int, literature_table: bool = False) -> SigmaResult:
    """sigma(K_n): smallest k with lambda(k) >= n.

    Walks k = 1, 2, ... over _lambda_sums(k), up to the first k it does
    not serve, and stops at the first partial sum that reaches n: that
    sum proves lambda(k) >= n, and a sum that never reaches n is
    lambda(k) itself; n = 2647 stops after 30 of lambda(7)'s 1,568
    terms.  Rejects n < 2 (K_1 has no edges, so its covering number is
    undefined).
    """
    if n < 2:
        raise ValueError("sigma(K_n) requires n >= 2; K_1 has no edges")
    for k in count(1):
        try:
            sums = _lambda_sums(k, literature_table)
        except CapacityError:  # lambda(1) is always served, so lam is bound here
            message = f"sigma(K_n) supported up to n = lambda({k - 1}) = {lam}; got n={n}"
            raise CapacityError(message) from None
        for lam in sums:
            if lam >= n:
                return SigmaResult(value=k, chi=n, witness_k=k, provenance=lambda_provenance(k))


def sigma_of_graph(
    g: Graph,
    literature_table: bool = False,
    max_chi_vertices: int = DEFAULT_CHI_VERTEX_BOUND,
) -> SigmaResult:
    """sigma(G) = sigma(K_chi(G)) for any graph with at least one edge; the bound comes first."""
    chi = chromatic_number(g, max_vertices=max_chi_vertices)
    if g.m == 0:
        raise ValueError("sigma is defined only for non-empty graphs (m >= 1)")
    return sigma_complete(chi, literature_table=literature_table)


def sigma_estimate(n: int) -> EstimateResult:
    """Asymptotic closed form for sigma(K_n), without its o(1) term.

    raw = log2 log2 n + (log2 log2 log2 n) / 2 + (log2 pi + 1) / 2.
    Advisory only: the ceiling is exact only asymptotically, and the
    acceptance suite checks it stays within 1 of the exact value on
    the supported range.
    """
    if n < 3:
        raise ValueError("estimate requires n >= 3 so the iterated logs are defined")
    llg = math.log2(math.log2(n))
    raw = llg + 0.5 * math.log2(llg) + 0.5 * (math.log2(math.pi) + 1.0)
    return EstimateResult(raw=raw, rounded=math.ceil(raw))


def lambda_asymptote(k: int) -> float:
    """Growth-rate reference for log2 lambda(k): 2^k / sqrt(2 pi k)."""
    if k < 1:
        raise ValueError("k must be positive")
    return (2.0 ** k) / math.sqrt(2.0 * math.pi * k)
