"""Slow cross-checks, kept out of Tier-1's testpaths.

Run from the root of a checkout:

    python -m pytest -q tests_slow

They share the reference implementations in tests/conftest.py.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import reference_mif_terms  # noqa: E402

from orcov.families import LITERATURE_LAMBDA  # noqa: E402


def test_the_unweighted_sum_of_lambda_8_is_the_literature_value():
    # one antichain count per up-set on [6]: 7,828,354 terms, about 17 s
    # and 0.5 GB on one core; Tier-1 checks the orbit-weighted sum
    assert sum(reference_mif_terms(8)) == LITERATURE_LAMBDA[8]
