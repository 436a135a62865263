"""Acceptance criteria, one test per criterion at its stated budget.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines; each test also enforces its wall-clock bound.
"""

import time

import pytest

from trunclab import suites

CRITERIA = [
    # (number, description, suite function, cases, time bound in seconds);
    # each bound is 10x the slowest of the measured runs, rounded up to 0.1 s
    # for the re-measured criteria 1-3 and 6-12, or to whole seconds
    (1, "truncation axioms on 200+200 random elements", suites.suite_trunc_axioms, 400, 0.7),
    (2, "fundamental identities on >=200 random (g,n,m)", suites.suite_identities, 200, 0.6),
    (3, "good-sequence bijection on >=200 random g", suites.suite_good_sequences, 200, 0.4),
    (4, "idealization passes exhaustive Boolean axioms (<=16)", suites.suite_idealization, 40, 1),
    (5, "equivalence round trips on all spaces with <=5 points", suites.suite_equivalences, 5, 1),
    (6, "join-of-meets oracle on >=100 pairs, all 8 tags", suites.suite_induced_oracle, 100, 0.5),
    (7, "truncation case tables on >=200 random (g,r)", suites.suite_cut_cases, 200, 0.3),
    (8, "normal form and clearance loop on >=200 random g", suites.suite_normal_clearance, 200, 0.5),
    (9, "omega+1 counterexample battery, one exact case", suites.suite_ex1, 1, 0.1),
    (10, "degree-2 refutation with the exact witness pair", suites.suite_degree2, 1, 0.1),
    (11, "Dini uniformity with computed index, >=100 cases", suites.suite_dini, 100, 0.4),
    (12, "drop/lift squares and partition-oracle agreement, >=100", suites.suite_drop_e0q, 100, 0.9),
]


@pytest.mark.parametrize("number,desc,fn,cases,limit", CRITERIA,
                         ids=[f"criterion-{c[0]:02d}" for c in CRITERIA])
def test_acceptance(number, desc, fn, cases, limit):
    start = time.perf_counter()
    result = fn(seed=0, cases=cases)
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed and elapsed < limit else "FAIL"
    print(f"{status} criterion {number:2d}: {desc} "
          f"[{result.cases} cases, {elapsed:.2f}s < {limit}s]")
    assert result.passed, f"criterion {number} failures: {result.failures[:3]}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"
