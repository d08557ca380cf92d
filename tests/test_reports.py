"""Persisted reports of cheap generic strict cells, pinned byte for byte.

A refactor of a suite must leave the report of every valid cell unchanged;
``to_json`` is what ``--out`` persists, so it is pinned here as literals for
``--suite all`` at d=2 n=3, d=3 n=2 and d=4 n=1.
"""

import pytest

from simplexalg.scalar import Rat
from simplexalg.verify import SUITES, run_suites


def _passing(*checks):
    return [{"name": name, "status": "pass", "details": details} for name, details in checks]


PINNED = {
    (2, 3): {
        "d": 2,
        "n": 3,
        "gamma": ["1/2", "1/3", "1/5"],
        "checks": _passing(
            ("spectral", "2 commuting operators on 4 indices"),
            ("racah", "difference = differential for 3 operators"),
            ("f-relation", "vacuous: needs four distinct indices"),
            ("kd", "all commutativity relations hold for d=2"),
            ("kd-matrix", "matrix commutation relations hold"),
            ("orthogonality", "10 family members, 3 generators"),
            ("irreducibility", "full orbit closure from 4 start vectors; interior certificates nonzero"),
            ("submodules", "vacuous for d = 2"),
            ("separation", "4 distinct eigenvalue tuples"),
            ("relations", "recovery, dependence, closure, rank 3 verified"),
        ),
    },
    (3, 2): {
        "d": 3,
        "n": 2,
        "gamma": ["1/2", "1/3", "1/5", "1/7"],
        "checks": _passing(
            ("spectral", "3 commuting operators on 6 indices"),
            ("racah", "difference = differential for 7 operators"),
            ("f-relation", "2 index choices"),
            ("kd", "all commutativity relations hold for d=3"),
            ("kd-matrix", "matrix commutation relations hold"),
            ("orthogonality", "10 family members, 6 generators"),
            ("irreducibility", "full orbit closure from 6 start vectors"),
            ("submodules", "3 tail blocks and the plane block verified"),
            ("separation", "6 distinct eigenvalue tuples"),
            ("relations", "recovery, dependence, closure, rank 6 verified"),
        ),
    },
    (4, 1): {
        "d": 4,
        "n": 1,
        "gamma": ["1/2", "1/3", "1/5", "1/7", "1/11"],
        "checks": _passing(
            ("spectral", "4 commuting operators on 4 indices"),
            ("racah", "difference = differential for 6 operators"),
            ("f-relation", "4 index choices"),
            ("kd", "all commutativity relations hold for d=4"),
            ("kd-matrix", "matrix commutation relations hold"),
            ("orthogonality", "5 family members, 10 generators"),
            ("irreducibility", "full orbit closure from 4 start vectors"),
            ("submodules", "2 tail blocks and the plane block verified"),
            ("separation", "4 distinct eigenvalue tuples"),
            ("relations", "recovery, dependence, closure, rank 10 verified"),
        ),
    },
}

RECIPROCAL_PRIMES = (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7), Rat(1, 11))


@pytest.mark.parametrize("d, n", sorted(PINNED), ids=lambda value: str(value))
def test_all_suites_report_is_pinned(d, n):
    report = run_suites(d, n, RECIPROCAL_PRIMES[: d + 1], SUITES, "strict")
    assert report.to_json() == PINNED[(d, n)]
