import multiprocessing

import pytest

from paper_checks import nakaya_reports, restricted_hasse_sweep

from fricke7.sweep import primes_in

JOBS = min(8, multiprocessing.cpu_count())


@pytest.fixture(scope="session")
def jobs() -> int:
    return JOBS


@pytest.fixture(scope="session")
def reports_1000():
    """The full counts (all of N1, N2, N3, N6) and the formula columns of
    `verified_report` for 5 <= l < 1000."""
    primes = [p for p in primes_in(5, 999) if p != 7]
    return restricted_hasse_sweep(primes, ("N1", "N2", "N3", "N6"), JOBS)


@pytest.fixture(scope="session")
def nakaya_reports_1000():
    """Nakaya reports for 5 <= p < 1000 (oracle comparison runs for p <= 300)."""
    primes = [p for p in primes_in(5, 999) if p != 7]
    return nakaya_reports(primes, JOBS)
