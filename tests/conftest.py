import os

import pytest

from qnetlim import scenario

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "airport_snapshot")


@pytest.fixture(scope="session")
def airport_dataset():
    return scenario.load_airport_dataset(
        os.path.join(DATA_DIR, "airports.csv"),
        os.path.join(DATA_DIR, "routes.csv"),
    )


@pytest.fixture(scope="session")
def airport_network(airport_dataset):
    return scenario.load_airport_network(airport_dataset)


@pytest.fixture(scope="session")
def airport_summary(airport_dataset):
    """The full report is expensive; compute it once per session."""
    import time

    t0 = time.monotonic()
    report = scenario.airport_report(airport_dataset)
    return report, time.monotonic() - t0
