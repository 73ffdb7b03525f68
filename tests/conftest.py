"""Fixtures shared by the test modules."""

import pytest

from myobridge import session


@pytest.fixture(scope="session")
def bundled_logs():
    """The bundled scenario's logs at seed 1, one tuple of records per
    performer.  Generated once per run and shared, so kept as tuples."""
    logs = session.generate_scenario(session.default_scenario(), 1)
    return tuple(tuple(log) for log in logs)
