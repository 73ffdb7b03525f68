"""Fixtures shared by the test modules."""

import pytest

from myobridge import session


@pytest.fixture(scope="session")
def bundled_logs():
    """The bundled scenario's logs at seed 1, one session.Log per performer.
    Generated once per run and shared as they are: a Log is immutable, so
    no test can change the records another test reads."""
    return tuple(session.generate_scenario(session.default_scenario(), 1))
