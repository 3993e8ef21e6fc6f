import logging

import pytest
from hypothesis import settings

import samples

# Every property draws the same examples on every run, and none are replayed from a local store.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def service_errors():
    """The ERROR records any ``sipnat`` module logs, from any thread, while the test runs.

    The protocol layer's boundary logs what escapes the proxy and carries on,
    in the socket service and the simulator alike, so a test that saw none of
    it would still pass; a test that expects such a record takes it out of
    this list, and any record left fails the test.
    """
    handler = _Records()
    log = logging.getLogger("sipnat")
    log.addHandler(handler)
    yield handler.records
    log.removeHandler(handler)
    if handler.records:
        pytest.fail("sipnat logged: " + "; ".join(r.getMessage() for r in handler.records))


@pytest.fixture
def invite_raw() -> bytes:
    return samples.sample_invite()


@pytest.fixture
def answer_raw() -> bytes:
    return samples.sample_answer()
