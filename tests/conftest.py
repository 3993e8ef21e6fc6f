import pytest
from hypothesis import settings

import samples

# Every property draws the same examples on every run, and none are replayed from a local store.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def invite_raw() -> bytes:
    return samples.sample_invite()


@pytest.fixture
def answer_raw() -> bytes:
    return samples.sample_answer()
