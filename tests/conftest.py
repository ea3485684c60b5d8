"""Session set-up shared by every test module."""

import hypothesis.strategies as st
import pytest
from hypothesis import settings

# Every property at depth, for CI (``--hypothesis-profile=ci``);
# the default profile is left as it is.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session", autouse=True)
def unicode_tables():
    """Build Hypothesis's Unicode tables before the first test.

    Hypothesis builds its category map and the set of UTF-8-encodable
    code points on first use and caches them under .hypothesis/, which a
    fresh checkout lacks.  Left to the first text draw, that one-off
    build counts as input generation and fails the "too slow" health
    check.
    """
    st.characters(codec="utf-8").validate()
