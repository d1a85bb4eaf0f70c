"""Each test starts with empty left-side, stencil and family-evaluator
memos, so call-count assertions see the calls of that test alone."""
import pytest

from hadamard_rect import bounds, identity


@pytest.fixture(autouse=True)
def empty_memos():
    identity._lhs_parts.cache_clear()
    bounds._last_stencil = None
    bounds.family_stencil_rhs.cache_clear()
