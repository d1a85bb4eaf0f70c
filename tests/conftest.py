"""Each test starts with empty parse, left-side, stencil and
family-evaluator memos, so call-count assertions see the calls of that
test alone."""
import pytest

from hadamard_rect import bounds, identity, surfaces


@pytest.fixture(autouse=True)
def empty_memos():
    surfaces.parse_surface.cache_clear()
    identity._lhs_parts.cache_clear()
    bounds._stencils = None
    bounds.family_stencil_rhs.cache_clear()
