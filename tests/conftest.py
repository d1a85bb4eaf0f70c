"""Each test starts with every bounded memo of hadamard_rect empty (the
parse, left-side, stencil and family-evaluator caches), so call-count
assertions see the calls of that test alone. The unbounded caches are pure
tables of rules and parsers and are left warm."""
import importlib
import pkgutil

import pytest

import hadamard_rect


def _bounded_memos() -> dict:
    """Every functools.lru_cache with a maxsize defined in hadamard_rect's
    modules, by its module-qualified name."""
    memos = {}
    for info in pkgutil.iter_modules(hadamard_rect.__path__):
        module = importlib.import_module(f"{hadamard_rect.__name__}.{info.name}")
        for obj in vars(module).values():
            params = getattr(obj, "cache_parameters", None)
            if callable(params) and params()["maxsize"] is not None:
                memos[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return memos


BOUNDED_MEMOS = _bounded_memos()


@pytest.fixture
def bounded_memos() -> dict:
    return BOUNDED_MEMOS


@pytest.fixture(autouse=True)
def empty_memos():
    for memo in BOUNDED_MEMOS.values():
        memo.cache_clear()
