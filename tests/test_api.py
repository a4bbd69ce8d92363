"""The public surface: every ``__all__`` is sorted, resolves and is complete."""

import importlib
import inspect
import pkgutil

import pytest

import dphier

MODULES = [dphier] + [
    importlib.import_module(f"dphier.{info.name}")
    for info in pkgutil.iter_modules(dphier.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_is_sorted_resolvable_and_complete(module):
    names = module.__all__
    assert names == sorted(names)
    assert [n for n in names if not hasattr(module, n)] == []
    public = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(public - set(names)) == []
