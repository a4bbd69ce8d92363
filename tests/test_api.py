"""The public surface: every ``__all__`` is sorted, resolves and is complete,
and README's library quickstart runs as written."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def test_readme_quickstart_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    assert block, "README has no Library quickstart block"
    names = {}
    exec(compile(block[1], "README.md quickstart", "exec"), names)
    assert len(names["answers"]) == 1000 and len(names["synth"]) == 100
