"""The public surface: every exported name exists, and the README's
library example runs as printed."""

import importlib
import os
import re

import pytest

import modcmaes

MODULES = ("benchmarks", "cli", "configuration", "core", "evaluation",
           "metaga", "sampling")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.mark.parametrize("name", [None, *MODULES])
def test_every_exported_name_resolves(name):
    module = modcmaes if name is None else importlib.import_module(
        f"modcmaes.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library in five lines", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
