"""Every public name resolves, every name the benchmark's tracer wraps
still exists in the package, so that a traced run (``--trace 1``) cannot
break silently when a name is deleted or renamed, and README's list of
suites is the package's.

``benchmark/tracing.py`` is only read here, never imported: its name tables
are plain literals.
"""

import ast
import importlib
import os
import re

import jointtorsion
from jointtorsion.suites import SUITES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "benchmark", "tracing.py")
README = os.path.join(ROOT, "README.md")
TABLES = ("FUNCTIONS", "CLASSES", "METHODS", "SCALAR_OPS")


def tracing_tables() -> dict:
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in TABLES):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def module(name: str):
    return importlib.import_module(f"jointtorsion.{name}")


def test_every_public_name_resolves():
    assert len(set(jointtorsion.__all__)) == len(jointtorsion.__all__)
    for name in jointtorsion.__all__:
        assert hasattr(jointtorsion, name), name


def test_every_traced_name_exists():
    tables = tracing_tables()
    assert set(tables) == set(TABLES)
    for mod, attr, _ in tables["FUNCTIONS"]:
        assert callable(getattr(module(mod), attr, None)), f"{mod}.{attr}"
    for mod, attr, _ in tables["CLASSES"]:
        cls = getattr(module(mod), attr, None)
        assert isinstance(cls, type) and "__init__" in vars(cls), \
            f"{mod}.{attr}"
    for mod, cls_name, attr, _ in tables["METHODS"]:
        cls = getattr(module(mod), cls_name, None)
        assert cls is not None and attr in vars(cls), \
            f"{mod}.{cls_name}.{attr}"
    for attr in tables["SCALAR_OPS"]:
        assert attr in vars(jointtorsion.QiScalar), f"QiScalar.{attr}"


def test_readme_lists_every_suite():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Available suites for `verify` / `--suite`:")
    listing = text[text.index(":", start):text.index(". ", start)]
    assert re.findall(r"`([^`]+)`", listing) == list(SUITES)
