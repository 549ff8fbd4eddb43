"""Every public name resolves, every name the benchmark's tracer wraps or
reads still exists in the package, so that a traced run (``--trace 1``)
cannot break silently when a name is deleted or renamed, README's list of
suites is the package's, and every name README says the package computes
is one it exports.

``benchmark/tracing.py`` is only read here, never imported: its name tables
are plain literals, and the scalar attributes it reads are found in its
source.
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


def tracing_tree() -> ast.Module:
    with open(TRACING, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def tracing_tables() -> dict:
    tables = {}
    for node in tracing_tree().body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in TABLES):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def module(name: str):
    return importlib.import_module(f"jointtorsion.{name}")


def readme_computed_names() -> list:
    """The leading identifier of every backticked span in README's "What it
    computes" section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("## What it computes")
    section = text[start:text.index("\n## ", start + 1)]
    return re.findall(r"`([A-Za-z_]\w*)", section)


def test_every_public_name_resolves():
    assert len(set(jointtorsion.__all__)) == len(jointtorsion.__all__)
    for name in jointtorsion.__all__:
        assert hasattr(jointtorsion, name), name
    documented = readme_computed_names()
    assert documented
    for name in documented:
        assert hasattr(jointtorsion, name), f"README names {name}"


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


def test_every_scalar_attribute_the_tracer_reads_exists():
    # _bits reads the bit lengths of each scalar s's parts
    bits = next(node for node in tracing_tree().body
                if isinstance(node, ast.FunctionDef) and node.name == "_bits")
    read = {node.attr for node in ast.walk(bits)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "s"}
    assert read
    x = jointtorsion.QiScalar((3, 4), (-1, 2))
    for attr in read:
        assert type(getattr(x, attr, None)) is int, f"QiScalar.{attr}"


def test_readme_lists_every_suite():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Available suites for `verify` / `--suite`:")
    listing = text[text.index(":", start):text.index(". ", start)]
    assert re.findall(r"`([^`]+)`", listing) == list(SUITES)
