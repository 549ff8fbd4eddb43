"""Every public name resolves, every name a package module imports is read
there, every name the benchmark's tracer wraps or reads still exists in
the package, so that a traced run (``--trace 1``) cannot break silently
when a name is deleted or renamed, every ``rref`` result keeps a part the
tracer reads, README's list of suites is the package's, every name
README says the package computes is one it exports, and every function,
method and class the package defines is named outside its own definition
somewhere in ``src/``, ``benchmark/`` or README (a name only the tests
read is dead API).

``benchmark/tracing.py`` is only read here, never imported: its name tables
are plain literals, and the scalar attributes it reads are found in its
source.
"""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import jointtorsion
from jointtorsion.suites import SUITES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "jointtorsion")
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


# In a fresh interpreter: ``import jointtorsion`` loads no submodule, ``from
# jointtorsion import cli, suites`` imports those two, and ``import *`` binds
# every public name to the object its attribute gives.
_SURFACE_PROBE = """
import sys
import jointtorsion
assert not [m for m in sys.modules if m.startswith("jointtorsion.")]
from jointtorsion import cli, suites
assert (cli.__name__, suites.__name__) == ("jointtorsion.cli",
                                           "jointtorsion.suites")
from jointtorsion import *
for name in jointtorsion.__all__:
    assert globals()[name] is getattr(jointtorsion, name), name
"""


def test_public_surface_in_a_fresh_interpreter():
    proc = subprocess.run([sys.executable, "-c", _SURFACE_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(jointtorsion, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        jointtorsion.no_such_name


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
    x = jointtorsion.QiScalar(3, -2, 4)  # 3/4 - 1/2 i
    for attr in read:
        assert type(getattr(x, attr, None)) is int, f"QiScalar.{attr}"


def test_rref_results_keep_an_attribute_the_tracer_reads():
    # _rref_counting takes a max over the parts of each fresh rref result
    # that exist, so a result with none of them would make it raise
    counting = next(node for node in ast.walk(tracing_tree())
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "_rref_counting")
    parts = [ast.literal_eval(node.iter) for node in ast.walk(counting)
             if isinstance(node, ast.comprehension)
             and isinstance(node.iter, ast.Tuple)]
    assert parts
    res = jointtorsion.ExactMatrix.identity(2).rref()
    for names in parts:
        assert any(getattr(res, name, None) is not None for name in names), \
            f"RrefResult has none of {names}"


def test_readme_lists_every_suite():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Available suites for `verify` / `--suite`:")
    listing = text[text.index(":", start):text.index(". ", start)]
    assert re.findall(r"`([^`]+)`", listing) == list(SUITES)


def test_every_name_in_the_claim_map_exists():
    # each backticked name in README's map of the paper's claims is a
    # suite, a mutant of test_conventions, a public name of the package, a
    # file, or a test in a file as file::test
    from test_conventions import MUTANTS

    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("## The paper's claims and their checks")
    section = text[start:text.index("\n## ", start + 1)]
    mutants = {m[0] for m in MUTANTS}
    kinds = set()
    for name in re.findall(r"`([^`]+)`", section):
        path, _, test = name.partition("::")
        if name in SUITES:
            kinds.add("suite")
        elif name in mutants:
            kinds.add("mutant")
        elif hasattr(jointtorsion, name):
            kinds.add("name")
        elif os.path.isfile(os.path.join(ROOT, path)):
            kinds.add("file")
            if test:
                with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                assert test in {node.name for node in tree.body
                                if isinstance(node, ast.FunctionDef)}, name
        else:
            pytest.fail(f"README's claim map names {name!r}")
    assert kinds == {"suite", "mutant", "name", "file"}


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads.  A name read only in
    an annotation, quoted or not, counts as read; ``__future__`` imports
    bind no name."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = getattr(node, "returns", getattr(node, "annotation", None))
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= {n.id for n in ast.walk(ast.parse(note.value))
                         if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_finder_sees_reads_and_annotations():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .scalars import ONE, ZERO, _raw\n"
              "from .linalg import ExactMatrix as M, Subquotient\n"
              "def f(x: M) -> 'Subquotient':\n"
              "    import json\n"
              "    return ZERO\n")
    assert unused_imports(source) == ["os", "ONE", "_raw", "json"]


def test_every_imported_name_is_read():
    names = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
    assert "linalg.py" in names
    for name in names:
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            assert unused_imports(fh.read()) == [], name


def unnamed_definitions(texts: dict, defining: list) -> list:
    """The functions, methods and classes (dunders excepted) defined in the
    files ``defining`` whose name appears in no text of ``texts`` (path to
    source) once the lines of their own definition are left out."""
    unnamed = []
    for path in defining:
        lines = texts[path].splitlines()
        for node in ast.walk(ast.parse(texts[path])):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    or re.fullmatch(r"__\w+__", node.name)):
                continue
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(own if other == path else text)
                       for other, text in texts.items()):
                unnamed.append(node.name)
    return unnamed


def test_unnamed_definition_finder_leaves_out_only_the_definition():
    texts = {"a.py": ("def used():\n"
                      "    return used_elsewhere()\n"
                      "class Lone:\n"
                      "    @property\n"
                      "    def lone(self):\n"
                      "        return self\n"
                      "    def __len__(self):\n"
                      "        return 0\n"
                      "def recursive(n):\n"
                      "    return recursive(n - 1)\n"),
             "b.py": "def used_elsewhere():\n    pass\n",
             "README.md": "`used` and `Lone`"}
    assert sorted(unnamed_definitions(texts, ["a.py", "b.py"])) == [
        "lone", "recursive"]


def test_every_definition_is_named_outside_the_tests():
    texts = {}
    for top in ("src", "benchmark"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith((".py", ".md")):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        texts[path] = fh.read()
    with open(README, encoding="utf-8") as fh:
        texts[README] = fh.read()
    defining = sorted(os.path.join(PACKAGE, name)
                      for name in os.listdir(PACKAGE) if name.endswith(".py"))
    assert os.path.join(PACKAGE, "linalg.py") in defining
    assert unnamed_definitions(texts, defining) == []
