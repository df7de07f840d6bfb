"""The package's one-way import graph, read from the sources with ``ast``.

Every import counts, function-local ones included, so a lazy import cannot
slip a cycle or an upward dependency past the check.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mreplay"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent
# the reverse-mode tape is the tests' reference; the package runs halves
TAPE = {"Tensor", "backward", "grad_check", "_topo"}

# module -> the only siblings it may import
ALLOWED = {
    "autodiff": set(), "memory": set(), "metrics": set(), "plots": set(),
    "models": {"autodiff"}, "losses": {"autodiff"},
    "data": {"models"},
}
# module -> siblings it must never import
FORBIDDEN = {
    "trainer": {"checkpoint", "cli", "plots"},
    "checkpoint": {"cli"},
}


def sibling_imports(source: str) -> set[str]:
    """The sibling modules a module of the package imports anywhere in
    ``source``; ``from . import name`` of a name that is no module is an
    import of the package's ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("mreplay.")}
            found |= {"__init__" for a in node.names if a.name == "mreplay"}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "mreplay":
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
            elif node.module and node.module.startswith("mreplay."):
                found.add(node.module.split(".")[1])
    return found


def _imports(module: str) -> set[str]:
    return sibling_imports((PACKAGE / f"{module}.py").read_text())


def test_import_reader_sees_every_spelling():
    source = ("import numpy as np\n"
              "from . import autodiff as ad\n"
              "from .data import Sample\n"
              "from . import __version__\n"
              "import mreplay.metrics\n"
              "from mreplay.plots import pca_plot\n"
              "def later():\n"
              "    from .checkpoint import load_checkpoint\n"
              "    class Inner:\n"
              "        from mreplay import cli\n")
    assert sibling_imports(source) == {"autodiff", "data", "__init__", "metrics",
                                       "plots", "checkpoint", "cli"}


def test_every_constrained_module_exists():
    assert set(ALLOWED) | set(FORBIDDEN) <= set(MODULES)
    # the reader finds today's imports, so the checks below are not vacuous
    assert {"autodiff", "data", "losses", "memory", "metrics", "models"} <= _imports("trainer")


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_lower_layers(module):
    assert _imports(module) <= ALLOWED[module]


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_module_never_imports_upper_layers(module):
    assert not _imports(module) & FORBIDDEN[module]


def tape_offences(source: str) -> set[str]:
    """Each name of the tape that ``source`` defines, and each module of
    ``tests/`` it imports, as ``tests.<module>``."""
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {node.name} & TAPE
        elif isinstance(node, ast.Assign):
            found |= {t.id for t in node.targets if isinstance(t, ast.Name)} & TAPE
        elif isinstance(node, ast.Import):
            found |= {f"tests.{a.name.split('.')[0]}" for a in node.names
                      if a.name.split(".")[0] in test_modules}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in test_modules:
                found.add(f"tests.{node.module.split('.')[0]}")
    return found


def test_no_module_defines_or_imports_the_tape():
    assert tape_offences("class Tensor:\n    pass\n"
                         "def later():\n    def backward(): pass\n"
                         "_topo = None\n"
                         "import tape_reference\n"
                         "from graph_reference import sub\n") == {
        "Tensor", "backward", "_topo", "tests.tape_reference", "tests.graph_reference"}
    offences = {m: tape_offences((PACKAGE / f"{m}.py").read_text()) for m in MODULES}
    assert not {m: found for m, found in offences.items() if found}
