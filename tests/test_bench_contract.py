"""Every name the benchmark traces or reads must exist in the current package.

``perfbench/tracer.py`` wraps iqlin functions by module and attribute
path and reports a name it cannot find as a null metric, so that the
benchmark still runs against older or newer trees.  Here a missing name
is a test failure instead.  The tracer file is only loaded, never
installed or changed.

The benchmark's own code reads the package through attribute chains
such as ``ivcore.Interval.zero``; a chain that no longer resolves would
otherwise show only as a failed benchmark run.  Those files are only
parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span, module_name, attr", [target[:3] for target in tracer.TARGETS],
                         ids=[target[0] for target in tracer.TARGETS])
def test_traced_name_resolves(span, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


@pytest.mark.parametrize("name", tracer.MODULES)
def test_traced_module_exists(name):
    importlib.import_module(f"iqlin.{name}")


def _perfbench_chains():
    """Attribute chains in perfbench rooted at a module taken from iqlin."""
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "iqlin":
                roots.update((alias.asname or alias.name, alias.name) for alias in node.names
                             if alias.name in tracer.MODULES)
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in inner:
                continue
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in roots:
                chains.add(".".join([roots[node.id], *reversed(parts)]))
    return sorted(chains)


@pytest.mark.parametrize("chain", _perfbench_chains())
def test_perfbench_chain_resolves(chain):
    module_name, *attrs = chain.split(".")
    owner = importlib.import_module(f"iqlin.{module_name}")
    for part in attrs:
        owner = getattr(owner, part)
