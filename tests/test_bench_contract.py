"""Every name the benchmark traces must exist in the current package.

``perfbench/tracer.py`` wraps iqlin functions by module and attribute
path and reports a name it cannot find as a null metric, so that the
benchmark still runs against older or newer trees.  Here a missing name
is a test failure instead.  The tracer file is only loaded, never
installed or changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
