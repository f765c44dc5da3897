"""The benchmark's traced names still resolve in the package.

``perfbench/tracing.py`` replaces each (owner, attribute) it lists with a
timing wrapper, so renaming or deleting one of them breaks the traced
benchmark run. Loading the module here (without installing anything) makes
such a rename fail the test suite too.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner, attr", tracing.target_attrs(),
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_name_resolves(owner, attr):
    raw = tracing._raw_attr(owner, attr)    # what the tracer replaces
    assert callable(getattr(raw, "__func__", raw))
