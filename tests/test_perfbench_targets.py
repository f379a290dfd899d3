import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_name_exists(module, attr):
    # the benchmark's tracer wraps each of these names and fails on a
    # missing one
    assert hasattr(importlib.import_module(f"pagecusum.{module}"), attr)
