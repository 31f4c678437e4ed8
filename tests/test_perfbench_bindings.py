"""Every module attribute the benchmark tracer rebinds must exist.

perfbench/spans.py times each layer by replacing the module globals listed
in its BINDINGS table.  A refactor that renames or inlines one of them
would otherwise surface only when the traced benchmark runs.
"""
import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "path, attr",
    [(path, attr) for path, attr, _ in spans.BINDINGS],
    ids=[f"{path}.{attr}" for path, attr, _ in spans.BINDINGS],
)
def test_traced_binding_is_a_module_attribute(path, attr):
    owner = spans.binding_owner(path)
    assert owner is not None, f"{path} does not exist"
    assert attr in vars(owner), f"{path} has no attribute {attr}"
