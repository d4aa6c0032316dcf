"""The traced benchmark names library functions; they must keep resolving.

``perfbench/spans.py`` wraps each function listed in ``GROUPS`` by its
dotted name, so renaming one (``_center_size``, ``_sphere_family``,
``PathMaxIndex.__init__``, ...) would break ``perfbench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import pytest

import ultratree
import ultratree.cli  # noqa: F401 - the harness traces cli.main too

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("name", sorted(spans.GROUPS))
def test_traced_name_resolves(name):
    _, _, function = spans._resolve(ultratree, name)
    assert callable(function)


def test_counted_and_generator_names_are_traced():
    assert set(spans.COUNTERS) <= set(spans.GROUPS)
    assert spans.GENERATORS <= set(spans.GROUPS)
