"""The benchmark tracer's hooks still exist in the package.

perfbench/spans.py wraps public callables where their callers look them
up; a rename in the package would make `--trace 1` fail with
AttributeError.  The tracer is loaded by path, as the benchmark runs it
from a source checkout without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for where, attr, name in spans.TRACE_POINTS:
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{where} {attr} (span {name})")
    assert not missing, f"trace points without a callable: {missing}"
