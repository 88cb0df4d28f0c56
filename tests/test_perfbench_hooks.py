"""The benchmark tracer's hooks still exist in the package.

perfbench/spans.py wraps public callables where their callers look them
up; a rename in the package would make `--trace 1` fail with
AttributeError.  The tracer is loaded by path, as the benchmark runs it
from a source checkout without installing it.

The benchmark's setup_s and peak_rss_mb include the package import, so
that import stays free of process-pool and package-metadata machinery.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_package_import_loads_no_pool_or_metadata_modules():
    # the sweep imports its process pool when it runs, not at import time
    heavy = ("multiprocessing", "concurrent.futures", "importlib.metadata")
    code = ("import sys, rotorwkb, rotorwkb.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == ""
