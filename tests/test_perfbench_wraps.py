"""The benchmark's traced mode patches names in the package; they must exist.

`perfbench/workloads.py` wraps package functions where their callers look
them up. A change that deletes or renames one of them breaks only a
``--trace 1`` benchmark run, so this test builds and applies every wrap.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_functions_patch_existing_names():
    replacements = workloads.traced_functions(spans.Tracer())
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    with spans.patched(replacements):
        for module, attr, value in replacements:
            assert getattr(module, attr) is value, (module.__name__, attr)
    for module, attr, value in originals:
        assert getattr(module, attr) is value, (module.__name__, attr)
