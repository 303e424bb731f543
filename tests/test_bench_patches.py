"""The traced benchmark (``bench/run.py --trace 1``) wraps library functions
by the names their caller modules bind, listed in ``bench/spans.py``. A
refactor that drops one of those names would make the traced run fail with
an AttributeError, so the list is checked against the package here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_patched_name_is_bound_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module, name, _span in spans.PATCHES:
        mod = importlib.import_module(f"attnquant.{module}")
        assert callable(getattr(mod, name, None)), f"attnquant.{module}.{name} is not bound"
