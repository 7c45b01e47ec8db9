import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    # the benchmark's tracer looks each (owner, attribute) up when it
    # installs its wrappers, so a renamed package function would crash a
    # traced run; load the tracer as it is and check every name it wraps
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.WRAPPED
               if not callable(getattr(owner, attr, None))]
    assert spans.WRAPPED and missing == []
