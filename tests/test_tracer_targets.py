"""Every function the benchmark tracer wraps still exists in ffil, so a
renamed or deleted kernel fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for mod, funcs in tracer.TARGETS.items():
        module = importlib.import_module(f"ffil.{mod}")
        for fn in funcs:
            cls_name = tracer.CLASSMETHODS.get((mod, fn))
            if cls_name:
                assert isinstance(getattr(module, cls_name).__dict__.get(fn), classmethod), (mod, fn)
            else:
                assert callable(getattr(module, fn, None)), f"{mod}.{fn}"
    for mod, fn in tracer.CLASSMETHODS:
        assert fn in tracer.TARGETS[mod], (mod, fn)
