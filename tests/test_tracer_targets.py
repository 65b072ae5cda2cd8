"""The benchmark tracer wraps isoframe functions by name; every name it lists
must still exist, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_tracer().TARGETS
    assert targets
    for _, mod_name, attr, _ in targets:
        module = importlib.import_module(f"isoframe.{mod_name}")
        if "." in attr:
            # the tracer replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
    # the tracer counts phi_basis cache misses through cache_info
    assert callable(importlib.import_module("isoframe.phi").phi_basis.cache_info)
