"""The benchmark tracer resolves library functions by name.

`perfbench/tracer.py` lists the functions it wraps as (module, attribute)
pairs.  A rename or removal in `flexconn` would only show up as a crash of
`perfbench/run.py --trace 1`; this test makes it fail here instead.  The
tracer is loaded by path, so `perfbench` need not be importable.
"""

import importlib.util
from pathlib import Path

import flexconn  # noqa: F401  (registers the submodules the tracer looks up)
import flexconn.cli  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracer = _load_tracer()
    names = tracer.SPANNED + tracer.COUNTED
    assert names
    for module, attr in names:
        owner, leaf = tracer._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{module}.{attr}"
