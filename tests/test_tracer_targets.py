"""The benchmark's tracer (perfbench/tracing.py) rebinds padicres functions
by module and attribute name.  This reads its tables without installing it,
so a rename in src/ fails the tier-1 tests, not only the benchmark's own."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, attr) for module, attr, *_ in tracing.SPANS + tracing.COUNTS]
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(module)
        for name in attr.split("."):
            assert hasattr(owner, name), f"{module}.{attr} does not resolve"
            owner = getattr(owner, name)
        assert callable(owner), f"{module}.{attr} is not callable"
