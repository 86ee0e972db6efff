"""The names and parameters of warpfilt that the benchmark's tracer wraps.

bench/tracer.py is loaded as a plain module, so its TARGETS and HOOKS can be read
without Tracer.install, which would patch warpfilt for the rest of the session. A
name the tracer cannot find is reported under `missing` and its metric reads 0,
so a rename in src/ would go unnoticed without these checks.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
TARGETS = [f"{module}.{name}" for module, names in TRACER.TARGETS.items() for name in names]


def resolve(target):
    module, name = target.split(".")
    return getattr(importlib.import_module(f"warpfilt.{module}"), name, None)


def test_every_target_resolves():
    missing = [target for target in TARGETS if not callable(resolve(target))]
    assert missing == [], "traced names absent from warpfilt"


def hook_arguments(hook):
    """The argument names a hook reads from the bound arguments, as args["name"]."""
    return set(re.findall(r'args\["(\w+)"\]', inspect.getsource(hook)))


def test_hooks_read_the_expected_arguments():
    # Guards the source scan above: if the hooks stop reading args["..."], the
    # parameter test below would pass without checking anything.
    read = set().union(*(hook_arguments(hook) for hook in TRACER.HOOKS.values()))
    assert read == {"path", "energies", "model", "avg_ltas"}


def test_hooked_functions_have_the_parameters_their_hooks_read():
    for target, hook in TRACER.HOOKS.items():
        assert target in TARGETS, f"{target} has a hook but is not traced"
        fn = resolve(target)
        assert fn is not None, f"warpfilt.{target} is hooked but does not exist"
        parameters = inspect.signature(fn).parameters
        for name in hook_arguments(hook):
            assert name in parameters, f"warpfilt.{target} has no parameter {name!r}, which its hook reads"
