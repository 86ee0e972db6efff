"""README's "Library use" names only what warpfilt has.

Every warpfilt module, type and function the section names in backticks, and
every name its example imports, must resolve; a call written out with its
arguments must pass every required parameter and no more than the function takes.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import warpfilt

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name: importlib.import_module(f"warpfilt.{m.name}") for m in pkgutil.iter_modules(warpfilt.__path__)}
# A dotted name, optionally called: `warpfilt.dsp`, `store.load_document(path, kind)`, `FeatureConfig()`.
NAME = re.compile(r"(?<![\w.\-'\"])([A-Za-z_]\w*(?:\.\w+)*)(?:\(([^()]*)\))?")


def section() -> str:
    return README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def lookup(dotted: str):
    """The object a dotted warpfilt name denotes, or None; a dataclass field denotes its Field."""
    head, *rest = dotted.split(".")
    if head == "warpfilt":
        obj = warpfilt
    elif head in MODULES:
        obj = MODULES[head]
    else:
        obj = next((getattr(m, head) for m in [warpfilt, *MODULES.values()] if hasattr(m, head)), None)
    for part in rest:
        fields = getattr(obj, "__dataclass_fields__", {})
        obj = fields[part] if part in fields else getattr(obj, part, None)
    return obj


def named_in_backticks():
    """(dotted name, argument text or None) for each warpfilt name the section's inline code names."""
    prose = re.sub(r"```.*?```", "", section(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        span = re.sub(r"\"[^\"]*\"|'[^']*'", "", span)  # string literals name kinds, not code
        for dotted, args in NAME.findall(span):
            head = dotted.split(".")[0]
            called = f"{dotted}(" in span
            if head == "warpfilt" or head in MODULES or (head[0].isupper() and not hasattr(builtins, head)) or (
                called and "." not in dotted
            ):
                yield dotted, args if called else None


def test_section_names_warpfilt_code():
    # Guards the scan: if it stopped finding names, the tests below would check nothing.
    names = {dotted for dotted, _ in named_in_backticks()}
    assert {"warpfilt.dsp", "FeatureConfig", "compute_ltas", "store.load_document"} <= names


def test_every_named_module_type_and_function_resolves():
    missing = sorted({dotted for dotted, _ in named_in_backticks() if lookup(dotted) is None})
    assert missing == [], "README's Library use names what warpfilt lacks"


def test_written_out_calls_take_their_arguments():
    for dotted, args in named_in_backticks():
        if args is None:
            continue
        n = len(args.split(",")) if args.strip() else 0
        parameters = inspect.signature(lookup(dotted)).parameters
        required = [name for name, p in parameters.items() if p.default is inspect.Parameter.empty]
        assert len(required) <= n <= len(parameters), f"README writes {dotted}({args}); it takes {list(parameters)}"


def test_example_imports_resolve():
    (example,) = re.findall(r"```python\n(.*?)```", section(), flags=re.S)
    for node in ast.walk(ast.parse(example)):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"README's example imports {alias.name} from {node.module}"
