"""The package's module layering, read from the source with ast.

The front end builds up from dsp: sad and scale on it, filterbank on scale,
features on all three. analysis and backend take plain arrays and import no
package module. store reads and writes every layer's objects, and cli and the
package __init__ may import anything. An import inside a function would hide an
edge until the function runs, so none is allowed.
"""

import ast
from pathlib import Path

import warpfilt

PACKAGE = Path(warpfilt.__file__).parent

# Module -> the package modules it may import; None means any.
MAY_IMPORT = {
    "dsp": set(),
    "sad": {"dsp"},
    "scale": {"dsp"},
    "filterbank": {"dsp", "scale"},
    "features": {"dsp", "filterbank", "sad"},
    "analysis": set(),
    "backend": set(),
    "store": {"backend", "dsp", "features", "filterbank", "scale"},
    "cli": None,
    "__init__": None,
}


def package_imports(tree: ast.Module):
    """(imported package module, enclosing function's dotted name or None) for each package import in tree."""
    found = []

    def visit(node, scope, function):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "warpfilt"):
            parts = (node.module or "").split(".")[0 if node.level else 1 :]
            targets = [parts[0]] if parts and parts[0] else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("warpfilt.")]
        else:
            targets = []
        found.extend((target, ".".join(scope) if function else None) for target in targets)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            function = function or not isinstance(node, ast.ClassDef)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(tree, [], False)
    return found


def layering_violations(package_dir: Path) -> list[str]:
    """One line per import that MAY_IMPORT forbids, per import inside a function, and per module it lacks."""
    violations = []
    for path in sorted(Path(package_dir).glob("*.py")):
        module = path.stem
        if module not in MAY_IMPORT:
            violations.append(f"{module} is not in the layering table")
            continue
        allowed = MAY_IMPORT[module]
        for target, function in package_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if function is not None:
                violations.append(f"{module}.{function} imports {target} inside a function")
            elif allowed is not None and target not in allowed:
                violations.append(f"{module} imports {target}")
    return violations


def test_package_imports_follow_the_layering():
    assert layering_violations(PACKAGE) == []


def test_checker_names_each_forbidden_import(tmp_path):
    sources = {
        "dsp": "import numpy as np\n",
        "backend": "from .features import FeatureMatrix\n",
        "store": "from . import backend\n\n\nclass Reader:\n    def read(self):\n        from warpfilt.features import FeatureMatrix\n",
        "cli": "from . import analysis, backend\nimport warpfilt.store\n",
        "extra": "",
    }
    for module, source in sources.items():
        (tmp_path / f"{module}.py").write_text(source)
    assert layering_violations(tmp_path) == [
        "backend imports features",
        "extra is not in the layering table",
        "store.Reader.read imports features inside a function",
    ]
