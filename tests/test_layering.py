"""The package's module layering, read from the source with ast.

The front end builds up from dsp: sad and scale on it, filterbank on scale,
features on all three. analysis and backend take plain arrays and import no
package module. store reads and writes every layer's objects, and cli and the
package __init__ may import anything. An import inside a function would hide an
edge until the function runs, so none is allowed.

A function, class or method that no module names is dead code, kept only where
KEPT_UNREFERENCED gives the reason.
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


# Definitions that no package module names, each kept for the reason given.
KEPT_UNREFERENCED = {
    "WarpingScale.warp": "the scale's forward map, kept by decision",
    "_Parser.error": "argparse calls it",
    "backend.score_trial": "the benchmark's tracer wraps it; it goes when the benchmark reads stage records",
}


def unreferenced_definitions(package_dir: Path) -> list[str]:
    """module.function, module.Class and Class.method (not dunders) of each definition no Name or Attribute names.

    __init__.py only re-exports, so it is neither scanned nor counted.
    """
    named, defined = set(), []
    for path in sorted(Path(package_dir).glob("*.py")):
        if path.stem != "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]
            named |= {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    methods = [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
                    defined += [(node.name, m) for m in methods if not (m.startswith("__") and m.endswith("__"))]
    return sorted(f"{owner}.{name}" for owner, name in defined if name not in named)


def test_every_package_definition_is_named_in_the_package():
    found = unreferenced_definitions(PACKAGE)
    dead = [name for name in found if name not in KEPT_UNREFERENCED]
    assert dead == [], f"named nowhere in the package: {', '.join(dead)}"
    # The kept names also show that the scan finds what no module names.
    assert set(KEPT_UNREFERENCED) <= set(found), "a kept name is now named in the package, or gone"
