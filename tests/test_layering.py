"""Layering: the library layers never import the service layer.

``repro.serve`` is built on ``bits``/``pdm``/``perms``/``core``; an
import the other way (even a deferred one inside a function) makes the
algorithms depend on the service that wraps them.
"""

import ast
from pathlib import Path

import repro

LIBRARY_LAYERS = ("bits", "pdm", "perms", "core")


def _imported_modules(path: Path, package: str):
    """Every module an ``import``/``from ... import`` in ``path`` names,
    relative imports resolved against ``package``; ``from X import y``
    yields both ``X`` and ``X.y`` so ``from repro import serve`` counts."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_library_layers_never_import_serve():
    root = Path(repro.__file__).parent
    offenders = []
    for layer in LIBRARY_LAYERS:
        for path in sorted((root / layer).rglob("*.py")):
            package = ".".join(("repro",) + path.relative_to(root).parent.parts)
            for lineno, module in _imported_modules(path, package):
                if module == "repro.serve" or module.startswith("repro.serve."):
                    offenders.append(f"{path.relative_to(root)}:{lineno} imports {module}")
    assert not offenders, "library layer imports repro.serve:\n" + "\n".join(offenders)
