"""The package's modules import from one another only what the exporting
module makes public: a name in its __all__, or, where it has none, a name
without a leading underscore. The crossings that exist are listed, so a new
one is a deliberate edit of CROSSINGS."""
import ast
import importlib
from pathlib import Path

import hadamard_rect

PACKAGE = Path(hadamard_rect.__file__).parent

# (importing module, exporting module, name)
CROSSINGS = {("bounds", "identity", "_check_point"),
             ("cli", "bounds", "_POINT_IDS"),
             ("cli", "bounds", "_certify_family"),
             ("cli", "bounds", "_point_report")}


def _is_public(module: str, name: str) -> bool:
    exported = getattr(importlib.import_module(f"hadamard_rect.{module}"), "__all__", None)
    return name in exported if exported is not None else not name.startswith("_")


def test_modules_import_only_public_names_from_one_another():
    crossings = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or "__init__"
                crossings |= {(path.stem, source, alias.name) for alias in node.names
                              if not _is_public(source, alias.name)}
    assert crossings == CROSSINGS
