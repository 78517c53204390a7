"""Every name the package exports is used by the package itself or by the
study scripts: public API that nothing uses is deleted, not kept."""

import ast
import re
from pathlib import Path

import qgbsde

ROOT = Path(__file__).resolve().parents[1]


def _names_read_in_package():
    """Names read in the package's modules other than __init__.py: loaded
    names and attribute names. A name's own def, class or assignment and an
    import of it are not reads."""
    read = set()
    for path in (ROOT / "src" / "qgbsde").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_exported_name_is_used():
    read = _names_read_in_package()
    scripts = "\n".join(p.read_text() for p in sorted((ROOT / "scripts").iterdir()))
    unused = [name for name in qgbsde.__all__ if name not in read
              and not re.search(rf"\b{re.escape(name)}\b", scripts)]
    assert unused == []
