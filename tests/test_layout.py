"""Every name a module exports resolves, and README's "Layout" block lists
exactly the modules of the package, so that folding, moving or removing a
module cannot leave a stale export or doc line behind."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_exports_resolve_and_layout_lists_every_module():
    modules = sorted(path.stem for path in (ROOT / "src" / "distknn").glob("*.py"))
    for stem in modules:
        module = importlib.import_module("distknn" if stem == "__init__" else f"distknn.{stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"{stem}.__all__ names {missing}"
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+)\.py\s", layout, flags=re.MULTILINE)
    assert sorted(listed) == modules
