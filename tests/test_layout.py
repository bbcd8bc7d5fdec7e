"""Every name a module exports resolves, README's "Layout" block lists
exactly the modules of the package, and no module imports a name it never
uses, so that folding, moving or removing a module cannot leave a stale
export, import or doc line behind. Only ``cli.py`` writes files, so that one
module knows how every output file is written."""

import ast
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


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ is exempt: its imports are its re-exports
    for path in sorted((ROOT / "src" / "distknn").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
        assert unused == [], f"{path.name} imports {unused} and never uses them"


def test_only_cli_writes_files():
    writes = []
    for path in sorted((ROOT / "src" / "distknn").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "open":
                # builtin open(path, mode) or Path.open(mode); a mode the AST
                # cannot read counts as a write
                at = 1 if isinstance(func, ast.Name) else 0
                mode = node.args[at] if len(node.args) > at else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                writing = not isinstance(mode, ast.Constant) or bool(set("wax+") & set(str(mode.value)))
            else:
                writing = name in ("write_text", "write_bytes") or (
                    name == "dump" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json")
            if writing:
                writes.append(f"{path.name}:{node.lineno} {ast.unparse(node)[:60]}")
    assert writes == [], f"only cli.py writes files: {writes}"
