"""Every name a module exports resolves, README's "Layout" block lists
exactly the modules of the package, and no module imports a name it never
uses, so that folding, moving or removing a module cannot leave a stale
export, import or doc line behind. ``oracle.py`` takes only the classifier
names and the stopping config from the package, so that the reference shares
no engine code with what it checks. The two harnesses reach the engine only
through its entry points, types and boundary checks, so that every kernel call
they make is a classification. Only ``cli.py`` writes files, so that one
module knows how every output file is written. Every import is of the
standard library or of a dependency that ``pyproject.toml`` declares, so that
a package installed only on the machine at hand cannot pass here and fail on
a clean install. Every module-level private name is read somewhere in the
package outside its own definition, so that a fold cannot leave a helper
behind once its last caller is gone."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

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


def test_oracle_shares_only_the_classifier_names_and_config():
    # the reference computes its own search, bound and threshold, so that a
    # fault in the engine's cannot pass the tests and selftest by being shared
    shared = []
    for node in ast.walk(ast.parse((ROOT / "src" / "distknn" / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "distknn"):
            shared += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            shared += [alias.name for alias in node.names if alias.name.split(".")[0] == "distknn"]
    assert set(shared) <= {"ClassifierKind", "StoppingConfig"}, f"oracle.py imports {shared} from distknn"


def _engine_names(module):
    """The names ``module`` imports from ``distknn.engine``; the module itself as ``engine``."""
    names = []
    for node in ast.walk(ast.parse((ROOT / "src" / "distknn" / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = "distknn." * bool(node.level) + (node.module or "")
            if source == "distknn.engine":
                names += [alias.name for alias in node.names]
            elif source.rstrip(".") == "distknn":
                names += [alias.name for alias in node.names if alias.name == "engine"]
        elif isinstance(node, ast.Import):
            names += ["engine" for alias in node.names if alias.name == "distknn.engine"]
    return names


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("simharness", {"ClassifierKind", "Partition", "Shard", "StoppingConfig", "evaluate_query",
                        "_check_bool", "_check_integer", "_check_number"}),
        ("realdata", {"Shard", "StoppingConfig", "evaluate_queries", "partition_pool", "_check_number"}),
    ],
)
def test_harnesses_classify_through_the_engines_entry_points(module, allowed):
    # a kernel call made outside evaluate_query(ies) is work that no
    # classification is charged for and no traced count sees
    names = _engine_names(module)
    assert set(names) <= allowed, f"{module}.py imports {sorted(set(names) - allowed)} from distknn.engine"


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


def test_every_import_is_standard_library_or_declared():
    project = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)\]", project, flags=re.MULTILINE | re.DOTALL).group(1)
    declared = {name.lower().replace("-", "_") for name in re.findall(r'"([A-Za-z0-9_.-]+)', listed)}
    allowed = declared | set(sys.stdlib_module_names) | {"distknn"}
    undeclared = []
    for path in sorted((ROOT / "src" / "distknn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay in the package
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert undeclared == [], f"imports neither of the standard library nor declared in pyproject.toml: {undeclared}"


def test_every_private_module_name_is_used():
    # a private function, class or constant that nothing in the package reads
    # is a leftover of a fold: its last caller went and it stayed behind
    trees = {path.name: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "distknn").glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = {id(inner) for inner in ast.walk(node)}
            for private in (n for n in defined if n.startswith("_") and not n.startswith("__")):
                used = any(
                    id(ref) not in inside
                    and ((isinstance(ref, ast.Name) and ref.id == private and isinstance(ref.ctx, ast.Load))
                         or (isinstance(ref, ast.Attribute) and ref.attr == private))
                    for module in trees.values() for ref in ast.walk(module)
                )
                if not used:
                    unused.append(f"{name}:{node.lineno} {private}")
    assert unused == [], f"private names that nothing in src/distknn reads: {unused}"
