"""Dead-code guard for the package surface.

Every public top-level function or class in src/artifact must be used by
name somewhere else in the package (the re-exports of __init__.py do not
count) or by a release gate in tests/test_acceptance.py.  A helper that only
unit tests call fails here: fold it into its caller or move it into the test
that needs it.  Every private top-level function must be used by another
statement of the package itself; tests may call it, but that alone does not
keep it.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import artifact

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "artifact"
GATES = ROOT / "tests" / "test_acceptance.py"
TRACING = ROOT / "perfbench" / "tracing.py"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(node):
    """Names that a statement mentions: loads, attributes and imports."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            seen[sub.name] += 1
    return seen


def _unused_definitions(private):
    """Top-level definitions of src/artifact, private functions or public
    functions and classes, that no other statement mentions: a statement of
    the package, or for a public name also one of the release gates."""
    modules = {p: _parse(p) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    statements = [stmt for tree in modules.values() for stmt in tree.body]
    if not private:
        statements += _parse(GATES).body
    kinds = (ast.FunctionDef,) if private else (ast.FunctionDef, ast.ClassDef)
    # a definition counts as used only through some other statement
    counts = [(stmt, _names(stmt)) for stmt in statements]
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, kinds)
                    or node.name.startswith("_") != private):
                continue
            if not any(names[node.name] for stmt, names in counts
                       if stmt is not node):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_public_definition_is_used():
    unused = _unused_definitions(private=False)
    assert not unused, ("public definitions used by nothing in the package "
                        f"and by no release gate: {unused}")


def test_every_private_function_is_used_in_the_package():
    unused = _unused_definitions(private=True)
    assert not unused, f"private functions the package never calls: {unused}"


def test_all_matches_init_imports():
    tree = _parse(SRC / "__init__.py")
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(artifact.__all__) == len(set(artifact.__all__))
    assert set(artifact.__all__) == imported | {"__version__"}
    for name in artifact.__all__:
        assert hasattr(artifact, name), name


def test_benchmark_trace_targets_exist():
    # perfbench/tracing.py wraps these module attributes by name; a refactor
    # that renames or deletes one breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for modname, attr, *_ in tracing.TARGETS:
        target = getattr(importlib.import_module(modname), attr, None)
        assert callable(target), f"{modname}.{attr}"


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # eta is in closed form; importing scipy.integrate once took about
    # 0.3 s of every fresh process.  No scipy module loads at all:
    # scipy.fft gives numpy.fft's bits 16% faster a transform, but importing
    # it takes 170-185 ms beside the 97 ms of `import artifact,
    # artifact.cli` (2-CPU Linux container), close to triple the import.
    # The sweeps run serially, so nothing loads multiprocessing either,
    # whose process pool took 10-13 ms of the import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c",
         "import artifact, artifact.cli, sys; print(*(name in sys.modules "
         "for name in ('scipy.integrate', 'multiprocessing')), "
         "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "[]"]
