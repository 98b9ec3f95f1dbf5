"""The package's public names and its runtime dependencies."""

import ast
import importlib.util
import pathlib
import sys

import qcfrob

SRC = pathlib.Path(__file__).parent.parent / "src" / "qcfrob"
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in qcfrob.__all__ if not hasattr(qcfrob, name)]
    assert not missing
    assert len(set(qcfrob.__all__)) == len(qcfrob.__all__)


def test_runtime_imports_only_the_standard_library():
    # numpy and sympy may be installed beside it, so a stray import of
    # either would pass every other test
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_import_surface_resolves():
    # the benchmark's own tests run outside this suite, so a name it imports
    # or wraps that goes missing from the package would show only there
    _load("kernels")

    class Stub:
        def wrap(self, owner, attr, *args):
            assert hasattr(owner, attr), (owner, attr)

    _load("child").install_tracer(Stub())
