"""The package's public names and its runtime dependencies."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import qcfrob

SRC = pathlib.Path(__file__).parent.parent / "src" / "qcfrob"
TEST_DIR = pathlib.Path(__file__).parent
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


def test_every_import_is_used():
    # a deletion that leaves an import behind shows here, in the package or
    # its tests; __init__.py imports to re-export, and __future__ names
    # switch features on
    for path in sorted(SRC.glob("*.py")) + sorted(TEST_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls inspect, ast, dis and tokenize into every launch
    probe = "import sys, qcfrob.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"


# Every module-level container or cache in the package, with why it may
# live as long as the process: each is the same at every point of every
# run, so no report depends on when or where it was read.
MODULE_STATE = {
    "qcfrob.__all__": "the exported names",
    "qcfrob.rootdatum._PRESETS": "the preset Cartan matrices, never written",
    "qcfrob.coeff.cyclotomic_coeffs": "Phi_l's coefficients, a constant per order",
}


def test_module_state_pinned():
    # a process-global table of run state, such as products kept between
    # runs, shows here; the import system's own names are left out
    from qcfrob.frobsplit import ProductTable
    held = set()
    for path in sorted(SRC.glob("*.py")):
        name = "qcfrob" if path.stem == "__init__" else f"qcfrob.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            if attr.startswith("__") and attr != "__all__":
                continue
            if isinstance(value, (dict, list, set, ProductTable)) or hasattr(value, "cache_info"):
                held.add(f"{name}.{attr}")
    assert held == set(MODULE_STATE)


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


# -- the code no run reaches ------------------------------------------------

FAILURE = "failure or witness path"
REPR = "__repr__"
CLI = "CLI entry"
BENCH = "perfbench import"
MODP = "ROADMAP item 5 (check_modp_division)"
CONTRACT = "ring adapter protocol, or __hash__ beside __eq__"
TESTS = "tests only (ROADMAP item 6)"

# Every function and method in src/ that no traced run calls, with why it
# stays.  A change that puts one of them on a run, or leaves a new one off
# every run, must say so here.
UNREACHED = {
    "cli._decimal": FAILURE,
    "cli.main": CLI,
    "cluster.ExchangeMatrix.__repr__": REPR,
    "cluster.QuantumSeed.__repr__": REPR,
    "cluster.cluster_monomial": BENCH,
    "coeff.CycloInt.__neg__": TESTS,
    "coeff.CycloInt.__repr__": REPR,
    "coeff.CycloInt.__sub__": TESTS,
    "coeff.ExactDivisionError.__init__": FAILURE,
    "coeff.IntLaurent.__repr__": REPR,
    "coeff.IntLaurent.content": BENCH,
    "coeff.IntLaurent.leading_coeff": BENCH,
    "coeff.RatFunc.__add__": BENCH,
    "coeff.RatFunc.__bool__": BENCH,
    "coeff.RatFunc.__eq__": BENCH,
    "coeff.RatFunc.__init__": BENCH,
    "coeff.RatFunc.__mul__": BENCH,
    "coeff.RatFunc.__neg__": BENCH,
    "coeff.RatFunc.__repr__": REPR,
    "coeff.RatFunc.__sub__": BENCH,
    "coeff.RatFunc.__truediv__": BENCH,
    "coeff.RatFunc.as_laurent": BENCH,
    "coeff.RatFunc.from_int": BENCH,
    "coeff.RatFunc.from_laurent": BENCH,
    "coeff.RatFunc.inv": BENCH,
    "coeff.RatFunc.is_one": BENCH,
    "coeff.RatFunc.is_zero": BENCH,
    "coeff.RatFunc.one": BENCH,
    "coeff.RatFunc.v_power": BENCH,
    "coeff.RatFunc.zero": BENCH,
    "coeff._frac_lists_divmod": BENCH,
    "coeff._poly_gcd": BENCH,
    "coeff.qbinom": TESTS,
    "frobsplit._first_difference": FAILURE,
    "frobsplit.check_modp_division": MODP,
    "frobsplit.spec_torus": BENCH,
    "qtorus.LaurentRing.__hash__": CONTRACT,
    "qtorus.LaurentRing.from_laurent": CONTRACT,
    "qtorus.PrimeField.__hash__": MODP,
    "qtorus.PrimeField.v_shift": MODP,
    "qtorus.SkewForm.__repr__": REPR,
    "qtorus.TorusElement.__neg__": TESTS,
    "qtorus.TorusElement.__repr__": REPR,
    "qtorus.TorusElement.__sub__": TESTS,
    "qtorus.TorusElement.coeff": FAILURE,
    "qtorus.TorusElement.zero": MODP,
    "rootdatum.CartanData.__hash__": CONTRACT,
    "rootdatum.CartanData.__repr__": REPR,
    "rootdatum._Coords.__repr__": REPR,
    "rootdatum._Coords.__setattr__": FAILURE,
    "uqn.Functional.__repr__": REPR,
    "uqn._not_specializable": FAILURE,
    "uqn.divided_word_rank": FAILURE,
    "uqn.word_rank": FAILURE,
    "uqn.word_splits": BENCH,
}


def _definitions() -> dict:
    """{(file name, first line, name): qualified name} for every function and
    method in the package; a decorated one is listed under its def line and
    its first decorator's, since Python versions disagree on which a code
    object reports."""
    out = {}
    for path in sorted(pathlib.Path(qcfrob.__file__).parent.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{path.stem}.{prefix}{child.name}"
                    for line in {child.lineno, *(d.lineno for d in child.decorator_list[:1])}:
                        out[(path.name, line, child.name)] = qualname
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
        walk(ast.parse(path.read_text(), str(path)), "")
    return out


def test_runtime_surface_pinned():
    # cli.run and cli.emit on the configs behind tests/golden/, serially and
    # under a profiler; a3-theorem and b2-all reach nothing the others do
    # not, and take ten times as long traced, so they are left out
    from qcfrob import cli, coeff
    from test_cli import golden_configs

    configs = golden_configs()
    for name in ("a3-theorem.json", "b2-all.json"):
        del configs[name]
    package = pathlib.Path(qcfrob.__file__).parent.resolve()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    coeff.cyclotomic_coeffs.cache_clear()    # a cache hit calls nothing
    sys.setprofile(profile)
    try:
        for doc in configs.values():
            report = cli.run(cli.Campaign.from_dict(doc))
            for fmt in ("json", "text"):
                cli.emit(report, fmt, deterministic=True)
    finally:
        sys.setprofile(None)
    reached = {(pathlib.Path(f).name, line, name) for f, line, name in called
               if pathlib.Path(f).resolve().parent == package}
    definitions = _definitions()
    names = set(definitions.values())
    unreached = names - {definitions[key] for key in reached if key in definitions}
    assert unreached == set(UNREACHED)
