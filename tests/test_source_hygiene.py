"""The package stays exact and dependency-free: no floats, stdlib imports
only, and one exact inertia routine; its public names are pinned, and each
of them and each public method of its classes has a caller outside the
tests."""

import ast
import pathlib
import subprocess
import sys
import types

import pytest

import conepol

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conepol"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_source_files_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_constants_or_float_name(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (
                f"{path.name}:{node.lineno}: float constant {node.value!r}"
            )
        if isinstance(node, ast.Name):
            assert node.id != "float", f"{path.name}:{node.lineno}: uses float"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_intra_package(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        for top in tops:
            assert top in sys.stdlib_module_names or top == "conepol", (
                f"{path.name}:{node.lineno}: imports {top}"
            )


# top-level modules that importing the CLI brings into a fresh CPython 3.11
# interpreter; each one costs start-up time on every command
CLI_IMPORTS = (
    "_ast _decimal _json _opcode argparse ast conepol copy dataclasses decimal dis "
    "fractions gettext importlib inspect json linecache numbers opcode token tokenize"
).split()


def test_cli_import_brings_in_no_new_module():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import conepol.cli\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == CLI_IMPORTS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_exact_inertia_routine(path):
    """The Berkowitz characteristic polynomial is a test oracle only;
    `lorentz.inertia` is the package's one exact inertia routine."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            assert node.name != "charpoly_descending", (
                f"{path.name}:{node.lineno}: defines charpoly_descending"
            )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_self_recursive_closures(path):
    """A nested function that calls itself by name refers to its own cell:
    a reference cycle that keeps the enclosing call's locals alive until the
    cyclic collector runs."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for outer in ast.walk(_tree(path)):
        if not isinstance(outer, funcs):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, funcs):
                continue
            for node in ast.walk(inner):
                assert not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == inner.name
                ), f"{path.name}:{inner.lineno}: nested {inner.name} calls itself"


def _error_name(node):
    """Name of the class a `raise` statement or base-class entry refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_every_error_class_is_raised_or_subclassed():
    """An exception class that nothing raises or derives from is dead."""
    declared = [
        node.name
        for node in _tree(SRC / "errors.py").body
        if isinstance(node, ast.ClassDef)
    ]
    used = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_error_name(node.exc))
            elif isinstance(node, ast.ClassDef):
                used.update(_error_name(base) for base in node.bases)
    assert declared and [name for name in declared if name not in used] == []


PUBLIC_API = [
    "ChowRing", "FlatLattice", "GradedSubposet", "GroundSet", "InertiaTriple",
    "IntervalCoords", "IntervalPolynomials", "IntervalVector",
    "LorentzianCertificate", "Matroid", "MobiusTable", "MultiPoly",
    "UniPoly", "alpha_beta_restriction", "alpha_vector", "beta_vector",
    "canonical_interior_point",
    "certify_cone_lorentzian", "characteristic_polynomial", "chow", "cone",
    "dir_derivative", "errors", "fano", "flats_lattice", "graphic_matroid",
    "hessian_of_quadratic", "inertia", "interval_polynomial",
    "intervalpoly", "is_balanced", "is_interval_connected",
    "is_log_concave", "is_modular",
    "is_one_balanced", "is_semimodular_lattice", "is_strictly_submodular",
    "lorentz", "matroid", "mobius", "multipoly", "poset",
    "reduced_characteristic_polynomial", "reduced_charpoly_via_interval_poly",
    "restrict_to_directions", "sample_direction_tuples", "subsets",
    "substitute_affine", "uniform_matroid", "unipoly",
]


def test_public_api_is_pinned():
    """The package's public names; an addition or removal shows up here."""
    assert sorted(conepol.__all__) == PUBLIC_API


# public names and methods that nothing outside the tests calls, each with
# its reason
UNCALLED = {
    "reduced_charpoly_via_interval_poly": "the planned exact log-concavity verdict of `charpoly`",
}


def _public_methods():
    """(class, method) for each public function, property or class method in
    the body of each public class that a module in `conepol.__all__`
    defines."""
    for module in map(conepol.__dict__.get, conepol.__all__):
        if not isinstance(module, types.ModuleType):
            continue
        for cls_name, cls in vars(module).items():
            if cls_name.startswith("_") or not isinstance(cls, type):
                continue
            if cls.__module__ != module.__name__:
                continue
            for name, member in vars(cls).items():
                if not name.startswith("_") and isinstance(
                    member, (types.FunctionType, property, classmethod, staticmethod)
                ):
                    yield cls_name, name


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public function, class or method that only tests call belongs
    beside them.  A public name counts as called where it is read by name
    or as an attribute; a method only where it is read as an attribute, so
    a local variable that shares its name does not keep it alive."""
    names, attributes = set(), set()
    paths = [p for p in MODULES if p.name != "__init__.py"]
    for path in paths + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    uncalled = {
        name
        for name in conepol.__all__
        if not isinstance(getattr(conepol, name), types.ModuleType)
        and name not in names | attributes
    }
    uncalled.update(
        f"{cls_name}.{name}" for cls_name, name in _public_methods() if name not in attributes
    )
    assert uncalled == set(UNCALLED)
