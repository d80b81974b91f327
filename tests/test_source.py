"""Checks on the library's source text rather than on its behaviour."""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "singerlat"


def test_no_assert_statements_in_src():
    # python -O drops assert statements, and with them any soundness
    # check written as one; the library raises explicitly instead
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "exotic.py" in paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_bare_assertion_errors_in_src():
    # a failed soundness check raises errors.InternalError, which the
    # command line reports by that name
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_loads_no_exact_arithmetic():
    # fractions (which loads decimal) serves only the counting bounds,
    # which import it when called; every run of the library pays for a
    # module that the top level loads
    script = ("import sys, singerlat\n"
              "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _imports(path):
    """(line, module) for each import in a source file: a relative module
    keeps its leading dots, and from m import a gives m and m.a."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_library_does_not_import_test_code():
    # the oracles are references for the library; a library module that
    # leaned on them would check itself against itself
    test_modules = {"tests", "oracles", "conftest"}
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _imports(path)
             if name.split(".")[0] in test_modules]
    assert found == []


def test_exotic_does_not_import_the_plane_search():
    # G_0 membership decides every verdict; the plane search and the
    # balls built on it are no part of certify or the census
    found = [f"{line} {name}" for line, name in _imports(SRC / "exotic.py")
             if name.split(".")[-1] in {"plane", "ball"}]
    assert found == []


def test_exotic_does_not_import_the_field_model():
    # G_0 comes from the canonical plane's difference table; no GF(q^3)
    # arithmetic and no second difference set sit on the verdict path
    found = [f"{line} {name}" for line, name in _imports(SRC / "exotic.py")
             if name.split(".")[-1] in {"primitive_powers",
                                        "singer_difference_set"}]
    assert found == []


# names that served only the tests: the tools among them live in
# tests/oracles.py, the rest went with the tests of their own contract
TEST_ONLY_NAMES = {
    "Duality", "dual_map", "singer_shift", "identity_collineation",
    "elation_cycle_profile", "collineations_fixing", "Collineation.compose",
    "Collineation.inverse", "Collineation.is_identity",
    "Collineation.preserves_labels", "LabelledPlane.flag_label",
    "normalize_matrix", "all_difference_sets", "ENUMERATION_Q_CAP",
    "MODEL_ROUTE_Q_CAP",
    "AffineMap.compose", "AffineMap.inverse", "AffineMap.apply_vector",
    "reduce_generators", "PermGroup.from_generators",
    "PermGroup.from_elements", "Field.sub", "Field.neg", "Field.index",
    "Field.element_by_index", "RunConfig", "_subfield_elements",
    "NonDesarguesianColumn", "_check_canonical_plane",
    "_canonical_plane_desarguesian", "h2_collineations", "_COLUMN_WITNESS_RE",
    "h2_group_listing", "h2_summary_of_listing", "all_collineations",
    "FULL_GROUP_Q_CAP", "h2_lift_search", "h2_kernel_and_lifts", "Field.inv",
    "agl_orbit_of_set", "extra_move_roots_per_pair", "Field", "make_field",
    "_poly_trim", "_poly_mod", "_poly_from_int", "_is_irreducible",
    "is_prime", "prime_factors", "FIELD_DEGREE_CAP", "FIELD_ORDER_CAP",
    "field_model_singer_set", "LabelledPlane", "Collineation", "Elation",
    "search_collineations", "elations_with", "is_desarguesian",
    "verify_plane_axioms", "SEARCH_Q_CAP", "_plane_tables",
    "PermGroup.conjugate_by", "collineations", "plane_tables",
    "conjugate_by", "preserves_labels", "agl_maps", "_complex_from_rows",
    "_ROW_RE", "census_to_text_per_row", "hjelmslev_level2",
    "_pencil_witness", "EDGES", "AffineMap", "agl_maps_onto", "find_agl_map",
    "set_stabilizer_in_agl",
}


def _defined_names(tree):
    """Module-level functions, classes and assigned names, and methods
    as Class.method."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_test_only_api_stays_out_of_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}: {name}" for name in
                  sorted(_defined_names(tree) & TEST_ONLY_NAMES)]
    assert found == []


def test_every_import_is_used():
    # a module-level import binds a name; one that nothing reads is dead
    # code.  Package __init__ files import to re-export, and __future__
    # imports switch on a behaviour
    found = []
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound
                      if name not in read]
    assert found == []


def _dataclass_slots(tree):
    """(class name, whether slots=True) for each @dataclass class."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
                yield node.name, call is not None and any(
                    k.arg == "slots" and getattr(k.value, "value", None) is True
                    for k in call.keywords)


def test_every_dataclass_has_slots():
    # the census holds tens of thousands of records, and a slotted record
    # has no per-instance dict
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name, slots in _dataclass_slots(
                 ast.parse(path.read_text(), filename=str(path)))
             if not slots]
    assert found == []
