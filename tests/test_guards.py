"""Static guards on the package source."""

import argparse
import ast
import importlib
import inspect
import pathlib
import textwrap

import hotring
from hotring import homotopy, poly, simplicial, triangle
from hotring.cli import FILE_ARGS, build_parser

SRC = pathlib.Path(hotring.__file__).parent


def _catches_assertion_error(handler):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(isinstance(k, ast.Name) and k.id == "AssertionError"
               for k in kinds)


def test_no_module_catches_assertion_error():
    """Verdicts must not hinge on asserts, which `python -O` strips: no
    handler may turn an AssertionError into a result."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and _catches_assertion_error(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_in_polynomial_modules():
    """Every module, the polynomial, simplicial, homotopy and integer
    linear algebra layers among them, checks with typed errors only:
    no assert statement and no raise of AssertionError."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or (isinstance(node, ast.Raise) and node.exc is not None
                          and _raises_assertion_error(node))]
    assert offenders == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_fractions():
    """Exact ints and intlin's Smith normal form are the only elimination:
    no module solves, inverts or reduces over Fraction."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{name}" for name in _imported_modules(tree)
                      if name.split(".")[0] == "fractions"]
    assert offenders == []


# The only functions outside poly.py that may ask whether a ring is
# polynomial-shaped.  Everything else goes through poly.lift, poly.lower
# and poly.scalar_base_of, which decide how a ring sits inside R[x].
POLYLIKE_SITES = {"glk.quasi_inverse",
                  "simplicial.check_contraction_compatibility"}


def _is_polylike_check(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) \
        else [node.args[1]]
    return any((isinstance(k, ast.Name) and k.id == "PolyLike")
               or (isinstance(k, ast.Attribute) and k.attr == "PolyLike")
               for k in kinds)


def _polylike_sites(node, scope):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif _is_polylike_check(child):
            yield f"{scope}:{child.lineno}"
        yield from _polylike_sites(child, inner)


def test_polylike_dispatch_stays_in_poly():
    """How an element of R sits inside R[x] is decided in poly.py only;
    isinstance(..., PolyLike) elsewhere is limited to the strategy
    dispatch of glk and the R[x] base of the simplicial contraction."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += list(_polylike_sites(tree, path.stem))
    assert [s for s in sites if s.split(":")[0] not in POLYLIKE_SITES] == []


# every option of a CLI command that is a parameter, not a file
CLI_PARAMETERS = {"help", "budget", "seed", "probes", "out", "json",
                  "no_store", "degree", "size", "length", "depth_cap",
                  "levels", "dir"}


def test_every_cli_file_option_is_an_input():
    """Each option that names a file is in cli.FILE_ARGS, so that it is
    read once, hashed into the store key and loaded only on a miss; no
    file argument can bypass the reader."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for sub in commands.choices.values()
             for action in sub._actions}
    assert dests - CLI_PARAMETERS == set(FILE_ARGS)


# a construction picks the variables it adjoins with poly.fresh_var
NAME_PARAMETERS = {"var", "homotopy_var", "svar", "yvar", "tvar", "hvar",
                   "var_c", "var_b", "prefix"}


def test_constructions_take_no_variable_names():
    """The paper's constructions adjoin fresh variables that no ring
    involved uses; none of them takes the name as a parameter."""
    constructions = [
        triangle.Factorization.__init__, triangle.factorize,
        triangle.MappingPath.__init__, triangle.mapping_path,
        triangle.MappingPath.null_homotopy, triangle.standard_triangle,
        triangle.rotation_witness, homotopy.path_contraction_certificate,
        homotopy.constant_certificate, homotopy.graded_certificate,
        poly.swap_homotopy, simplicial.SimplexRing.__init__,
        simplicial.identity_pair, simplicial.check_simplicial_identities,
        simplicial.check_contraction_compatibility]
    offenders = [f"{f.__qualname__}({p})" for f in constructions
                 for p in inspect.signature(f).parameters
                 if p in NAME_PARAMETERS]
    assert offenders == []


# the kinds of per-ring table named in FiniteRing.__init__; the element
# codes and their tables are one kind, shared by GL groups, hom
# enumeration and the homotopy search
DERIVED_KINDS = {"codes", "gl", "checks", "annihilator"}


def _derived_key_kinds(func):
    """The first element of each key that func writes into some
    .derived, a key held in a local name resolved through its
    assignment; None for a key of any other shape."""
    names = {t.id: node.value for node in ast.walk(func)
             if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and _is_derived(node.value) \
                and isinstance(node.ctx, ast.Store):
            key = node.slice
        elif isinstance(node, ast.Call) and _is_derived(
                getattr(node.func, "value", None)) \
                and node.func.attr not in ("get", "items", "keys", "values"):
            key = node.args[0] if node.func.attr == "setdefault" else None
        else:
            continue
        if isinstance(key, ast.Name):
            key = names.get(key.id)
        yield (key.elts[0].value if isinstance(key, ast.Tuple)
               and key.elts and isinstance(key.elts[0], ast.Constant)
               else None)


def _is_derived(node):
    return isinstance(node, ast.Attribute) and node.attr == "derived"


def test_per_ring_tables_are_the_four_named_kinds():
    """Every key written to a ring's derived tables is ("codes",),
    ("gl", n), ("checks", top) or ("annihilator", order), the kinds the
    comment in FiniteRing.__init__ names; nothing else may move onto
    FiniteRing."""
    init = inspect.getsource(hotring.rings.FiniteRing.__init__)
    assert all(f'("{kind}",' in init for kind in DERIVED_KINDS)
    kinds = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kinds += [(path.name, func.name, kind) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef)
                  for kind in _derived_key_kinds(func)]
    assert [k for k in kinds if k[2] not in DERIVED_KINDS] == []
    assert {k[2] for k in kinds} == DERIVED_KINDS


def test_glk_keeps_no_table_of_its_own():
    """GL groups read the ring's code tables (rings._codes): glk.py
    defines no lazily filled table, i.e. no dict subclass and no
    __missing__."""
    tree = ast.parse((SRC / "glk.py").read_text())
    offenders = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and (any(isinstance(b, ast.Name) and b.id == "dict"
                          for b in node.bases)
                      or any(isinstance(f, ast.FunctionDef)
                             and f.name == "__missing__" for f in node.body))]
    assert offenders == []


def test_certificate_check_reads_no_search_table():
    """verify_certificate and its slice convolution stay independent of
    the search: neither reads a ring's derived tables nor its element
    codes."""
    reads = []
    for func in (homotopy.verify_certificate,
                 hotring.rings._first_nonmultiplicative):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        reads += [f"{func.__name__}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute)
                      and node.attr in ("derived", "_codes"))
                  or (isinstance(node, ast.Name) and node.id == "_codes")]
    assert reads == []


# a ring's tuple arithmetic; glk.py computes on the ring's code tables
TUPLE_ARITHMETIC = {"add", "mul", "neg", "scalar", "sum"}


def _names_a_ring(node):
    """Whether node names a ring: ring, self.ring, group.ring, base,
    ring.scalar_base and the like."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.endswith("ring") or name in ("base", "scalar_base")


def test_glk_uses_no_tuple_arithmetic():
    """GL_n(A), quasi-inverses and determinants run on one coded
    arithmetic: no function in glk.py calls or binds a ring's add, mul,
    neg, scalar or sum."""
    tree = ast.parse((SRC / "glk.py").read_text())
    offenders = [f"{func.name}:{node.lineno}" for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)
                 if isinstance(node, ast.Attribute)
                 and node.attr in TUPLE_ARITHMETIC
                 and _names_a_ring(node.value)]
    assert offenders == []


TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_method_the_tracer_wraps_exists():
    """The benchmark tracer looks each entry of its METHODS table up in
    its class's __dict__, so a deleted or inherited method would make
    every traced run raise KeyError."""
    tree = ast.parse(TRACER.read_text())
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["METHODS"]]
    missing = [f"{module}.{cls}.{meth}"
               for module, classes in ast.literal_eval(table).items()
               for cls, methods in classes.items() for meth in methods
               if meth not in vars(getattr(importlib.import_module(
                   f"hotring.{module}"), cls))]
    assert missing == []
