"""Static guards on the package source."""

import argparse
import ast
import pathlib

import hotring
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
