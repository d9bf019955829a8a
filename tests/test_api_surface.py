"""Every name the package exports is used by the package itself, and every
command-line option is read by the command that accepts it.

A function that only tests call is API nobody runs; it should be deleted and
its tests ported to the calls the program makes.  An option no command reads
is a knob that does nothing.  These scans keep both from growing back.
"""
import argparse
import ast
import re
from pathlib import Path

from hybridopt import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "hybridopt"

# exported although nothing in the package calls it, with the reason
ALLOWED_UNUSED = {
    "to_source": "the round-trip property tests cover the expression parser through it",
}


def exported_names() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


class _Uses(ast.NodeVisitor):
    """Names read as a ``Name`` or an ``Attribute``, outside the function or
    class of the same name (a definition, or a recursive call, is not a use)."""

    def __init__(self):
        self.seen = set()
        self.inside = []

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id not in self.inside:
            self.seen.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            self.seen.add(node.attr)
        self.generic_visit(node)


def referenced_names() -> set:
    """Names the package's modules use; ``__init__`` only re-exports."""
    uses = _Uses()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            uses.visit(ast.parse(path.read_text()))
    return uses.seen


def test_every_export_is_used_by_the_package():
    unused = exported_names() - referenced_names() - set(ALLOWED_UNUSED)
    assert not unused, f"exported but referenced only by tests: {sorted(unused)}"


def test_allowlist_is_not_stale():
    assert set(ALLOWED_UNUSED) <= exported_names()
    assert not set(ALLOWED_UNUSED) & referenced_names()


# the engine's internals: every other module enters through simulate_chunks
ENGINE_INTERNALS = ("_simulate_block", "chunk_args", "fan_out")


def engine_internals_named_outside() -> list:
    """(module, name) of each engine internal that a module other than
    ``dynamics`` names, in code, a comment or a docstring."""
    pattern = re.compile(r"\b(%s)\b" % "|".join(ENGINE_INTERNALS))
    return sorted(
        (path.name, name)
        for path in SRC.glob("*.py") if path.name != "dynamics.py"
        for name in set(pattern.findall(path.read_text()))
    )


def test_only_dynamics_names_the_engine_internals():
    assert engine_internals_named_outside() == []


def unread_parameters() -> list:
    """(function, parameter) pairs where no definition of that function name
    in the package reads the parameter as a ``Name``.  Definitions sharing a
    name form one interface: each implementation of ``indices`` may read a
    different subset of the arguments, but every argument must be read by
    one of them."""
    params, reads = {}, {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
                params.setdefault(node.name, set()).update(n for n in names if n not in ("self", "cls"))
                reads.setdefault(node.name, set()).update(
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                )
    return sorted((name, p) for name, ps in params.items() for p in ps - reads[name])


def test_every_parameter_is_read():
    unread = unread_parameters()
    assert not unread, f"parameters that no definition of the function reads: {unread}"


# options a command accepts and does not read, with the reason
IGNORED_OPTIONS = {
    ("solve", "workers"): "perfbench's Solve2d job passes it; it goes together with that argv",
    ("validate", "workers"): "perfbench's Validate2d job passes it; it goes together with that argv",
}


def _args_reads(func) -> set:
    """The attributes ``func`` reads off ``args``."""
    return {
        n.attr for n in ast.walk(func)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }


def unread_options() -> list:
    """(command, dest) of each subcommand option that is read as ``args.<dest>``
    neither by its ``cmd_<command>``, nor by a helper it hands ``args`` to, nor
    by ``main``."""
    funcs = {n.name: n for n in ast.parse((SRC / "cli.py").read_text()).body if isinstance(n, ast.FunctionDef)}
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, parser in subparsers.choices.items():
        cmd = funcs[f"cmd_{command}"]
        helpers = {
            c.func.id for c in ast.walk(cmd)
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
            and any(isinstance(a, ast.Name) and a.id == "args" for a in c.args)
        }
        reads = set().union(*(_args_reads(funcs[name]) for name in {cmd.name, "main"} | helpers))
        unread += [
            (command, a.dest) for a in parser._actions
            if not isinstance(a, argparse._HelpAction) and a.dest not in reads
        ]
    return sorted(unread)


def test_every_cli_option_is_read():
    assert unread_options() == sorted(IGNORED_OPTIONS)
