"""The package's public names: each stated once, and each used by the code."""

import ast
import os
import types

import stablebranch
from stablebranch import analysis, cumulant, limitlaw, model, simulate, spine

SRC = os.path.dirname(stablebranch.__file__)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench")

LIBRARY_MODULES = (model, cumulant, limitlaw, simulate, spine, analysis)

# Public names that no code in the package or the benchmark calls, kept
# because the tests compare against them.
TEST_REFERENCES = {
    "semigroup_apply": "exp(t A) f: the mean flow the cumulant, spine and AC11 tests bound against",
    "ZolotarevLaw": "the limit law whose transform AC10 checks against g_closed",
    "laplace": "the textbook transform that AC10 adds to g_closed to make 1",
    "mean_diagnostic": "AC10's unit-mean check of the complement g_closed evaluates",
}


def _python_files():
    for root in (SRC, PERFBENCH):
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _referenced_names():
    """Every name read, attribute read or name imported in the package and the
    benchmark; a definition, an assignment and an `__all__` string are not."""
    names = set()
    for path in _python_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _all_lists():
    """(module name, __all__) of every module of the package that has one."""
    lists = []
    for path in _python_files():
        if not path.startswith(SRC + os.sep):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, ast.List)
            ):
                lists.append((os.path.basename(path), [e.value for e in node.value.elts]))
    return lists


def test_package_names_are_the_module_lists():
    union = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert len(union) == len(set(union)), "a name is public in two modules"
    assert stablebranch.__all__ == union
    public = {
        name
        for name, value in vars(stablebranch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(union)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(stablebranch, name) is getattr(module, name)


def test_private_engine_not_reexported():
    from stablebranch import _ivp

    assert not set(_ivp.__all__) & set(stablebranch.__all__)


def test_every_public_name_has_a_caller():
    lists = _all_lists()
    files = {name for name, _ in lists}
    assert files >= {os.path.basename(m.__file__) for m in LIBRARY_MODULES}
    referenced = _referenced_names()
    unused = sorted(
        f"{module}:{name}"
        for module, names in lists
        for name in names
        if name not in referenced and name not in TEST_REFERENCES
    )
    assert not unused, f"public names that no code calls: {unused}"
    # a kept reference that gains a caller leaves the list
    assert not set(TEST_REFERENCES) & referenced


def _package_readers(names):
    """{module file: first line} of every package module that reads one of
    `names` as an attribute (os.fork) or imports it (from os import fork)."""
    readers = {}
    for path in _python_files():
        if not path.startswith(SRC + os.sep):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in names) or (
                isinstance(node, ast.ImportFrom) and names & {alias.name for alias in node.names}
            ):
                readers.setdefault(os.path.basename(path), node.lineno)
    return readers


def test_only_fork_module_forks():
    # a parallel route maps over _fork.map_forked instead of growing its own
    # fork, pipe and reaping
    readers = _package_readers({"fork", "pipe", "waitpid"})
    assert set(readers) == {"_fork.py"}, f"modules that read os process plumbing: {readers}"


def test_only_fork_and_cli_read_the_affinity_mask():
    # the worker count of simulate_paths and the manifest's `cpus` are the
    # only readers of the CPUs: no ODE route's result can depend on them
    readers = _package_readers({"sched_getaffinity", "cpu_count", "process_cpu_count"})
    assert set(readers) == {"_fork.py", "cli.py"}, f"modules that read the CPUs: {readers}"


def test_map_forked_callers():
    # the one route that forks: simulate chunks; the ODE routines, the yaglom
    # kind's one solve for every horizon included, run in the calling process
    callers = set()
    for path in _python_files():
        if not path.startswith(SRC + os.sep) or os.path.basename(path) == "_fork.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "map_forked") or (
                isinstance(node, ast.ImportFrom) and "map_forked" in {a.name for a in node.names}
            ):
                callers.add(os.path.basename(path))
    assert callers == {"simulate.py"}
