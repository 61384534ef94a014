"""Source hygiene: every name a package module imports is used, every
private module-level function and every method is referenced somewhere,
no module reaches into exactnum's private number format or decides a
scalar's stored form, only dicecore builds a die or a total unchecked or
writes a sack's total, only dicecore runs the ring pass and the searches
build dice through its list forms, outside any per-die loop, only exactnum
sets a Fraction's slots, the package and its CLI import no layer at load,
the CLI imports only argparse and sys at load, the package runs without
mpmath, exotica and dicecore name none of numpy's Python-level wrappers
that would cost a Python call per loop step, nor does the scan name the
array methods numpy forwards to them, and README's command examples
parse."""

import ast
import collections
import functools
import importlib
import inspect
import pathlib
import re
import shlex

import pytest

from totalparts.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "totalparts"

def _imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.parent == SRC:
        # a package re-exports what it imports through __all__
        module = importlib.import_module(
            "totalparts" if path.stem == "__init__"
            else f"totalparts.{path.stem}")
        used |= set(getattr(module, "__all__", ()))
    return _imported_names(tree) - used


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def _identifiers(node):
    # Every name, attribute, imported name and string constant in the
    # subtree; a string counts because monkeypatch.setattr names its target.
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


@functools.cache
def _used_identifiers():
    used = collections.Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used += _identifiers(ast.parse(path.read_text()))
    return used


def _is_dead(node):
    # references inside its own body (recursion) do not count
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _used_identifiers()[node.name]
            == _identifiers(node)[node.name])


def test_no_dead_private_functions():
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (_is_dead(node) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                dead.append(f"{path.stem}.{node.name}")
    assert not dead, f"private functions nothing references: {dead}"


def test_no_dead_methods():
    # every method and property of a package class, dunders aside, which
    # Python calls by protocol
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                dead += [f"{path.stem}.{cls.name}.{node.name}"
                         for node in cls.body
                         if _is_dead(node) and not node.name.startswith("__")]
    assert not dead, f"methods nothing references: {dead}"


# The private exactnum helpers on rational coefficient lists that other
# modules may still import; everything else private stays behind exactnum.
EXACTNUM_SHARED = {"_numerators", "_conv_ints", "_fraction", "_fractions"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_exactnum_imports(path):
    if path.stem == "exactnum":
        return
    private = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "exactnum"):
            private |= {alias.name for alias in node.names
                        if alias.name.startswith("_")}
    leaked = sorted(private - EXACTNUM_SHARED)
    assert not leaked, f"{path.name} imports {leaked} from exactnum"


# What a CycElem is made of, and whether its value is rational: read only
# inside exactnum, whose as_scalar alone decides a scalar's stored form.
CYCELEM_INTERNALS = {"is_rational", "nums", "den"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_exactnum_reads_a_cyc_elems_internals(path):
    if path.stem == "exactnum":
        return
    read = {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    leaked = sorted(read & CYCELEM_INTERNALS)
    assert not leaked, f"{path.name} reads CycElem internals {leaked}"


# The constructors that trust their caller for a die's or a total's sum:
# named, and Die or DistPoly allocated bare, only inside dicecore, so no
# other module can build an unchecked die.
TRUSTED_CONSTRUCTORS = {"_from_ints", "_from_ring"}


def _bare_builds(tree, names, classes):
    # every attribute or string constant in names, and every call
    # object.__new__(C) for C in classes, in tree
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value  # getattr, setattr or monkeypatch by name
        elif (isinstance(node, ast.Call)
              and ast.unparse(node.func) == "object.__new__" and node.args
              and ast.unparse(node.args[0]) in classes):
            name = ast.unparse(node)
        else:
            continue
        if name in names or name.startswith("object.__new__"):
            found.add(name)
    return found


def test_only_dicecore_builds_an_unchecked_die():
    found = {path.stem: _bare_builds(ast.parse(path.read_text()),
                                     TRUSTED_CONSTRUCTORS, ("Die", "DistPoly"))
             for path in SRC.glob("*.py")}
    assert TRUSTED_CONSTRUCTORS <= found.pop("dicecore")
    leaked = {stem: sorted(names) for stem, names in found.items() if names}
    assert not leaked, f"unchecked Die or DistPoly builds: {leaked}"


# A sack's stored total, which parts_to_total returns unchecked: named, and
# a Sack allocated bare, only inside dicecore, where _with_total alone
# writes it; fibers, which builds each total from a member of its fiber,
# alone imports that writer.
SACK_TOTAL = {"_total"}


def test_only_dicecore_writes_a_sacks_total():
    trees = {path.stem: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    found = {stem: _bare_builds(tree, SACK_TOTAL, ("Sack",))
             for stem, tree in trees.items()}
    assert SACK_TOTAL <= found.pop("dicecore")
    leaked = {stem: sorted(names) for stem, names in found.items() if names}
    assert not leaked, f"a sack's total named outside dicecore: {leaked}"
    writers = {node.name for node in ast.walk(trees["dicecore"])
               if isinstance(node, ast.FunctionDef)
               for sub in ast.walk(node)
               if isinstance(sub, ast.Constant) and sub.value == "_total"}
    assert writers == {"_with_total"}
    importers = {stem for stem, tree in trees.items()
                 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names if alias.name == "_with_total"}
    assert importers == {"fibers"}


# The ring pass builds every die of a call in stacks: named only in
# dicecore, its home, and in exactnum, which holds its dtype rule and its
# reduction.  The searches build dice only through the list forms, each
# call outside every loop but the census's loop over its leaf chunks, so a
# per-die or per-pair build loop cannot come back.
RING_PASS = {"_ring_passes", "ring_scalars", "ring_dtype"}
PER_DIE_BUILDS = {"root_pair", "root_product"}
LIST_BUILDS = {"root_pairs", "root_products"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp, ast.Lambda)


def _builds_in_loops(tree):
    # each list-form build call with a loop around it other than a for
    # over _pruned_splits(...), the census's leaf chunks
    found = []

    def visit(node, loops):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in LIST_BUILDS and any(
                    not (isinstance(loop, ast.For)
                         and ast.unparse(loop.iter).startswith(
                             "_pruned_splits("))
                    for loop in loops)):
            found.append(ast.unparse(node.func))
        if isinstance(node, LOOPS):
            loops = loops + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, [])
    return found


def test_only_dicecore_runs_the_ring_pass():
    trees = {path.stem: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    assert RING_PASS <= set(_identifiers(trees["dicecore"]))
    leaked = {stem: sorted(set(_identifiers(tree)) & RING_PASS)
              for stem, tree in trees.items()
              if stem not in ("dicecore", "exactnum")}
    assert not any(leaked.values()), f"ring pass named: {leaked}"
    for stem in ("exotica", "fairlab"):
        names = set(_identifiers(trees[stem]))
        assert names & LIST_BUILDS and not names & PER_DIE_BUILDS, stem
        assert not _builds_in_loops(trees[stem]), stem


def test_the_loop_rule_sees_a_per_pair_build():
    # the rule refuses a build in a comprehension or a loop, and passes one
    # in the census's chunk loop
    assert _builds_in_loops(ast.parse(
        "[root_pairs(n, [p]) for p in pairs]")) == ["root_pairs"]
    assert _builds_in_loops(ast.parse(
        "for rows in _pruned_splits(f):\n"
        "    for r in rows:\n"
        "        root_products(n, [r])")) == ["root_products"]
    assert _builds_in_loops(ast.parse(
        "for rows in _pruned_splits(f):\n"
        "    root_products(n, [r for r in rows])")) == []


# The slots of a Fraction, set directly by exactnum's one lowest-terms
# constructor: named, and a Fraction allocated bare, only inside exactnum.
FRACTION_SLOTS = {"_numerator", "_denominator"}


def test_only_exactnum_builds_a_fraction_from_its_slots():
    found = {path.stem: _bare_builds(ast.parse(path.read_text()),
                                     FRACTION_SLOTS, ("Fraction",))
             for path in SRC.glob("*.py")}
    assert FRACTION_SLOTS | {"object.__new__(Fraction)"} <= found.pop(
        "exactnum")
    leaked = {stem: sorted(names) for stem, names in found.items() if names}
    assert not leaked, f"Fraction slots touched outside exactnum: {leaked}"


def _top_level_package_imports(tree):
    # every import of a package module outside all function bodies: a
    # relative import, or an absolute one of totalparts
    in_functions = {id(sub) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = (node.level > 0
                       or (node.module or "").split(".")[0] == "totalparts")
        elif isinstance(node, ast.Import):
            package = any(alias.name.split(".")[0] == "totalparts"
                          for alias in node.names)
        else:
            continue
        if package and id(node) not in in_functions:
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_the_entry_modules_import_no_layer_at_the_top(name):
    # import totalparts, import totalparts.cli and build_parser load no
    # other module of the package: each layer is imported where it is used
    path = SRC / name
    found = _top_level_package_imports(ast.parse(path.read_text()))
    assert not found, f"{name} imports package modules at load: {found}"


def test_the_cli_imports_only_argparse_and_sys_at_the_top():
    # json, csv, fractions and contextlib are imported by the commands
    # that use them, so building the parser loads none of them
    tree = ast.parse((SRC / "cli.py").read_text())
    in_functions = {id(sub) for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    for sub in ast.walk(node)}
    modules = set()
    for node in ast.walk(tree):
        if id(node) in in_functions:
            continue
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert modules == {"__future__", "argparse", "sys"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_mpmath(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.split(".")[0])
    assert "mpmath" not in modules


# Python-level numpy and itertools helpers, each a Python call per search
# depth, leaf chunk, ring-pass step or scan; the census and the scans use
# numpy's C entry points (the ndarray constructor, nonzero, slicing).
LOOP_WRAPPERS = ("as_strided", "np.split(", "np.flatnonzero(",
                 "itertools.compress")


@pytest.mark.parametrize("name", ["exotica.py", "dicecore.py"])
def test_no_python_level_wrapper_in_the_census_loops(name):
    text = (SRC / name).read_text()
    named = [w for w in LOOP_WRAPPERS if w in text]
    assert not named, f"{name} names {named}"


# Names the scan's row pass and decision must not use: numpy's Python-level
# helpers, and the array methods numpy forwards to its Python _methods
# wrappers, each a Python call per scan.
SCAN_WRAPPERS = ("np.outer(", "np.stack(", ".all(", ".any(",
                 "np.flatnonzero(", "np.array_split(")


def test_no_python_level_wrapper_in_the_scan():
    exotica = importlib.import_module("totalparts.exotica")
    text = "".join(inspect.getsource(f)
                   for f in (exotica.s_scan, exotica._scan_row_pass))
    named = [w for w in SCAN_WRAPPERS if w in text]
    assert not named, f"the scan names {named}"


def test_mpmath_is_not_a_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert "numpy" in deps.group(1) and "mpmath" not in deps.group(1)


def test_readme_command_examples_parse():
    # every `totalparts ...` line of README's shell blocks, parsed, not run
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("totalparts ")]
    assert len(lines) >= 9
    refused = []
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            refused.append(line)
    assert not refused, f"README commands the parser refuses: {refused}"
