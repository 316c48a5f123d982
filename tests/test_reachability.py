"""Every function and class of the package is reached from a root.

The roots are the bodies in ``scenarios.SCENARIOS``, ``cli.main``, the
names the benchmark in ``perfbench/`` loads (``PERFBENCH``, read from its
source, so a name counts as called by the benchmark exactly while it is),
and ``KEEP``, each with the reason it stays although neither the package
nor the benchmark calls it.  A module-level definition, public or private,
is reached when a reached definition names it; code that only tests reach
is deleted, not kept alive by its own tests.  An ``__init__`` export is no
root: a name in ``__all__`` needs a caller or a ``KEEP`` reason like any
other.

Members go the same way: a public method, property or dataclass or
NamedTuple field of a package class must be read as an attribute somewhere in
the package or in the benchmark's sources, or carry a ``KEEP_MEMBERS``
reason.  Only the name is matched, not the class it is read from.

Parameters too: a defaulted parameter of a module-level function must be
passed, by keyword or position, by some call of that function's name in the
package or the benchmark's sources, or carry a ``KEEP_PARAMETERS`` reason.  A
starred argument passes every position from its own on.

Scenario results too: every key of the result dict a scenario body returns
must be subscripted (``result["key"]``) in ``cli.py`` or in the benchmark's
sources.  Only the key is matched, not the dict it is read from.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scfosim"

# name -> why it stays although neither the package nor the benchmark calls it yet
KEEP = {
    "quantizer_efficiency": "the analytic Q4 term of the requant-loss breakdown (ROADMAP item 9)",
}

BENCHMARK = PACKAGE.parent.parent / "perfbench"


def _benchmark_names():
    """What perfbench/workloads.py, worker.py and record_reference.py load
    from the package: the names of each ``from scfosim... import``, and the
    attributes read off a package module that ``from scfosim import`` binds."""
    names, modules = set(), set()
    trees = [ast.parse((BENCHMARK / f).read_text()) for f in ("workloads.py", "worker.py", "record_reference.py")]
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scfosim":
                for alias in node.names:
                    if node.module == "scfosim" and (PACKAGE / f"{alias.name}.py").exists():
                        modules.add(alias.asname or alias.name)
                    else:
                        names.add(alias.name)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names.add(node.attr)
    return names


PERFBENCH = _benchmark_names()


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node):
    """Every identifier that ``node`` loads, as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions(modules):
    """(module, name) of every module-level function and class."""
    return {
        (module, stmt.name)
        for module, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }


def _referenced(modules):
    """Names loaded anywhere in the package, except inside the body of the
    top-level definition of that same name (recursion is not a caller)."""
    seen = set()
    for tree in modules.values():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            seen.update(name for name in _names(stmt) if name != own)
    return seen


def _scenario_bodies(modules):
    """The functions registered in SCENARIOS by the ``@_scenario`` decorator."""
    return {
        stmt.name
        for stmt in modules["scenarios"].body
        if isinstance(stmt, ast.FunctionDef)
        and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_scenario" for d in stmt.decorator_list)
    }


def _reached(modules):
    """Names reached from the roots: a reached name reaches every name that
    a module-level function or class of that name loads (in its body,
    decorators and default values), whatever module it is in."""
    loads = {}
    for tree in modules.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                loads.setdefault(stmt.name, set()).update(_names(stmt))
    roots = _scenario_bodies(modules) | {"main"} | set(KEEP) | PERFBENCH
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(loads.get(name, ()))
    return reached


def test_every_public_definition_has_a_package_caller_or_a_reason():
    modules = _modules()
    reached = _referenced(modules) | PERFBENCH | set(KEEP)
    orphans = sorted(
        f"{module}.{name}"
        for module, name in _definitions(modules)
        if not name.startswith("_") and name not in reached
    )
    assert orphans == [], f"reached only from tests; delete them or add them to KEEP: {orphans}"


def test_every_definition_is_reached_from_a_root():
    modules = _modules()
    reached = _reached(modules)
    assert _scenario_bodies(modules), "no scenario body found"
    unreached = sorted(f"{module}.{name}" for module, name in _definitions(modules) if name not in reached)
    assert unreached == [], f"reached from no root; delete them or add them to KEEP: {unreached}"


def test_keep_set_names_only_uncalled_definitions():
    modules = _modules()
    defined = {name for _, name in _definitions(modules)}
    assert set(KEEP) <= defined, f"KEEP names what is gone: {sorted(set(KEEP) - defined)}"
    assert PERFBENCH, "perfbench/ loads no scfosim name"
    assert PERFBENCH <= defined, f"perfbench/ loads what is gone: {sorted(PERFBENCH - defined)}"
    called = sorted(set(KEEP) & (_referenced(modules) | PERFBENCH))
    assert called == [], f"KEEP names what the package or the benchmark already calls: {called}"
    assert all(reason.strip() for reason in KEEP.values())


# Class.member -> why it stays although neither the package nor the benchmark reads it
KEEP_MEMBERS = {
    "ResponseCurve.freq": "the frequency axis the bank's group-delay tests measure against",
    "ResponseCurve.delay_err_samples": "the group-delay error the bank's group-delay tests measure",
}

BENCHMARK_READERS = ("workloads.py", "worker.py", "record_reference.py", "tracing.py")


def _members(modules):
    """Class.member of every public method, property and annotated field (a
    dataclass or NamedTuple field) of a package class."""
    for tree in modules.values():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{cls.name}.{name}"


def _attribute_reads(trees):
    """Every attribute name that ``trees`` read (``x.name`` in a load)."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_member_is_read_or_kept():
    modules = _modules()
    benchmark = [ast.parse((BENCHMARK / f).read_text()) for f in BENCHMARK_READERS]
    read = _attribute_reads(modules.values()) | _attribute_reads(benchmark)
    members = set(_members(modules))
    unread = sorted(m for m in members if m.split(".")[1] not in read and m not in KEEP_MEMBERS)
    assert unread == [], f"read nowhere in the package or the benchmark; delete them or keep them: {unread}"
    assert set(KEEP_MEMBERS) <= members, f"KEEP_MEMBERS names what is gone: {sorted(set(KEEP_MEMBERS) - members)}"
    kept_but_read = sorted(m for m in KEEP_MEMBERS if m.split(".")[1] in read)
    assert kept_but_read == [], f"KEEP_MEMBERS names what is already read: {kept_but_read}"
    assert all(reason.strip() for reason in KEEP_MEMBERS.values())


# function.parameter -> why it keeps its default although no package or
# benchmark caller passes it
KEEP_PARAMETERS = {
    "design_bank.passband": "tests design banks off the scenario spec",
    "design_bank.max_ripple_db": "tests design banks off the scenario spec",
    "main.argv": "tests call main with an argument list",
}


def _defaulted_parameters(modules):
    """(function, parameter, position) of every defaulted parameter of a
    module-level function; position is None for a keyword-only one."""
    for tree in modules.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args
                positional = args.posonlyargs + args.args
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    yield stmt.name, positional[i].arg, i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield stmt.name, arg.arg, None


def _passed(trees):
    """function name -> the parameter names and positions its calls in
    ``trees`` pass; a starred argument passes every position from it on, and
    a ``**`` argument every keyword."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            got = passed.setdefault(name, set())
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):  # no package function takes 64 parameters
                    got.update(range(i, 64))
                    break
                got.add(i)
            got.update(kw.arg if kw.arg is not None else "**" for kw in node.keywords)
    return passed


def test_every_defaulted_parameter_is_passed_or_kept():
    modules = _modules()
    benchmark = [ast.parse((BENCHMARK / f).read_text()) for f in BENCHMARK_READERS]
    passed = _passed(list(modules.values()) + benchmark)
    defaulted = {f"{fn}.{arg}": (fn, arg, i) for fn, arg, i in _defaulted_parameters(modules)}

    def reached(fn, arg, i):
        got = passed.get(fn, set())
        return arg in got or "**" in got or i in got

    unpassed = sorted(key for key, spec in defaulted.items() if not reached(*spec) and key not in KEEP_PARAMETERS)
    assert unpassed == [], f"no package or benchmark call passes them; drop the parameter or keep it: {unpassed}"
    assert set(KEEP_PARAMETERS) <= set(defaulted), f"KEEP_PARAMETERS names what is gone: {sorted(set(KEEP_PARAMETERS) - set(defaulted))}"
    kept_but_passed = sorted(key for key in KEEP_PARAMETERS if reached(*defaulted[key]))
    assert kept_but_passed == [], f"KEEP_PARAMETERS names what a caller already passes: {kept_but_passed}"
    assert all(reason.strip() for reason in KEEP_PARAMETERS.values())


def _result_keys(modules):
    """(body, key) of each key of the result dict, the second item of the
    ``(tables, result)`` that a scenario body returns; a key that is no
    constant, or a ``**`` entry, reads as None, which no caller subscripts."""
    bodies = _scenario_bodies(modules)
    return {
        (stmt.name, getattr(key, "value", None))
        for stmt in modules["scenarios"].body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in bodies
        for node in ast.walk(stmt)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple) and isinstance(node.value.elts[-1], ast.Dict)
        for key in node.value.elts[-1].keys
    }


def _subscripts(trees):
    """Every string constant that ``trees`` subscript with (``x["key"]``)."""
    return {
        node.slice.value
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)
    }


def test_every_scenario_result_key_is_read():
    modules = _modules()
    keys = _result_keys(modules)
    assert ("_requant_loss", "report") in keys, "no scenario result found"
    read = _subscripts([modules["cli"]] + [ast.parse((BENCHMARK / f).read_text()) for f in BENCHMARK_READERS])
    unread = sorted(f"{body}: {key}" for body, key in keys if key not in read)
    assert unread == [], f"no caller reads them; drop them from the result: {unread}"
