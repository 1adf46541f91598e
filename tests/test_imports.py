import ast
import importlib
from pathlib import Path

import multisig

PACKAGE = Path(multisig.__file__).parent


def test_modules_share_only_public_names():
    # a sibling's underscore names are its own business; shared steps go
    # through the public API
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "multisig":
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert offenders == []


def test_steps_take_no_schedule_and_pass_no_ops_counter():
    # one meter (Group.span) and one processing order (the tree's levels):
    # no call passes a per-call ops= counter, no function takes a schedule
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                offenders += [f"{path.name}:{node.lineno}: ops="
                              for kw in node.keywords if kw.arg == "ops"]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                offenders += [f"{path.name}:{node.lineno}: schedule"
                              for a in params if a.arg == "schedule"]
    assert offenders == []


def test_every_all_matches_its_module():
    # a name left in __all__ after its definition goes breaks star imports;
    # a public definition missing from it is API nobody declared
    checked, offenders = [], []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"multisig.{path.stem}")
        exported = getattr(module, "__all__", None)
        if exported is None:  # cli and errors declare no __all__
            continue
        checked.append(path.stem)
        offenders += [f"{path.name}: {name} is not defined" for name in exported
                      if not hasattr(module, name)]
        offenders += [f"{path.name}: {node.name} is not in __all__"
                      for node in ast.parse(path.read_text()).body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_")
                      and node.name not in exported]
    assert offenders == []
    assert {"gamma", "group", "schemes", "tree"} <= set(checked)


def test_only_schemes_builds_possession_proofs():
    # one proof construction (schemes.prove_possession), so a fix to how a
    # proof is built cannot miss a copy elsewhere
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "schemes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "KeyProof":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _callee(node) -> str | None:
    """The bare name a decorator or call refers to: ``lru_cache`` for
    ``functools.lru_cache(maxsize=8)``, ``dict`` for ``dict()``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_group_module_holds_no_cache_state():
    # memos and comb tables belong to a Group object, so a fresh group
    # starts cold and no caller pays for state it cannot see; g1's shared
    # table is a None global until built, and __all__ is the one list
    offenders = []
    for node in ast.parse((PACKAGE / "group.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            offenders += [f"{node.name}: @{_callee(d)}" for d in node.decorator_list
                          if _callee(d) in ("lru_cache", "cache")]
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if names == ["__all__"]:
            continue
        offenders += [f"{', '.join(names)}:{node.lineno}"
                      for v in ast.walk(node.value)
                      if isinstance(v, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                        ast.ListComp, ast.SetComp))
                      or (isinstance(v, ast.Call)
                          and _callee(v) in ("dict", "list", "set"))]
    assert offenders == []


def test_no_module_reads_the_environment():
    # a seeded run's output is a function of its arguments alone: no
    # setting arrives through an environment variable
    names = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in names:
                offenders.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [f"{path.name}:{node.lineno}: {alias.name}"
                              for alias in node.names if alias.name in names]
    assert offenders == []


def test_only_tree_picks_the_fan_out():
    # build_tree works out the default fan-out itself, so a caller cannot
    # pair a signer count with a fan-out for another depth
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tree.py":
            continue
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and _callee(node) == "min_branching"]
    assert offenders == []


def test_only_the_tree_and_challenge_name_a_bad_sender():
    # who sent a payload is a fact about the tree: run_phase names an
    # up-phase sender, and a challenge's sender is its receiver's parent
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text())
        scopes = {id(node): fn.name for fn in module.body
                  if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        builders += [f"{path.name}:{scopes.get(id(node))}"
                     for node in ast.walk(module)
                     if isinstance(node, ast.Call) and _callee(node) == "BadPayload"]
    assert sorted(set(builders)) == ["schemes.py:challenge", "tree.py:run_phase"]
