import ast
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
