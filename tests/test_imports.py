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
