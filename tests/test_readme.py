import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # the library example signs and verifies; the metering example reuses
    # its names, so both run in one namespace, in order
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    sp = namespace["sp"]
    assert namespace["ok"] is True
    assert (sp.exponentiations, sp.multiplications) == (3, 1)
