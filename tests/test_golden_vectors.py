"""The generator of ``tests/data/golden_vectors.json`` and the committed
file agree, so neither can change without the other."""

import importlib.util
from pathlib import Path

MAKE_VECTORS = Path(__file__).parent / "data" / "make_vectors.py"


def test_generator_reproduces_the_committed_file(golden):
    spec = importlib.util.spec_from_file_location("make_vectors", MAKE_VECTORS)
    make_vectors = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_vectors)
    assert make_vectors.build() == golden
