import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from multisig import gamma, schemes
from multisig.group import curve_group, toy_group, toy_group_for_order

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def toy():
    return toy_group()


@pytest.fixture(scope="session")
def toy16():
    # order 65521: largest prime below 2^16, big enough that 1/q accidents
    # cannot pollute multi-trial assertions
    return toy_group_for_order(65521)


@pytest.fixture(scope="session")
def curve():
    return curve_group()


class NodeSpans(dict):
    """(phase label, node) -> Span of that node's handler in that phase."""

    def exponentiations(self, node: int) -> int:
        return sum(sp.exponentiations for (_, n), sp in self.items() if n == node)


@pytest.fixture
def node_spans(monkeypatch):
    """Meter each node from outside: ``node_spans(par)`` runs every protocol
    step's handlers inside ``par.span()`` and returns the NodeSpans they
    fill.  A restart overwrites a node's earlier span for the same phase,
    so the spans describe the sessions that survived."""
    real = schemes.run_phase

    def install(par) -> NodeSpans:
        spans = NodeSpans()

        def metered(tree, phase, handler, **kwargs):
            def timed(node, arg):
                with par.span() as sp:
                    out = handler(node, arg)
                spans[(phase.label, node)] = sp
                return out

            return real(tree, phase, timed, **kwargs)

        monkeypatch.setattr(schemes, "run_phase", metered)
        return spans

    return install


@pytest.fixture
def hash_calls(monkeypatch):
    """Every ``(tag, items)`` the protocol hashes while the test runs,
    seen through the ``hash_to_scalar`` names that ``schemes`` and
    ``gamma`` bind, the same seam ``perfbench/layers.py`` wraps."""
    calls = []
    for module in (schemes, gamma):
        def recorded(par, tag, items, real=module.hash_to_scalar):
            items = tuple(items)
            calls.append((tag, items))
            return real(par, tag, items)

        monkeypatch.setattr(module, "hash_to_scalar", recorded)
    return calls


@pytest.fixture(scope="session")
def raw_nonce():
    """``raw_nonce(par, tag, seed, node, sk=None)``: a nonce re-derived
    with raw hashlib, 1 + SHA-512(tag ‖ length-prefixed str(seed) ‖ four
    zero bytes ‖ node ‖ sk) mod (q-1).  Without ``sk`` it is what a holder
    of the seed alone could compute."""
    def derive(par, tag, seed, node, sk=None):
        seed_b = str(seed).encode()
        data = (tag + len(seed_b).to_bytes(4, "big") + seed_b + bytes(4)
                + node.to_bytes(4, "big"))
        if sk is not None:
            data += sk.to_bytes(par.scalar_len, "big")
        digest = hashlib.sha512(data).digest()
        return 1 + int.from_bytes(digest, "big") % (par.q - 1)

    return derive


@pytest.fixture(scope="session")
def shuffled_levels():
    """``shuffled_levels(tree, seed)``: the same tree with the nodes of each
    level in a seeded random processing order."""
    def shuffle(tree, seed):
        rng = random.Random(seed)
        return replace(tree, levels=tuple(tuple(rng.sample(lv, len(lv)))
                                          for lv in tree.levels))

    return shuffle


@pytest.fixture(scope="session")
def golden():
    return json.loads((DATA / "golden_vectors.json").read_text())


_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance():
    """Collect one verdict line per acceptance check for the end-of-run
    summary (captured stdout from passing tests is otherwise invisible)."""
    return _acceptance_lines.append


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
