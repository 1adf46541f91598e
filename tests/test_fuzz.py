"""Seeded fuzz loop over the CLI's file inputs, numeric arguments and
output paths.

Valid key, secret and signature files are written once per backend, then
mutated: truncation, bit flips, JSON type swaps, hex edits, deep nesting,
a wrong schema or a wrong group.  Numeric options take zero, negative,
prime, composite and oversized values.  Each mutant goes through
``cli.main`` in process, which must return 0, 1 or 2 within a wall-clock
bound and let no exception escape.  The secret-file loader, which no
command reads, is driven directly and may only raise the library's own
errors.  Every case is a pure function of its seed, so a failure names a
case that replays on its own.
"""

import json
import random
import signal
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from multisig.cli import main
from multisig.errors import MultisigError
from multisig.schemes import load_secret_keys

_SCHEMES = ("gms", "agms", "cosi", "gamma")
_SCHEMA_NAMES = ("multisig/keys/v1", "multisig/secrets/v1", "multisig/keys/v2",
                 "", None, 1)
_GROUPS = ({"backend": "secp256k1"}, {"backend": "toy", "p": 23, "q": 11, "g": 2},
           {"backend": "toy", "p": 23, "q": 11, "g": 3},
           {"backend": "toy", "p": 25, "q": 11, "g": 2},
           {"backend": "toy", "p": 2**41 + 1, "q": 11, "g": 2},
           {"backend": "ed25519"}, {"backend": "toy"}, [], "secp256k1", None)
_VALUES = (None, True, False, 0, -1, 1.5, 2**70, float("nan"), "", "zz",
           "00", "ff" * 40, [], {}, [1, 2], {"y": "00"})


_BOUND_S = 5.0


class _Overrun(BaseException):
    """Raised by SIGALRM in a case that outlives its bound; a
    BaseException, so no handler in the code under test swallows it."""


def _overrun(signum, frame):
    raise _Overrun


def _call(argv) -> int:
    """``main(argv)`` with its output swallowed; SystemExit counts as a
    return, any other exception escapes to the caller.  A case that runs
    longer than ``_BOUND_S`` seconds fails the test and names its argv."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, _BOUND_S)
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            try:
                return main(list(argv))
            except SystemExit as exc:
                return exc.code
    except _Overrun:
        pytest.fail(f"{list(argv)} ran past {_BOUND_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module", params=[("--toy-q", "65521"),
                                        ("--backend", "curve")],
                ids=["toy", "curve"])
def valid_files(request, tmp_path_factory):
    """(keys.json, keys.secret.json, sig.bin) from one seeded keygen and an
    AGMS signature over the same keys."""
    d = tmp_path_factory.mktemp("fuzz")
    keys, sig = d / "keys.json", d / "sig.bin"
    assert _call(["keygen", "--count", "2", "--out", str(keys), "--seed", "4",
                  *request.param]) == 0
    assert _call(["simulate", "--signers", "2", "--seed", "4", "--message",
                  "fuzz", "--out", str(sig), *request.param]) == 0
    return keys.read_bytes(), (d / "keys.secret.json").read_bytes(), sig.read_bytes()


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _flip_bits(data: bytes, rng) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def _mutate_json(data: bytes, rng) -> bytes:
    kind = rng.choice(("truncate", "flip", "swap", "hex", "nest", "schema",
                       "group"))
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "flip":
        return _flip_bits(data, rng)
    doc = json.loads(data)
    if kind == "swap":
        path, _ = rng.choice(list(_nodes(doc)))
        doc = _replace(doc, path, rng.choice(_VALUES))
    elif kind == "hex":
        path, value = rng.choice([(p, v) for p, v in _nodes(doc)
                                  if isinstance(v, str) and p[-1] != "schema"])
        size = max(0, len(value) // 2 + rng.choice((-1, 0, 0, 0, 1)))
        fill = rng.choice((b"\x00" * size, b"\xff" * size, rng.randbytes(size)))
        doc = _replace(doc, path, fill.hex())
    elif kind == "nest":
        # deeper than the JSON decoder's recursion limit half of the time
        depth = rng.choice((50, 100_000))
        doc = _replace(doc, rng.choice(list(_nodes(doc)))[0], "@nest@")
        return json.dumps(doc).replace('"@nest@"', "[" * depth + "]" * depth).encode()
    elif kind == "schema":
        doc["schema"] = rng.choice(_SCHEMA_NAMES)
    else:
        doc["group"] = rng.choice(_GROUPS)
    return json.dumps(doc).encode()


def _mutate_signature(data: bytes, rng) -> bytes:
    kind = rng.choice(("truncate", "flip", "extend", "empty", "ones", "random"))
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "flip":
        return _flip_bits(data, rng)
    if kind == "extend":
        return data + rng.randbytes(rng.randint(1, 4))
    if kind == "empty":
        return b""
    if kind == "ones":
        return b"\xff" * len(data)
    return rng.randbytes(len(data))


def _verify_argv(rng, keys, sig) -> list:
    if rng.random() < 0.25:
        return ["verify-keys", "--keys", str(keys)]
    return ["verify", "--scheme", rng.choice(_SCHEMES), "--keys", str(keys),
            "--signature", str(sig), "--message", "fuzz"]


@pytest.mark.parametrize("target", ["keys", "secret", "signature"])
def test_mutated_files_exit_cleanly(valid_files, target, tmp_path, request):
    keys_b, secret_b, sig_b = valid_files
    cases = 80 if request.node.callspec.id.startswith("toy") else 20
    keys, sig = tmp_path / "keys.json", tmp_path / "sig.bin"
    failures = []
    for case in range(cases):
        rng = random.Random(f"{request.node.callspec.id}/{case}")
        keys.write_bytes(keys_b)
        sig.write_bytes(sig_b)
        if target == "signature":
            sig.write_bytes(_mutate_signature(sig_b, rng))
        else:
            keys.write_bytes(_mutate_json(keys_b if target == "keys" else secret_b,
                                          rng))
        argv = _verify_argv(rng, keys, sig)
        try:
            code = _call(argv)
        except Exception as exc:  # noqa: BLE001 - the failure under test
            failures.append((case, argv[0], repr(exc)[:120]))
            continue
        if code not in (0, 1, 2):
            failures.append((case, argv[0], f"exit {code!r}"))
        if target == "secret":
            try:
                load_secret_keys(keys)
            except MultisigError:
                pass
            except Exception as exc:  # noqa: BLE001
                failures.append((case, "load_secret_keys", repr(exc)[:120]))
    assert failures == [], "\n".join(map(str, failures))


# zero, negative, one, small primes and composites; every numeric option
# takes these
_SMALL = (0, -1, 1, 2, 3, 5, 7, 13, 4, 6, 9, 15)
# primes above the toy group's 2^25 bound on q, for the options whose cost
# does not grow with the value
_ABOVE_TOY = (33554467, 2**31 - 1, 2**61 - 1)

# option -> (values, commands it is mutated in); every other argument
# keeps the run small
_NUMERIC = {
    "--signers": (_SMALL, [("simulate",), ("simulate", "--scheme", "gamma")]),
    "--count": (_SMALL, [("keygen", "--out", "@dir@/k.json")]),
    "--depth": (_SMALL, [("simulate", "--signers", "5"),
                         ("bench", "--signers-list", "5", "--reps", "1"),
                         ("endorse", "--endorsers-list", "3")]),
    "--branching": (_SMALL + _ABOVE_TOY,
                    [("simulate", "--signers", "5"),
                     ("bench", "--signers-list", "5", "--reps", "1")]),
    "--reps": (_SMALL, [("bench", "--signers-list", "3", "--schemes", "agms")]),
    "--k": (_SMALL + _ABOVE_TOY, [("attack", "ksum", "--retries", "2")]),
    "--list-size": (_SMALL, [("attack", "ksum", "--retries", "2")]),
    "--n-honest": (_SMALL, [("attack", "ksum", "--retries", "2"),
                            ("attack", "rogue", "--retries-pop", "4")]),
    "--retries": (_SMALL, [("attack", "ksum")]),
    "--retries-pop": (_SMALL, [("attack", "rogue")]),
    "--endorsers-list": (_SMALL, [("endorse", "--flow", "revised"),
                                  ("endorse", "--flow", "default")]),
    "--toy-q": (_SMALL + _ABOVE_TOY,
                [("simulate",), ("keygen", "--out", "@dir@/k.json"),
                 ("attack", "rogue", "--retries-pop", "4"),
                 ("endorse", "--endorsers-list", "2")]),
}


@pytest.mark.parametrize("flag", sorted(_NUMERIC))
def test_numeric_arguments_exit_cleanly(flag, tmp_path):
    values, commands = _NUMERIC[flag]
    failures = []
    for value in values:
        rng = random.Random(f"{flag}/{value}")
        command = [a.replace("@dir@", str(tmp_path))
                   for a in rng.choice(commands)]
        argv = [*command, flag, str(value), "--seed", str(rng.randrange(100))]
        try:
            code = _call(argv)
        except Exception as exc:  # noqa: BLE001 - the failure under test
            failures.append((argv, repr(exc)[:120]))
            continue
        if code not in (0, 1, 2):
            failures.append((argv, f"exit {code!r}"))
    assert failures == [], "\n".join(map(str, failures))


@pytest.mark.parametrize("target", ["agms", "cosi"])
def test_ksum_on_tiny_orders_ends(target):
    # the AGMS target challenge ignores the forged message, so when it
    # hashed to 0 the grinder used to skip every candidate forever; on such
    # orders the control may forge by chance (exit 1), never hang
    failures = []
    for q in (3, 5, 7, 13):
        for seed in range(4):
            argv = ["attack", "ksum", "--target", target, "--toy-q", str(q),
                    "--seed", str(seed)]
            code = _call(argv)
            if code not in (0, 1):
                failures.append((argv, f"exit {code!r}"))
    assert failures == [], "\n".join(map(str, failures))


@pytest.mark.parametrize("argv", [
    ("--toy-q", "3", "--message", "m", "--seed", "1"),
    ("--toy-q", "13", "--seed", "3"),
], ids=["q3-digest-hung", "q13-zero-blind"])
def test_rogue_on_tiny_orders_meets_its_expectation(argv, tmp_path):
    # q = 3: every commitment's challenge for m = b"m" was 0, and the
    # baseline signature was redrawn forever.  q = 13: H2(y_A) was 0, so
    # all 100 fabricated proofs passed
    out = tmp_path / "rogue.json"
    assert _call(["attack", "rogue", *argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["expectation_met"] is True
    assert (doc["successes"], doc["attempts"]) == (0, 100)


_WRITERS = (
    ("keygen", "--out"),
    ("simulate", "--out"),
    ("simulate", "--metrics"),
    ("simulate", "--transcript"),
    ("bench", "--schemes", "agms", "--signers-list", "3", "--reps", "1", "--out"),
    ("endorse", "--endorsers-list", "2", "--out"),
    ("attack", "rogue", "--retries-pop", "4", "--out"),
)


# a missing directory is test_cli's test_unwritable_output_is_a_usage_error
@pytest.mark.parametrize("where", ["directory", "under-a-file", "long-name",
                                   "nul-byte"])
def test_unwritable_output_paths_exit_two(where, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    path = {
        "directory": str(tmp_path),
        "under-a-file": str(blocker / "out"),
        "long-name": str(tmp_path / ("x" * 300)),
        "nul-byte": str(tmp_path / "a\x00b"),
    }[where]
    codes = [_call([*argv, path, "--seed", "1"]) for argv in _WRITERS]
    assert codes == [2] * len(_WRITERS)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
