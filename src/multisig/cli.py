"""Command-line front end.

Subcommands: keygen, verify-keys, simulate, verify, bench, attack, endorse.

Every command takes ``--seed``.  Each has a built-in default seed, so keys
and every other seeded value are deterministic; the exceptions are
``simulate`` and ``endorse`` without ``--seed``, which sign with nonces
from a fresh random seed, because two signatures on one nonce seed share
their nonces.
Passing ``--seed`` explicitly switches a command into reproducible-output
mode, where wall-clock fields are left blank in whatever files and stdout
it produces, making two runs with the same arguments byte-identical.
Without an explicit ``--seed``, timing fields are filled in.

Exit codes: 0 on success, 1 when a verification or an attack expectation
fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import secrets
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

from . import gamma
from .attacks import ksum_forgery_attack, rogue_key_attack
from .endorsement import run_flows
from .errors import (
    BackendRefused,
    BadLength,
    CapacityExceeded,
    IoError,
    MultisigError,
    NonCanonical,
    NotInGroup,
)
from .group import Group, curve_group, derive_rng, toy_group, toy_group_for_order
from .schemes import (
    SCHEMES,
    agms_offline,
    agms_online,
    bare_keygen,
    cosi_sign,
    cosi_verify,
    derive_keys,
    gms_sign,
    key_aggregate,
    key_verify,
    load_public_keys,
    read_signature,
    save_public_keys,
    save_secret_keys,
    verify,
    write_file,
    write_signature,
)
from .tree import build_tree, transcript_to_jsonl

DEFAULT_SEED = 1729
MAX_SIZE = 2 ** 20  # any count: a run holds O(N) state; perfbench's N <= 1024
_USAGE_ERRORS = (BackendRefused, BadLength, CapacityExceeded, IoError,
                 NonCanonical, NotInGroup, ValueError)


# ── shared options ───────────────────────────────────────────────────────────

def _add_backend(p: argparse.ArgumentParser, toy_q: int = 11) -> None:
    p.add_argument("--backend", choices=("toy", "curve"), default="toy",
                   help="group backend (default: toy)")
    p.add_argument("--toy-q", type=int, default=toy_q, metavar="Q",
                   help=f"toy subgroup order, a prime >= 3 (default {toy_q})")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; passing it explicitly also blanks timing "
                        "fields so outputs are byte-reproducible "
                        f"(default {DEFAULT_SEED})")


def _resolve_group(args) -> Group:
    if args.backend == "curve":
        return curve_group()
    if args.toy_q == 11:
        return toy_group()
    return toy_group_for_order(args.toy_q)


def _resolve_seed(args) -> tuple[int, bool]:
    """Returns (seed, reproducible-output mode)."""
    if args.seed is None:
        return DEFAULT_SEED, False
    return args.seed, True


def _size(value: int, flag: str) -> int:
    """``value`` if it is a count from 1 to MAX_SIZE, else a usage error."""
    if value < 1:
        raise ValueError(f"{flag} must be at least 1")
    if value > MAX_SIZE:
        raise ValueError(f"{flag} must be at most {MAX_SIZE}")
    return value


def _secret_path(out: str) -> str:
    p = Path(out)
    if p.suffix:
        return str(p.with_suffix(".secret" + p.suffix))
    return str(p) + ".secret"


def _comma_list(text: str, convert, flag: str) -> list:
    """The non-blank items of a comma-separated option, each converted; a
    list with no items is a usage error, since the command would do
    nothing."""
    items = [convert(s) for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError(f"{flag} lists nothing")
    return items


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(out, data, note: str = "", report=()) -> None:
    """Write a JSON document (a dict) or CSV rows (a list) to ``out``, then
    print the ``report`` lines and say so; with no ``--out``, print the
    report lines and then the data."""
    if isinstance(data, dict):
        text = _json_text(data)
    else:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(data)
        text = buf.getvalue()
    if out:
        write_file(out, text)
    for line in report:
        print(line)
    if out:
        print(f"wrote {out}{note}")
    else:
        sys.stdout.write(text)


def _table(header, rows) -> list:
    """CSV rows: ``header``, then each dict row's values in header order."""
    return [header] + [[row[h] for h in header] for row in rows]


def _write_all(writes) -> None:
    """Call ``write(path)`` for every ``(path, write)`` pair.  When one path
    is unwritable, remove the files written before it and re-raise, so a
    command that fails on its outputs leaves none of them behind."""
    done = []
    try:
        for path, write in writes:
            write(path)
            done.append(path)
    except IoError:
        for path in done:
            Path(path).unlink(missing_ok=True)
        raise


# ── keygen ───────────────────────────────────────────────────────────────────

def cmd_keygen(args) -> int:
    _size(args.count, "--count")
    par = _resolve_group(args)
    seed, _ = _resolve_seed(args)
    keys = derive_keys(par, args.count, seed)
    secret = _secret_path(args.out)
    _write_all([(args.out, lambda p: save_public_keys(p, par, keys)),
                (secret, lambda p: save_secret_keys(p, par, keys))])
    print(f"wrote {args.out} ({args.count} public keys, backend {par.group_id})")
    print(f"wrote {secret}")
    return 0


# ── verify-keys ──────────────────────────────────────────────────────────────

def cmd_verify_keys(args) -> int:
    par, pks = load_public_keys(args.keys)
    bad = 0
    for i, pk in enumerate(pks):
        ok = key_verify(par, pk)
        bad += not ok
        print(f"key {i}: {'ok' if ok else 'FAIL'}")
    print(f"{len(pks) - bad}/{len(pks)} keys verified")
    return 1 if bad else 0


# ── simulate ─────────────────────────────────────────────────────────────────

def _sign_and_verify(par, scheme, tree, keys, m, nonce_seed):
    """Sign m under ``scheme`` with nonces from ``nonce_seed``, then verify
    the signature, one span per phase.

    Returns (signature, verified, messages, {phase: Span}); the
    phases are sign_offline (AGMS and gamma only), sign_online and verify.
    Gamma signs with the first key alone.
    """
    spans = {}
    if scheme == "gamma":
        with par.span() as spans["sign_offline"]:
            nonce = gamma.precompute(par, keys[0], nonce_seed)
        with par.span() as spans["sign_online"]:
            sig = gamma.sign_online(par, keys[0], nonce, m)
        with par.span() as spans["verify"]:
            ok = gamma.verify(par, keys[0].y, m, sig)
        return sig, ok, [], spans
    if scheme == "agms":
        with par.span() as spans["sign_offline"]:
            off = agms_offline(par, tree, keys, seed=nonce_seed)
        with par.span() as spans["sign_online"]:
            run = agms_online(par, off, m)
        messages = off.messages + run.messages
    else:
        sign = cosi_sign if scheme == "cosi" else gms_sign
        with par.span() as spans["sign_online"]:
            run = sign(par, tree, keys, m, seed=nonce_seed)
        messages = run.messages
    check = cosi_verify if scheme == "cosi" else verify
    with par.span() as spans["verify"]:
        ok = check(par, run.agg_key, m, run.signature)
    return run.signature, ok, messages, spans


def cmd_simulate(args) -> int:
    if args.scheme == "gamma" and args.signers != 1:
        raise ValueError("--scheme gamma is single-signer (use --signers 1)")
    _size(args.signers, "--signers")
    par = _resolve_group(args)
    seed, reproducible = _resolve_seed(args)
    tree = build_tree(args.signers, args.branching, args.depth)
    keys = derive_keys(par, args.signers, seed)
    # keys stay on the seed so that keygen and verify pair up; nonces come
    # from a fresh seed unless --seed asks for a reproducible run
    nonce_seed = seed if reproducible else secrets.token_hex(16)
    m = args.message.encode()
    sig, ok, messages, spans = _sign_and_verify(
        par, args.scheme, tree, keys, m, nonce_seed)
    exps = {phase: sp.exponentiations for phase, sp in spans.items()}
    timings = {f"{phase.removeprefix('sign_')}_ns": sp.wall_ns
               for phase, sp in spans.items()}

    sig_hex = sig.to_bytes(par).hex()
    writes = []
    if args.out:
        writes.append((args.out, lambda p: write_signature(p, par, sig)))
    if args.transcript is not None:
        writes.append((args.transcript,
                       lambda p: write_file(p, transcript_to_jsonl(messages))))
    if args.metrics:
        doc = {
            "schema": "multisig/metrics/v1",
            "scheme": args.scheme,
            "backend": par.group_id,
            "signers": args.signers,
            "branching": tree.branching,
            "depth": args.depth,
            "seed": seed,
            "attempts": 1,
            "message_hex": m.hex(),
            "message_count": len(messages),
            "signature_hex": sig_hex,
            "exp_count": exps,
            "verified": ok,
        }
        if not reproducible:
            doc["timings"] = timings
        writes.append((args.metrics, lambda p: write_file(p, _json_text(doc))))
    _write_all(writes)

    print(f"scheme={args.scheme} backend={par.group_id} signers={args.signers}")
    print(f"attempts=1 messages={len(messages)}")
    print(f"signature={sig_hex}")
    for phase, n in exps.items():
        print(f"exp[{phase}]={n}")
    if not reproducible:
        for name, ns in timings.items():
            print(f"{name}={ns}")
    print(f"verified={'true' if ok else 'false'}")
    return 0 if ok else 1


# ── verify ───────────────────────────────────────────────────────────────────

def cmd_verify(args) -> int:
    par, pks = load_public_keys(args.keys)
    sig = read_signature(args.signature, par)
    m = args.message.encode()
    if args.scheme in ("gms", "agms"):
        for i, pk in enumerate(pks):
            if not key_verify(par, pk):
                print(f"key {i} failed its possession check; refusing to "
                      "aggregate")
                return 1
        ok = verify(par, key_aggregate(par, pks), m, sig)
    elif args.scheme == "cosi":
        ok = cosi_verify(par, key_aggregate(par, pks), m, sig)
    else:  # gamma
        if len(pks) != 1:
            raise ValueError(f"--scheme gamma is single-signer: {args.keys} "
                             f"holds {len(pks)} keys, not 1")
        ok = gamma.verify(par, pks[0].y, m, sig)
    print(f"signature valid: {'true' if ok else 'false'}")
    return 0 if ok else 1


# ── bench ────────────────────────────────────────────────────────────────────

def _fmt_mean(x: float):
    return int(x) if float(x).is_integer() else round(x, 3)


def cmd_bench(args) -> int:
    _size(args.reps, "--reps")
    schemes_list = _comma_list(args.schemes, str.strip, "--schemes")
    for scheme in schemes_list:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    n_list = [_size(n, "--signers-list") for n in
              _comma_list(args.signers_list, int, "--signers-list")]
    par = _resolve_group(args)
    seed, reproducible = _resolve_seed(args)
    m = args.message.encode()
    rows = []
    for scheme in schemes_list:
        for n in n_list:
            tree = build_tree(n, args.branching, args.depth)
            keys = derive_keys(par, n, f"{seed}|{n}")
            samples: dict[str, list] = {}
            for rep in range(args.reps):
                *_, spans = _sign_and_verify(par, scheme, tree, keys, m,
                                             f"{seed}|rep{rep}")
                for phase, sp in spans.items():
                    samples.setdefault(phase, []).append(sp)
            for phase, sps in samples.items():
                walls = [sp.wall_ns for sp in sps]
                exps = [sp.exponentiations for sp in sps]
                rows.append({
                    "scheme": scheme,
                    "N": n,
                    "phase": phase,
                    "mean_ns": _fmt_mean(statistics.fmean(walls)),
                    "std_ns": _fmt_mean(statistics.pstdev(walls)),
                    "exp_count": _fmt_mean(statistics.fmean(exps)),
                })
    if reproducible:
        for row in rows:
            row["mean_ns"] = None
            row["std_ns"] = None

    if args.format == "json":
        data = {"schema": "multisig/bench/v1", "rows": rows}
    else:
        data = _table(["scheme", "N", "phase", "mean_ns", "std_ns",
                       "exp_count"], rows)
    _emit(args.out, data, f" ({len(rows)} rows)")
    return 0


# ── attack ───────────────────────────────────────────────────────────────────

def cmd_attack(args) -> int:
    # with no attempt or no honest signer a demo shows nothing, so it must
    # not report its expectation as met; each demo checks the count it reads
    n_honest = _size(args.n_honest, "--n-honest")
    par = _resolve_group(args)
    seed, _ = _resolve_seed(args)
    if args.kind == "rogue":
        attempts = _size(args.retries_pop, "--retries-pop")
        honest = [bare_keygen(par, derive_rng(seed, "honest-key", i)).public
                  for i in range(n_honest)]
        report = rogue_key_attack(par, honest, args.message.encode(),
                                  seed=seed, proof_attempts=attempts)
    else:  # ksum
        report = ksum_forgery_attack(par, target=args.target, k=args.k,
                                     n_honest=n_honest,
                                     list_size=args.list_size,
                                     retries=_size(args.retries, "--retries"),
                                     seed=seed, message=args.message.encode())
    _emit(args.out, report.to_json_dict(par))
    met = report.expectation_met
    print(f"{report.verdict} expectation={'met' if met else 'VIOLATED'}")
    return 0 if met else 1


# ── endorse ──────────────────────────────────────────────────────────────────

def cmd_endorse(args) -> int:
    par = _resolve_group(args)
    seed, reproducible = _resolve_seed(args)
    if not reproducible:  # one fixed seed would sign every message on one nonce
        seed = secrets.token_hex(16)
    n_list = [_size(n, "--endorsers-list") for n in
              _comma_list(args.endorsers_list, int, "--endorsers-list")]
    flows = ("revised", "default") if args.flow == "both" else (args.flow,)
    records = run_flows(par, n_list, args.message.encode(), seed=seed,
                        depth=args.depth, flows=flows)
    report = [f"{rec.flow} n={rec.n_endorsers}: "
              f"step7_verify_calls={rec.step7_verify_calls()} "
              f"signature_bytes={rec.signature_bytes} "
              f"accepted={'true' if rec.accepted else 'false'}"
              for rec in records]
    docs = [asdict(rec) for rec in records]
    if reproducible:
        for doc in docs:
            for step in doc["steps"]:
                step["wall_ns"] = None
    if args.format == "json":
        _emit(args.out, {"schema": "multisig/endorsement/v1", "records": docs},
              report=report)
    else:
        rows = [{"flow": doc["flow"], "n_endorsers": doc["n_endorsers"], **step}
                for doc in docs for step in doc["steps"]]
        _emit(args.out, _table(["flow", "n_endorsers", "step", "wall_ns",
                                "exp_count", "verify_calls", "bytes"], rows),
              f" ({len(rows)} rows)", report)
    return 0 if all(r.accepted for r in records) else 1


# ── parser ───────────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisig",
        description="Tree multi-signatures with an offline/online split: "
                    "key management, protocol simulation, benchmarks, attack "
                    "demos, and an endorsement-flow comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate proof-carrying key pairs")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--out", required=True,
                   help="public key file; secrets go to <out>.secret.<ext>")
    _add_backend(p)
    _add_seed(p)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("verify-keys",
                       help="check every possession proof in a key file")
    p.add_argument("--keys", required=True)
    p.set_defaults(func=cmd_verify_keys)

    p = sub.add_parser("simulate",
                       help="run one signing protocol over a signer tree")
    p.add_argument("--scheme", choices=(*SCHEMES, "gamma"), default="agms")
    p.add_argument("--signers", type=int, default=3)
    p.add_argument("--branching", type=int, default=None,
                   help="tree fan-out (default: smallest that fits --depth)")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--message", default="simulated transaction")
    p.add_argument("--out", default=None, help="write signature bytes here")
    p.add_argument("--metrics", default=None, help="write metrics JSON here")
    p.add_argument("--transcript", default=None,
                   help="write message transcript JSONL here")
    _add_backend(p)
    _add_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="verify a signature file against keys")
    p.add_argument("--scheme", choices=(*SCHEMES, "gamma"), default="agms")
    p.add_argument("--keys", required=True)
    p.add_argument("--signature", required=True)
    p.add_argument("--message", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="wall-clock and operation-count sweep")
    p.add_argument("--schemes", default=",".join(SCHEMES))
    p.add_argument("--signers-list", default="4,16,64,256,1024,4096")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--branching", type=int, default=None)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--message", default="bench message")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_backend(p)
    _add_seed(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attack", help="run an attack demo (toy backend only)")
    p.add_argument("kind", choices=("rogue", "ksum"))
    p.add_argument("--target", choices=("cosi", "agms"), default="cosi",
                   help="ksum only: cosi expects a forgery, agms expects none")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--list-size", type=int, default=None)
    p.add_argument("--retries", type=int, default=8)
    p.add_argument("--retries-pop", type=int, default=100,
                   help="rogue only: possession-proof forging attempts; on "
                        "tiny --toy-q each passes by chance about 1 in q, so "
                        "the run reports expectation=VIOLATED and exits 1 "
                        "with nothing forged")
    p.add_argument("--n-honest", type=int, default=3)
    p.add_argument("--message", default="pay the usual 1")
    p.add_argument("--out", default=None)
    _add_backend(p, toy_q=65521)
    _add_seed(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("endorse",
                       help="compare endorsement flows step by step")
    p.add_argument("--endorsers-list", default="2,4,8,16,32")
    p.add_argument("--flow", choices=("both", "revised", "default"),
                   default="both")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--message", default="endorse proposal")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_backend(p)
    _add_seed(p)
    p.set_defaults(func=cmd_endorse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MultisigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
