"""Spans around the public entry points of each library layer.

A ``Tracer`` wraps, from outside the library, the calls the benchmark
measures per layer:

* ``group``: ``exp`` (split by base: ``g1`` or variable), ``mul`` and
  ``decode_element``, as instance attributes on the one ``Group`` in use;
* ``hashing``: ``hash_to_scalar`` where ``schemes`` and ``gamma`` bind it;
* ``tree``: ``run_phase`` where ``schemes`` binds it, together with the
  per-node handler passed to it (``endorsement`` reaches ``run_phase``
  through ``schemes`` too);
* ``schemes``: ``agms_offline``, ``agms_online``, ``verify``, ``keygen``
  and ``key_verify``, in ``schemes`` and where ``endorsement`` imported them;
* ``gamma``: ``precompute``, ``sign_online`` and ``verify``.

Spans live in memory as parallel arrays (name, start, end, parent,
operation id, tree depth) until the run ends.  Self time and the tree
critical path are computed from them afterwards.  ``installed()`` puts
the wrappers in place and always restores the originals.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from multisig import endorsement, gamma, schemes

GROUP_SPANS = ("group.exp_g1", "group.exp_var", "group.decode", "group.mul")
OFFLINE_PHASES = ("tree.commit", "tree.challenge")
ONLINE_PHASES = ("tree.announce", "tree.respond")
HANDLER = "tree.handler"

_SCHEMES_ENTRY_POINTS = ("agms_offline", "agms_online", "verify", "keygen",
                         "key_verify")
_GAMMA_ENTRY_POINTS = ("precompute", "sign_online", "verify")


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self, par):
        self.par = par
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.depth = array("h")      # tree depth for handler spans, else -1
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _call(self, name_id: int, depth: int, fn, *args, **kwargs):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.depth.append(depth)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter_ns()
            self._stack.pop()

    # ── wrappers ────────────────────────────────────────────────────────────

    def _group_wrappers(self) -> dict:
        par, call = self.par, self._call
        exp, mul, decode = par.exp, par.mul, par.decode_element
        g1 = par.g1
        exp_g1, exp_var = self._id("group.exp_g1"), self._id("group.exp_var")
        mul_id, decode_id = self._id("group.mul"), self._id("group.decode")

        def traced_exp(base, e, ops=None):
            return call(exp_g1 if base == g1 else exp_var, -1, exp, base, e, ops)

        def traced_mul(a, b, ops=None):
            return call(mul_id, -1, mul, a, b, ops)

        def traced_decode(data):
            return call(decode_id, -1, decode, data)

        return {"exp": traced_exp, "mul": traced_mul, "decode_element": traced_decode}

    def _hash_wrapper(self, orig):
        call, counters, hash_id = self._call, self.counters, self._id("hashing")

        def traced_hash(par, tag, items):
            items = tuple(items)
            # serialized length: tag byte, then a 4-byte length prefix per item
            counters["hashing.bytes"] += 1 + sum(
                4 + (len(x) if isinstance(x, bytes) else par.scalar_len)
                for x in items)
            return call(hash_id, -1, orig, par, tag, items)

        return traced_hash

    def _run_phase_wrapper(self, orig):
        call, counters = self._call, self.counters
        handler_id = self._id(HANDLER)

        def traced_run_phase(tree, phase, handler, **kwargs):
            depth = {node: d for d, level in enumerate(tree.levels) for node in level}

            def traced_handler(node, arg):
                return call(handler_id, depth[node], handler, node, arg)

            result = call(self._id(f"tree.{phase.label}"), -1, orig, tree, phase,
                          traced_handler, **kwargs)
            counters["tree.messages"] += len(result.messages)
            counters["tree.payload_bytes"] += sum(
                len(m.payload) for m in result.messages if m.payload)
            return result

        return traced_run_phase

    def _entry_wrapper(self, name: str, orig):
        call, name_id = self._call, self._id(name)
        if name != "schemes.agms_offline":
            return lambda *args, **kwargs: call(name_id, -1, orig, *args, **kwargs)
        counters = self.counters

        def traced_offline(*args, **kwargs):
            run = call(name_id, -1, orig, *args, **kwargs)
            counters["schemes.signatures"] += 1
            counters["schemes.attempts"] += run.attempts
            return run

        return traced_offline

    def _patches(self) -> list:
        """(owner, attribute, wrapper) for every wrapped entry point."""
        patches = [(self.par, attr, fn) for attr, fn in self._group_wrappers().items()]
        for module in (schemes, gamma):
            patches.append((module, "hash_to_scalar",
                            self._hash_wrapper(module.hash_to_scalar)))
        patches.append((schemes, "run_phase", self._run_phase_wrapper(schemes.run_phase)))
        wrapped = {}
        for attr in _SCHEMES_ENTRY_POINTS:
            orig = getattr(schemes, attr)
            wrapped[orig] = self._entry_wrapper(f"schemes.{attr}", orig)
            patches.append((schemes, attr, wrapped[orig]))
        for attr, value in vars(endorsement).items():
            if callable(value) and value in wrapped:
                patches.append((endorsement, attr, wrapped[value]))
        for attr in _GAMMA_ENTRY_POINTS:
            patches.append((gamma, attr,
                            self._entry_wrapper(f"gamma.{attr}", getattr(gamma, attr))))
        return patches

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        restore = []
        try:
            for owner, attr, wrapper in self._patches():
                own = attr in vars(owner)
                restore.append((owner, attr, own, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, own, orig in reversed(restore):
                if own:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    # ── analysis ────────────────────────────────────────────────────────────

    def _durations(self) -> tuple[list, list]:
        """Per-span duration and self time (duration minus child spans)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, covered)]

    def group_counts_by_op(self) -> dict:
        """{operation id: Counter of group span names}."""
        ids = {self._ids[n]: n for n in GROUP_SPANS if n in self._ids}
        out: dict = defaultdict(Counter)
        for name_id, op in zip(self.name, self.op):
            if name_id in ids:
                out[op][ids[name_id]] += 1
        return out

    def layer_metrics(self, n_ops: int, op_ns: int) -> dict:
        """Per-operation layer figures for ``n_ops`` traced operations
        whose timed regions took ``op_ns`` in total."""
        dur, self_ns = self._durations()
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        own_ns: Counter = Counter()
        for i, name_id in enumerate(self.name):
            name = self.names[name_id]
            calls[name] += 1
            total_ns[name] += dur[i]
            own_ns[name] += self_ns[i]

        # group work inside the online phase: under agms_online, or under an
        # announce/respond phase when endorsement drives the phases itself
        online_roots = {self._ids[n] for n in ("schemes.agms_online", *ONLINE_PHASES)
                        if n in self._ids}
        group_ids = {self._ids[n] for n in GROUP_SPANS if n in self._ids}
        in_online = [False] * len(dur)
        online_group_ops = 0
        for i, name_id in enumerate(self.name):
            p = self.parent[i]
            in_online[i] = name_id in online_roots or (p >= 0 and in_online[p])
            online_group_ops += in_online[i] and name_id in group_ids

        # critical path: per phase, sum over tree levels of the slowest handler
        handler_id = self._ids.get(HANDLER)
        slowest: dict = {}
        for i, name_id in enumerate(self.name):
            if name_id == handler_id:
                key = (self.parent[i], self.depth[i])
                slowest[key] = max(slowest.get(key, 0), dur[i])
        critical: Counter = Counter()
        for (phase_span, _depth), ns in slowest.items():
            critical[self.names[self.name[phase_span]]] += ns

        per_op = 1.0 / n_ops
        ms = 1e-6 * per_op
        phases = OFFLINE_PHASES + ONLINE_PHASES
        group_ns = sum(total_ns[n] for n in GROUP_SPANS)
        c = self.counters
        out = {}
        for n, short in zip(GROUP_SPANS, ("exp_g1", "exp_var", "decode", "mul")):
            out[f"group.{short}.calls"] = (calls[n] * per_op, "count")
            out[f"group.{short}.ms"] = (total_ns[n] * ms, "ms")
        out["group.share"] = (group_ns / op_ns, "ratio")
        out["hashing.calls"] = (calls["hashing"] * per_op, "count")
        out["hashing.ms"] = (total_ns["hashing"] * ms, "ms")
        out["hashing.bytes"] = (c["hashing.bytes"] * per_op, "bytes")
        out["tree.phases"] = (sum(calls[n] for n in phases) * per_op, "count")
        out["tree.self_ms"] = (sum(own_ns[n] for n in phases) * ms, "ms")
        out["tree.handler_ms"] = (own_ns[HANDLER] * ms, "ms")
        out["tree.messages"] = (c["tree.messages"] * per_op, "count")
        out["tree.payload_bytes"] = (c["tree.payload_bytes"] * per_op, "bytes")
        out["tree.critical_path_offline_ms"] = (
            sum(critical[n] for n in OFFLINE_PHASES) * ms, "ms")
        out["tree.critical_path_online_ms"] = (
            sum(critical[n] for n in ONLINE_PHASES) * ms, "ms")
        out["schemes.offline.self_ms"] = (own_ns["schemes.agms_offline"] * ms, "ms")
        out["schemes.online.self_ms"] = (own_ns["schemes.agms_online"] * ms, "ms")
        for fn in ("keygen", "key_verify"):
            out[f"schemes.{fn}.calls"] = (calls[f"schemes.{fn}"] * per_op, "count")
            out[f"schemes.{fn}.ms"] = (total_ns[f"schemes.{fn}"] * ms, "ms")
        out["schemes.attempts_per_sig"] = (
            c["schemes.signatures"] / c["schemes.attempts"] if c["schemes.attempts"]
            else 1.0, "ratio")
        out["schemes.online_group_ops"] = (online_group_ops * per_op, "count")
        for fn in _GAMMA_ENTRY_POINTS:
            out[f"gamma.{fn}.calls"] = (calls[f"gamma.{fn}"] * per_op, "count")
            out[f"gamma.{fn}.ms"] = (total_ns[f"gamma.{fn}"] * ms, "ms")
        return out

    def write_jsonl(self, path) -> None:
        """One span per line; ``id`` is the line index, ``parent`` an id or null."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                p = self.parent[i]
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": p if p >= 0 else None,
                    "op": self.op[i],
                    "depth": self.depth[i] if self.depth[i] >= 0 else None,
                }) + "\n")
