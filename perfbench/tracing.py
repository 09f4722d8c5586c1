"""Frame logging and per-layer spans, recorded from outside the package.

Two instruments, both installed by the benchmark and never by secureftl
itself:

* `Channel` wraps one party's channel endpoint. It logs every frame the
  party sends or receives with a wall-clock timestamp, which is all the
  untraced end-to-end metrics need (set-up end, iteration boundaries, wire
  bytes).
* `Tracer` replaces the public callables of each secureftl module with
  wrappers that record spans: name, start, end, parent, party, iteration
  and the thread CPU clock at both ends. It restores the originals on exit.

`layer_metrics` turns the spans into `<module>.<op>.<party>.<stat>` figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from secureftl.transport import HEADER, Frame, MsgType

PARTIES = ("source", "target")
CALLER = "caller"

# A recv that waits longer than this counts its unit as failed (timeout)
# instead of stalling the run for the transport's own two minutes.
RECV_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class FrameEvent:
    """One frame seen at one party: sends are stamped on entry, receives
    when the frame has arrived."""

    time: float
    party: str
    kind: str  # "send" or "recv"
    msg_type: int
    iteration: int
    nbytes: int  # header plus payload


class Channel:
    """Thin wrapper around a channel endpoint that logs each frame.

    `tamper`, if given, maps every received frame to the frame the party
    gets; the fault-injection test uses it to corrupt a plaintext blob after
    the transcript has recorded the original.
    """

    def __init__(self, inner, party: str, log: list, tracer: "Tracer | None" = None,
                 tamper=None):
        self._inner = inner
        self.party = party
        self._log = log
        self._tracer = tracer
        self._tamper = tamper

    @property
    def direction_out(self) -> str:
        return self._inner.direction_out

    @property
    def transcript(self):
        return self._inner.transcript

    def send(self, frame: Frame):
        event = FrameEvent(time.perf_counter(), self.party, "send", frame.msg_type,
                           frame.iteration, HEADER.size + len(frame.payload))
        span = self._tracer.begin("transport.send", self.party) if self._tracer else None
        try:
            self._inner.send(frame)
        finally:
            self._note(event, span)

    def recv(self, timeout: float = RECV_TIMEOUT_S) -> Frame:
        span = self._tracer.begin("transport.recv", self.party) if self._tracer else None
        frame = None
        try:
            frame = self._inner.recv(min(timeout, RECV_TIMEOUT_S))
        finally:
            event = None if frame is None else FrameEvent(
                time.perf_counter(), self.party, "recv", frame.msg_type, frame.iteration,
                HEADER.size + len(frame.payload))
            self._note(event, span)
        return self._tamper(frame) if self._tamper is not None else frame

    def _note(self, event: FrameEvent | None, span: "Span | None"):
        if event is not None:
            self._log.append(event)
        if span is not None:
            span.frame = event
            self._tracer.end(span)
            if event is not None:
                self._tracer.iteration[self.party] = event.iteration

    def close(self):
        self._inner.close()


def wrap_channels(channels, log: list, tracer: "Tracer | None" = None, tamper=None):
    """(source end, target end, transcript) with both ends wrapped."""
    source_end, target_end, transcript = channels
    return (Channel(source_end, "source", log, tracer, tamper),
            Channel(target_end, "target", log, tracer, tamper), transcript)


# ---------------------------------------------------------------------------
# spans

class Span:
    __slots__ = ("name", "party", "iteration", "start", "end", "cpu_start", "cpu_end",
                 "parent", "frame")

    def __init__(self, name, party, iteration, parent):
        self.name = name
        self.party = party
        self.iteration = iteration
        self.parent = parent
        self.start = self.end = 0.0
        self.cpu_start = self.cpu_end = 0.0
        self.frame: FrameEvent | None = None  # set on transport spans

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start

    def as_dict(self, index: dict) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "parent": None if self.parent is None else index[id(self.parent)],
               "party": self.party, "iteration": self.iteration,
               "cpu_start": self.cpu_start, "cpu_end": self.cpu_end}
        if self.frame is not None:
            out["msg_type"] = MsgType(self.frame.msg_type).name
            out["bytes"] = self.frame.nbytes
        return out


class Tracer:
    """Records spans around secureftl's public callables while installed.

    The party of a span is the innermost party method running on the
    thread (both parties are threads of one process); outside one it is the
    owner registered for the object the method runs on, else "caller".
    The iteration is that of the last frame the party sent or received.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: dict[str, int] = {}
        self._owners: dict[int, tuple[object, str]] = {}
        self._local = threading.local()

    def own(self, obj, party: str):
        """Attribute calls on obj made outside any party method to party."""
        # Holding obj keeps its id from being reused by another object.
        self._owners[id(obj)] = (obj, party)

    def _stacks(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.parties = [], []
        return local

    def begin(self, name: str, party: str | None = None, owner=None) -> Span:
        local = self._stacks()
        if party is None:
            if local.parties:
                party = local.parties[-1]
            else:
                party = self._owners.get(id(owner), (None, CALLER))[1]
        span = Span(name, party, self.iteration.get(party, 0),
                    local.spans[-1] if local.spans else None)
        local.spans.append(span)
        span.start = time.perf_counter()
        span.cpu_start = time.thread_time()
        return span

    def end(self, span: Span):
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter()
        self._local.spans.pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn, method: bool, party_root: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._stacks()
            party = args[0].role if party_root else None
            if party_root:
                local.parties.append(party)
            span = tracer.begin(name, party, args[0] if method and args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
                if party_root:
                    local.parties.pop()
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced callable; restore the originals on exit."""
        saved = []
        try:
            for path, attr, name, party_root in _TRACED:
                owner = _resolve(path)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    continue
                saved.append((owner, attr, raw))
                is_class = isinstance(owner, type)
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, False, party_root))
                else:
                    patched = self._wrap(name, raw, is_class, party_root)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def dump(self, path: str):
        """Write every span as one JSON object per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(index)) + "\n")


# (owner, attribute, span name, enters a party's context). Owners are
# dotted paths under secureftl; free functions are patched where their
# caller looks them up. A callable the package no longer has is skipped, and
# its figures read zero.
_TRACED = [
    ("protocol", "keygen", "paillier.keygen", False),
    ("paillier.PublicKey", "encrypt_residue", "paillier.encrypt", False),
    ("paillier.PrivateKey", "decrypt_residue", "paillier.decrypt", False),
    ("paillier.Ciphertext", "mul_int", "paillier.mul", False),
    ("paillier.Ciphertext", "__add__", "paillier.add", False),
    ("paillier.Ciphertext", "add_raw", "paillier.add", False),
    ("protocol", "serialize_ciphertext", "paillier.serialize", False),
    ("protocol", "deserialize_ciphertext", "paillier.deserialize", False),
    ("encoding", "encode", "encoding.encode", False),
    ("paillier", "encode", "encoding.encode", False),
    ("protocol", "encode", "encoding.encode", False),
    ("nets.Network", "forward_trace", "nets.forward_trace", False),
    ("nets.Network", "forward", "nets.forward", False),
    ("protocol.SourceParty", "__init__", "protocol.init", True),
    ("protocol.TargetParty", "__init__", "protocol.init", True),
    ("protocol._Party", "exchange_keys", "protocol.exchange_keys", True),
    ("protocol.SourceParty", "run_training", "protocol.run_training", True),
    ("protocol.TargetParty", "run_training", "protocol.run_training", True),
    ("protocol._Party", "request_labels", "protocol.request_labels", True),
    ("protocol._Party", "serve_labels", "protocol.serve_labels", True),
    ("protocol.SourceParty", "compute_components", "protocol.compute_components", False),
    ("protocol.TargetParty", "compute_components", "protocol.compute_components", False),
    ("protocol.ComponentBatch", "to_payload", "protocol.to_payload", False),
    ("protocol.ComponentBatch", "from_payload", "protocol.from_payload", False),
    ("protocol.SourceParty", "assemble_gradient", "protocol.assemble_gradient", False),
    ("protocol.TargetParty", "assemble_gradient", "protocol.assemble_gradient", False),
    ("protocol", "encrypted_backward", "protocol.backward", False),
    ("protocol.SourceParty", "assemble_loss", "protocol.assemble_loss", False),
    ("experiments", "train_encrypted", "experiments.train_encrypted", False),
    ("experiments", "predict_encrypted", "experiments.predict_encrypted", False),
    ("cli", "run_experiment", "experiments.run_experiment", False),
]


def _resolve(path: str):
    module, _, rest = path.partition(".")
    owner = importlib.import_module(f"secureftl.{module}")
    for part in filter(None, rest.split(".")):
        owner = getattr(owner, part, None)
    return owner


# Spans that only give a party its context; CPU directly inside them falls
# under no named span and is reported as unattributed.
_ROOTS = ("protocol.init", "protocol.exchange_keys", "protocol.run_training")


# ---------------------------------------------------------------------------
# per-layer metrics

_MASKED_SENDS = (MsgType.MASKED_GRAD_A, MsgType.MASKED_GRAD_B, MsgType.ENC_LOSS,
                 MsgType.PREDICT_MASKED)


def _phase(prev: FrameEvent, nxt: FrameEvent) -> str | None:
    """Name the protocol phase a party runs between two of its frames."""
    if nxt.kind == "send" and nxt.msg_type in _MASKED_SENDS:
        return "protocol.mask"
    if nxt.kind == "send" and nxt.msg_type == MsgType.DECRYPTED_BLOB:
        return "protocol.decrypt"
    if prev.kind == "recv" and prev.msg_type == MsgType.DECRYPTED_BLOB:
        return "protocol.unmask"
    return None


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(id(span.parent), []).append(span)
    return out


def add_phases(spans: list[Span]) -> list[Span]:
    """Add mask/decrypt/unmask spans between the frames that bracket them.

    A phase covers the gap between two consecutive frames of one party
    method and adopts the spans that ran inside that gap.
    """
    children = _children(spans)
    phases = []
    for root in spans:
        kids = sorted(children.get(id(root), ()), key=lambda s: s.start)
        wire = [s for s in kids if s.frame is not None]
        for prev, nxt in zip(wire, wire[1:]):
            name = _phase(prev.frame, nxt.frame)
            if name is None:
                continue
            phase = Span(name, root.party, prev.frame.iteration, root)
            phase.start, phase.end = prev.end, nxt.start
            phase.cpu_start, phase.cpu_end = prev.cpu_end, nxt.cpu_start
            for kid in kids:
                if prev.end <= kid.start and kid.end <= nxt.start:
                    kid.parent = phase
            phases.append(phase)
    return spans + phases


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    full = ("count", "cpu_s", "wait_s")
    names = []
    for op in ("keygen", "encrypt", "decrypt", "mul", "add", "serialize", "deserialize"):
        names += [f"paillier.{op}.{p}.{s}" for p in PARTIES for s in ("count", "cpu_s")]
    names += [f"paillier.{op}.all.us_per_op" for op in ("encrypt", "decrypt", "mul", "add")]
    names += [f"encoding.encode.{p}.{s}" for p in PARTIES for s in ("count", "cpu_s")]
    for op in ("forward_trace", "forward"):
        names += [f"nets.{op}.{p}.{s}" for p in PARTIES for s in full]
    for op in ("compute_components", "to_payload", "from_payload", "assemble_gradient",
               "backward", "mask", "decrypt", "unmask"):
        names += [f"protocol.{op}.{p}.{s}" for p in PARTIES for s in full]
    names += [f"protocol.assemble_loss.source.{s}" for s in full]
    names += [f"protocol.request_labels.target.{s}" for s in full]
    names += [f"protocol.serve_labels.source.{s}" for s in full]
    names += [f"transport.send.{p}.{s}" for p in PARTIES
              for s in ("count", "bytes", "cpu_s", "wait_s")]
    names += [f"transport.recv.{p}.{s}" for p in PARTIES for s in ("cpu_s", "wait_s")]
    names += ["transport.transcript.all.bytes",
              "experiments.train_encrypted.caller.count",
              "experiments.predict_encrypted.caller.count"]
    names += [f"trace.unattributed.{p}.cpu_s" for p in PARTIES]
    names += ["trace.overhead"]
    return names


def layer_metrics(spans: list[Span], units: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-unit figures for every per-layer name, plus each party's CPU.

    spans must already hold the phases from add_phases. cpu_s is the thread
    CPU inside a span less the CPU of its children in the same layer and in
    the transport layer, so nested calls are not counted twice and time
    blocked on the peer shows only under transport.recv; wait_s is the
    matching wall time less cpu_s. A phase never blocks, and its wait_s can
    read a few microseconds below zero: its CPU interval runs from the end of
    one frame's span to the start of the next, a clock read wider than its
    wall interval. trace.unattributed is CPU directly inside a party's
    context spans (construction, key exchange, the training loop) that falls
    under no named span. The second dict is each party's total CPU per unit,
    the base for judging the unattributed share.
    """
    totals: dict[str, float] = {}

    def bump(key, value):
        totals[key] = totals.get(key, 0.0) + value

    children = _children(spans)
    party_cpu = dict.fromkeys(PARTIES, 0.0)
    for span in spans:
        kids = children.get(id(span), ())
        if span.party in party_cpu and (span.parent is None
                                        or span.parent.party != span.party):
            party_cpu[span.party] += span.cpu
        if span.name in _ROOTS:
            bump(f"trace.unattributed.{span.party}.cpu_s", span.cpu - sum(k.cpu for k in kids))
            continue
        nested = [k for k in kids if k.layer in (span.layer, "transport")]
        cpu = span.cpu - sum(k.cpu for k in nested)
        wall = span.wall - sum(k.wall for k in nested)
        key = f"{span.name}.{span.party}"
        bump(f"{key}.count", 1)
        bump(f"{key}.cpu_s", cpu)
        bump(f"{key}.wait_s", wall - cpu)
        if span.frame is not None and span.frame.kind == "send":
            bump(f"{key}.bytes", span.frame.nbytes)
    out = {name: totals.get(name, 0.0) / units for name in per_layer_names()}
    for op in ("encrypt", "decrypt", "mul", "add"):
        count = sum(totals.get(f"paillier.{op}.{p}.count", 0) for p in PARTIES)
        cpu = sum(totals.get(f"paillier.{op}.{p}.cpu_s", 0.0) for p in PARTIES)
        out[f"paillier.{op}.all.us_per_op"] = 1e6 * cpu / count if count else 0.0
    return out, {p: cpu / units for p, cpu in party_cpu.items()}
