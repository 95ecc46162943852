"""Pluggable network models for the event-driven simulator.

The v1 simulator hard-wired one communication model: sender-serialized
NICs with a fixed per-message wire time.  This module turns that model
into one of several :class:`NetworkModel` plugins:

* ``"nic"`` — :class:`NicModel`, the legacy model, kept **bit-for-bit**
  identical to the v1 arithmetic (the golden-trace tests pin this);
* ``"contention"`` — :class:`ContentionModel`, a contention-aware model
  with receive-side serialization, per-message eager/rendezvous α–β
  latency, and fair bandwidth sharing on a configurable bisection link.

A model instance is *bound* to one simulation run (:meth:`bind`), gets
messages via :meth:`send`/:meth:`multicast`, schedules its internal
events through the simulator's shared event heap, and reports
structured observability (:class:`NetworkStats`: per-node bytes and
messages sent/received, NIC/link busy time) at the end of the run.

Contention model semantics
--------------------------
Every message is a *flow* of ``tile_bytes`` bytes from ``src`` to
``dst``:

1. **Injection serialization** — a node's NIC transmits one outgoing
   flow at a time; queued messages leave in FIFO order.  The head of
   the queue also waits for the destination NIC (head-of-line
   blocking), which is the receive-side serialization the v1 model only
   approximates with ``rx_serialization``.
2. **Protocol latency** — an *eager* message (``bytes ≤
   eager_threshold``) pays one ``latency_s`` before data flows; a
   *rendezvous* message pays ``(1 + handshake_rtts) · latency_s``
   (request + acknowledgement round trips of the large-message MPI
   protocol).  Both NICs are held during the handshake.
3. **Fair bandwidth sharing** — active flows cross a shared bisection
   link of capacity ``bisection_Bps`` (default ``bandwidth_Bps ·
   max(1, P/2)``, i.e. a full-bisection fabric).  With ``n`` concurrent
   flows each progresses at ``min(bandwidth_Bps, bisection_Bps / n)``
   — progressive filling, re-evaluated at every flow start/finish.

Because each endpoint carries at most one flow in each direction, the
equal split is exactly the max-min fair allocation.  Every per-message
delay is ≥ the legacy model's ``latency + bytes/bandwidth``, which is
why contention-model makespans dominate ``nic`` makespans on the same
graph (asserted by the property tests).

The model is deterministic: flows are started by scanning sender queues
in ascending node id, and all events carry the simulator's global
sequence number.

Event economy
-------------
The fair-share state changes only when a flow's data stage begins
(``"data"`` event) or a flow finishes (``"fin"`` event), and both
handlers re-apportion the rates.  So at most one finish event is *live*
at any time: the earliest one computed by the last re-apportioning.
:meth:`ContentionModel._reschedule` pushes just that one, and the next
re-apportioning invalidates it by bumping every active flow's version.
A re-apportioning is one pass over the active flows — drain bytes at
the old rates, set the new share of each flow's link (from per-link
flow counts kept as flows join and leave), pick the earliest finish.
Starting flows is incremental too (:meth:`ContentionModel._pump`): a
send re-examines only its own sender and a finish only the freed sender
and the senders blocked on the freed receiver.  Both keep the simulated
schedule, and every record, identical to pushing one finish per active
flow and scanning all ``P`` senders on every event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .cluster import ClusterSpec
from .graph import DataRef
from .trace import MsgRecord

#: A message handle: a plan uid in the simulator, a ``(data, version)``
#: tuple in the fault engine and the resize replay.
MsgRef = Union[int, DataRef]

__all__ = [
    "EVENT_TASK_DONE",
    "EVENT_MSG_ARRIVE",
    "EVENT_NET_INTERNAL",
    "EVENT_FAULT",
    "NetworkStats",
    "NetworkModel",
    "NicModel",
    "ContentionModel",
    "HierarchicalModel",
    "ResilientNetwork",
    "NETWORK_MODELS",
    "make_network",
]

#: Event type codes shared with the simulator's heap.
EVENT_TASK_DONE = 0
EVENT_MSG_ARRIVE = 1
EVENT_NET_INTERNAL = 2
EVENT_FAULT = 3


@dataclass
class NetworkStats:
    """Structured communication observability for one simulated run."""

    model: str
    msgs_sent: np.ndarray       #: per-node messages sent
    msgs_recv: np.ndarray       #: per-node messages received
    bytes_sent: np.ndarray      #: per-node bytes sent
    bytes_recv: np.ndarray      #: per-node bytes received
    tx_busy: np.ndarray         #: per-node seconds the sending NIC was occupied
    rx_busy: np.ndarray         #: per-node seconds the receiving NIC was occupied
    link_busy: float = 0.0      #: seconds the shared bisection link carried ≥1 flow
    link_bytes: float = 0.0     #: total bytes that crossed the bisection link
    n_eager: int = 0            #: messages below the eager threshold
    n_rendezvous: int = 0       #: messages using the rendezvous protocol
    bisection_Bps: float = 0.0  #: resolved bisection capacity (contention family)
    ranks_per_node: int = 1     #: topology of the run (1 = flat)
    intra_bytes: float = 0.0    #: bytes that stayed inside a physical node
    inter_bytes: float = 0.0    #: bytes that crossed node boundaries
    intra_msgs: int = 0         #: messages between ranks on the same node
    inter_msgs: int = 0         #: messages between ranks on different nodes
    intra_link_busy: float = 0.0  #: node-seconds any intra-node link carried ≥1 flow

    def busy_fractions(self, makespan: float) -> dict:
        """Link/NIC busy- and idle-time breakdown as fractions of the run."""
        span = makespan if makespan > 0 else 1.0
        return {
            "tx_busy": self.tx_busy / span,
            "rx_busy": self.rx_busy / span,
            "link_busy": self.link_busy / span,
            "link_idle": max(0.0, 1.0 - self.link_busy / span),
        }


class NetworkModel:
    """Base class: counters, recording, and the p2p multicast fallback.

    Subclasses implement :meth:`send` (and may override
    :meth:`multicast` and :meth:`on_internal`).  The simulator calls
    :meth:`bind` once per run with a ``push_event(time, etype,
    payload)`` callback that allocates the shared sequence number.
    """

    name = "base"

    def bind(self, cluster: ClusterSpec,
             push_event: Callable[[float, int, object], None],
             record: bool = False, writer=None, names=None) -> None:
        """Attach the model to one run.

        ``record=True`` accumulates :class:`MsgRecord` lists in memory
        (the legacy behavior); passing a
        :class:`~repro.runtime.trace.TraceWriter` as ``writer`` streams
        each record out instead and leaves ``msg_records`` ``None`` —
        bounded-memory recording for large runs.

        Message refs are opaque to the model.  ``names[ref]`` is the
        ``(data, version)`` a record carries for ``ref`` (the simulator
        passes plan uids); without ``names`` each ref is that tuple.
        """
        self.cluster = cluster
        self._push = push_event
        P = cluster.nnodes
        self.n_messages = 0
        self.msgs_sent = np.zeros(P, dtype=np.int64)
        self.msgs_recv = np.zeros(P, dtype=np.int64)
        self.bytes_sent = np.zeros(P)
        self.bytes_recv = np.zeros(P)
        self.tx_busy = np.zeros(P)
        self.rx_busy = np.zeros(P)
        self.msg_records: Optional[List[MsgRecord]] = \
            [] if record and writer is None else None
        # one call per recorded message, or None when nothing records
        self._sink = (writer.write_msg if writer is not None
                      else None if self.msg_records is None
                      else self.msg_records.append)
        self._names = names
        self._bind()

    def _bind(self) -> None:  # pragma: no cover - overridden
        pass

    # ------------------------------------------------------------------
    def send(self, ref: MsgRef, src: int, dst: int, t: float) -> None:
        raise NotImplementedError

    def multicast(self, src: int, dests, t: float) -> None:
        """Push one produced version to several consumers (p2p default)."""
        for ref, dst in dests:
            self.send(ref, src, dst, t)

    def on_internal(self, payload, now: float) -> List[Tuple[MsgRef, int]]:
        """Handle a model-internal event; return completed arrivals."""
        return []

    # ------------------------------------------------------------------
    def _record(self, ref: MsgRef, src: int, dst: int,
                start: float, end: float, nbytes: float) -> None:
        if self._sink is not None:
            data, version = ref if self._names is None else self._names[ref]
            self._sink(MsgRecord(data=data, version=version, src=src,
                                 dst=dst, start=start, end=end, nbytes=nbytes))

    def stats(self) -> NetworkStats:
        return NetworkStats(
            model=self.name,
            msgs_sent=self.msgs_sent,
            msgs_recv=self.msgs_recv,
            bytes_sent=self.bytes_sent,
            bytes_recv=self.bytes_recv,
            tx_busy=self.tx_busy,
            rx_busy=self.rx_busy,
        )


class NicModel(NetworkModel):
    """The legacy v1 model: sender-serialized NICs, fixed wire time.

    The arithmetic (and its operation order) is copied verbatim from
    the v1 simulator so that ``nic`` traces are bit-for-bit identical
    to pre-v2 output — the golden-trace regression tests enforce this.
    ``rx_serialization`` and the idealized binomial ``tree`` multicast
    keep their v1 meaning.
    """

    name = "nic"

    def _bind(self) -> None:
        # hot-path state lives in plain Python lists and cached scalars:
        # the per-send arithmetic below runs a couple of hundred
        # thousand times per large simulation, and scalar indexing of
        # NumPy arrays is several times slower than list indexing.  The
        # float arithmetic is IEEE-identical either way (Python floats
        # are float64), so traces do not change; :meth:`stats` converts
        # back to arrays.
        P = self.cluster.nnodes
        self.msg_time = self.cluster.message_time()
        self._nbytes = self.cluster.tile_bytes
        self._rx_ser = self.cluster.rx_serialization
        self.tx_free = [0.0] * P
        self.rx_free = [0.0] * P
        self.msgs_sent = [0] * P
        self.msgs_recv = [0] * P
        self.bytes_sent = [0.0] * P
        self.bytes_recv = [0.0] * P
        self.tx_busy = [0.0] * P
        self.rx_busy = [0.0] * P

    def send(self, ref: MsgRef, src: int, dst: int, t: float) -> None:
        mt = self.msg_time
        start = max(t, self.tx_free[src])
        if self._rx_ser:
            wire_start = max(start, self.rx_free[dst])
        else:
            wire_start = start
        arrival = wire_start + mt
        self.tx_free[src] = start + mt
        self.rx_free[dst] = arrival
        nbytes = self._nbytes
        self.n_messages += 1
        self.msgs_sent[src] += 1
        self.msgs_recv[dst] += 1
        self.bytes_sent[src] += nbytes
        self.bytes_recv[dst] += nbytes
        self.tx_busy[src] += mt
        self.rx_busy[dst] += mt
        if self._sink is not None:
            self._record(ref, src, dst, start, arrival, nbytes)
        self._push(arrival, EVENT_MSG_ARRIVE, (ref, dst))

    def multicast(self, src: int, dests, t: float) -> None:
        if self.cluster.multicast == "tree" and len(dests) > 1:
            self._multicast_tree(src, dests, t)
        else:
            for ref, dst in dests:
                self.send(ref, src, dst, t)

    def _multicast_tree(self, src: int, dests, t: float) -> None:
        """Idealized binomial-tree broadcast: the set of holders doubles
        every message round, so destination ``i`` receives after
        ``ceil(log2(i+2))`` rounds.  The root's NIC is charged for its
        own first send; forwarding is done by earlier receivers (not
        charged — this is the *best case* collectives could achieve,
        used by the ablation benchmarks)."""
        start = max(t, self.tx_free[src])
        self.tx_free[src] = start + self.msg_time
        self.tx_busy[src] += self.msg_time
        nbytes = self._nbytes
        for i, (ref, dst) in enumerate(dests):
            rounds = (i + 1).bit_length()  # == ceil(log2(i + 2))
            arrival = start + rounds * self.msg_time
            self.rx_free[dst] = max(self.rx_free[dst], arrival)
            self.n_messages += 1
            self.msgs_sent[src] += 1
            self.msgs_recv[dst] += 1
            self.bytes_sent[src] += nbytes
            self.bytes_recv[dst] += nbytes
            self.rx_busy[dst] += self.msg_time
            self._record(ref, src, dst, float(start), float(arrival), nbytes)
            self._push(arrival, EVENT_MSG_ARRIVE, (ref, dst))

    def stats(self) -> NetworkStats:
        return NetworkStats(
            model=self.name,
            msgs_sent=np.asarray(self.msgs_sent, dtype=np.int64),
            msgs_recv=np.asarray(self.msgs_recv, dtype=np.int64),
            bytes_sent=np.asarray(self.bytes_sent, dtype=np.float64),
            bytes_recv=np.asarray(self.bytes_recv, dtype=np.float64),
            tx_busy=np.asarray(self.tx_busy, dtype=np.float64),
            rx_busy=np.asarray(self.rx_busy, dtype=np.float64),
        )


#: link key of the shared bisection link; an intra-node link is keyed
#: by its machine id
_BISECTION = -1


class _Flow:
    """One in-flight transfer of the contention model, crossing ``link``."""

    __slots__ = ("ref", "src", "dst", "nbytes", "t0", "remaining", "rate",
                 "version", "link")

    def __init__(self, ref: MsgRef, src: int, dst: int, nbytes: float, t0: float):
        self.ref = ref
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.t0 = t0
        self.remaining = nbytes
        self.rate = 0.0
        self.version = 0
        self.link = _BISECTION


class ContentionModel(NetworkModel):
    """Contention-aware model (see module docstring for semantics).

    Parameters
    ----------
    bisection_Bps:
        Capacity of the shared bisection link.  ``None`` = full
        bisection: ``bandwidth_Bps * max(1, nnodes / 2)``.
    eager_threshold:
        Messages of at most this many bytes use the eager protocol
        (one latency); larger messages pay the rendezvous handshake.
    handshake_rtts:
        Extra latency round trips of the rendezvous protocol.
    """

    name = "contention"

    def __init__(self, bisection_Bps: Optional[float] = None,
                 eager_threshold: float = 65536.0,
                 handshake_rtts: int = 2):
        if bisection_Bps is not None and bisection_Bps <= 0:
            raise ValueError("bisection_Bps must be positive")
        if handshake_rtts < 0:
            raise ValueError("handshake_rtts must be >= 0")
        self.bisection_Bps = bisection_Bps
        self.eager_threshold = float(eager_threshold)
        self.handshake_rtts = int(handshake_rtts)

    def _bind(self) -> None:
        cl = self.cluster
        P = cl.nnodes
        self.node_bw = float(cl.bandwidth_Bps)
        # explicit model argument wins, then the cluster's own
        # bisection_Bps (which survives ClusterSpec.with_nodes
        # resizing), then the full-bisection default
        explicit = (self.bisection_Bps if self.bisection_Bps is not None
                    else cl.bisection_Bps)
        self.link_bw = (float(explicit) if explicit
                        else self.node_bw * max(1.0, P / 2.0))
        self.alpha = float(cl.latency_s)
        self._queues: List[deque] = [deque() for _ in range(P)]
        self._tx_held = [False] * P
        self._rx_held = [False] * P
        # _blocked[dst]: senders with an idle NIC whose queue head waits
        # for receiver ``dst`` (see _pump)
        self._blocked: List[List[int]] = [[] for _ in range(P)]
        self._active: List[_Flow] = []  # in data-stage start order
        self._link_flows: Dict[int, int] = {}  # link -> active flows on it
        self._last_t = 0.0
        self.link_busy = 0.0
        self.link_bytes = 0.0
        self.n_eager = 0
        self.n_rendezvous = 0

    # ------------------------------------------------------------------
    def send(self, ref: MsgRef, src: int, dst: int, t: float) -> None:
        queue = self._queues[src]
        queue.append((ref, dst))
        if len(queue) == 1 and not self._tx_held[src]:
            self._pump((src,), t)

    def _pump(self, senders, now: float) -> None:
        """Start the queue heads of ``senders`` whose endpoint NICs are idle.

        ``senders`` is scanned in the order given, which callers keep
        ascending in node id.  Invariant between events: no sender can
        start a flow — each has a held NIC, an empty queue, or a queue
        head whose receiver is held, and in the last case it is listed
        in ``_blocked[receiver]``.  Starting a flow only holds NICs, so
        a send can enable only its own sender (and only when its queue
        was empty and its NIC idle), and a finish only the freed sender
        and ``_blocked[freed receiver]``.  Scanning just those, in
        ascending id, starts exactly the flows a scan over all ``P``
        senders would, in the same order.
        """
        queues, rx_held = self._queues, self._rx_held
        for src in senders:
            queue = queues[src]
            if not queue:
                continue
            ref, dst = queue[0]
            if rx_held[dst]:
                # head-of-line blocking on the busy receiver
                self._blocked[dst].append(src)
                continue
            queue.popleft()
            self._start_flow(ref, src, dst, now)

    def _start_flow(self, ref: MsgRef, src: int, dst: int, now: float) -> None:
        nbytes = float(self.cluster.tile_bytes)
        flow = _Flow(ref, src, dst, nbytes, now)
        alpha = self._classify(flow)
        eager = nbytes <= self.eager_threshold
        lat = alpha if eager else alpha * (1 + self.handshake_rtts)
        if eager:
            self.n_eager += 1
        else:
            self.n_rendezvous += 1
        self._tx_held[src] = True
        self._rx_held[dst] = True
        self.n_messages += 1
        self.msgs_sent[src] += 1
        self.bytes_sent[src] += nbytes
        self._push(now + lat, EVENT_NET_INTERNAL, ("data", flow))

    def _classify(self, flow: _Flow) -> float:
        """Account ``flow``'s traffic by link; return its latency α."""
        self.link_bytes += flow.nbytes
        return self.alpha

    # ------------------------------------------------------------------
    def _advance(self, now: float) -> float:
        """Account link busy time up to ``now``; return the elapsed time."""
        dt = now - self._last_t
        if dt > 0.0 and self._active:
            self.link_busy += dt
        self._last_t = max(self._last_t, now)
        return dt

    def _link_rates(self) -> Dict[int, float]:
        """Fair share of each busy link: ``link -> per-flow rate``."""
        return {_BISECTION: min(self.node_bw, self.link_bw / len(self._active))}

    def _reschedule(self, now: float, dt: float) -> None:
        """Drain ``dt`` seconds of the active flows at their old rates,
        re-apportion the fair shares and push the next finish event.

        Every ``"data"`` and ``"fin"`` handler re-apportions the rates,
        so of the finishes computed here only the earliest can fire
        before the next re-apportioning supersedes them all: the version
        bump invalidates the pending one, and only the earliest new one
        is pushed.  Pushing one finish per active flow would only add
        stale events, popped and dropped one by one.  The earliest is the
        first minimum of ``now + remaining / rate`` in ``_active`` order
        (strict ``<``): the one that would have been pushed first among
        the tied, and so popped first.  The pushes that remain keep their
        relative order, so heap tie-breaks do not change.
        """
        if not self._active:
            return
        rates = self._link_rates()
        drain = dt > 0.0
        first = None
        t_first = 0.0
        for flow in self._active:
            if drain:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
            rate = flow.rate = rates[flow.link]
            flow.version += 1
            t = now + flow.remaining / rate
            if first is None or t < t_first:
                first, t_first = flow, t
        self._push(t_first, EVENT_NET_INTERNAL, ("fin", first, first.version))

    def on_internal(self, payload, now: float) -> List[Tuple[MsgRef, int]]:
        flow = payload[1]
        links = self._link_flows
        if payload[0] == "data":
            dt = self._advance(now)
            self._active.append(flow)
            links[flow.link] = links.get(flow.link, 0) + 1
            self._reschedule(now, dt)
            return []
        # ("fin", flow, version) — superseded versions are discarded
        if flow.version != payload[2]:
            return []
        dt = self._advance(now)
        self._active.remove(flow)
        left = links[flow.link] - 1
        if left:
            links[flow.link] = left
        else:
            del links[flow.link]
        src, dst = flow.src, flow.dst
        self._tx_held[src] = False
        self._rx_held[dst] = False
        busy = now - flow.t0
        self.tx_busy[src] += busy
        self.rx_busy[dst] += busy
        self.msgs_recv[dst] += 1
        self.bytes_recv[dst] += flow.nbytes
        self._record(flow.ref, src, dst, flow.t0, now, flow.nbytes)
        self._reschedule(now, dt)
        blocked = self._blocked[dst]
        if blocked:
            self._blocked[dst] = []
            blocked.append(src)
            self._pump(sorted(blocked), now)
        else:
            self._pump((src,), now)
        return [(flow.ref, dst)]

    def stats(self) -> NetworkStats:
        out = super().stats()
        out.link_busy = self.link_busy
        out.link_bytes = self.link_bytes
        out.n_eager = self.n_eager
        out.n_rendezvous = self.n_rendezvous
        out.bisection_Bps = self.link_bw
        return out


class HierarchicalModel(ContentionModel):
    """Two-level contention model: intra-node and inter-node links.

    Extends :class:`ContentionModel` with the cluster's
    :class:`~repro.runtime.topology.Topology`
    (``ClusterSpec.ranks_per_node``): a flow between ranks on the same
    physical node crosses that node's private intra-node link (NUMA /
    NVLink class — ``intra_bandwidth_scale`` × the NIC bandwidth,
    ``intra_latency_scale`` × the NIC latency, per-level α–β), while a
    flow between ranks on different nodes crosses the global bisection
    link exactly as in the parent model.  Fair sharing is per link:
    ``n`` concurrent inter-node flows each get ``bisection / n``; ``n``
    concurrent intra-node flows *on the same node* each get
    ``intra_bandwidth / n``; the two levels never steal bandwidth from
    each other.

    Injection/receive serialization, eager/rendezvous protocol choice,
    the deterministic pump order and the one live finish event are
    inherited unchanged.  With ``ranks_per_node == 1`` every flow is
    inter-node and the model's event arithmetic reduces to the
    parent's — traces match ``"contention"`` exactly apart from the
    recorded model name (pinned by the hierarchical test suite).

    Per-level traffic (``intra_bytes``/``inter_bytes``, message counts,
    ``intra_link_busy`` in node-seconds) is surfaced in
    :class:`NetworkStats`.
    """

    name = "hierarchical"

    def __init__(self, bisection_Bps: Optional[float] = None,
                 eager_threshold: float = 65536.0,
                 handshake_rtts: int = 2,
                 intra_bandwidth_scale: float = 4.0,
                 intra_latency_scale: float = 0.2):
        super().__init__(bisection_Bps=bisection_Bps,
                         eager_threshold=eager_threshold,
                         handshake_rtts=handshake_rtts)
        if intra_bandwidth_scale <= 0:
            raise ValueError("intra_bandwidth_scale must be positive")
        if intra_latency_scale < 0:
            raise ValueError("intra_latency_scale must be >= 0")
        self.intra_bandwidth_scale = float(intra_bandwidth_scale)
        self.intra_latency_scale = float(intra_latency_scale)

    def _bind(self) -> None:
        super()._bind()
        cl = self.cluster
        self.topology = cl.topology()
        self._rank_nodes = self.topology.rank_nodes.tolist()
        # the default bisection of a hierarchical fabric scales with the
        # number of *machines*, not ranks
        explicit = (self.bisection_Bps if self.bisection_Bps is not None
                    else cl.bisection_Bps)
        self.link_bw = (float(explicit) if explicit
                        else self.node_bw * max(1.0, self.topology.nnodes / 2.0))
        self.intra_link_bw = self.node_bw * self.intra_bandwidth_scale
        self.intra_alpha = self.alpha * self.intra_latency_scale
        self.intra_bytes = 0.0
        self.inter_bytes = 0.0
        self.intra_msgs = 0
        self.inter_msgs = 0
        self.intra_link_busy = 0.0

    # ------------------------------------------------------------------
    def _classify(self, flow: _Flow) -> float:
        node = self._rank_nodes[flow.src]
        if node != self._rank_nodes[flow.dst]:
            self.inter_msgs += 1
            self.inter_bytes += flow.nbytes
            self.link_bytes += flow.nbytes
            return self.alpha
        flow.link = node
        self.intra_msgs += 1
        self.intra_bytes += flow.nbytes
        return self.intra_alpha

    def _advance(self, now: float) -> float:
        dt = now - self._last_t
        if dt > 0.0 and self._active:
            busy_nodes = len(self._link_flows)
            if _BISECTION in self._link_flows:
                self.link_busy += dt
                busy_nodes -= 1
            self.intra_link_busy += dt * busy_nodes
        self._last_t = max(self._last_t, now)
        return dt

    def _link_rates(self) -> Dict[int, float]:
        return {link: (min(self.node_bw, self.link_bw / n) if link == _BISECTION
                       else self.intra_link_bw / n)
                for link, n in self._link_flows.items()}

    def stats(self) -> NetworkStats:
        out = super().stats()
        out.ranks_per_node = self.topology.ranks_per_node
        out.intra_bytes = self.intra_bytes
        out.inter_bytes = self.inter_bytes
        out.intra_msgs = self.intra_msgs
        out.inter_msgs = self.inter_msgs
        out.intra_link_busy = self.intra_link_busy
        return out


class ResilientNetwork(NetworkModel):
    """Fault-plan decorator around a concrete network model.

    Wraps any :class:`NetworkModel` and intercepts *deliveries* (not
    sends): the inner model keeps its exact timing arithmetic, and the
    wrapper decides at arrival time whether the message was lost to the
    plan's loss probability (seeded PCG64, one draw per delivery) or
    stretched by an active link-degradation window.

    Retry protocol: a lost delivery schedules a retransmission of the
    same ``(ref, dst)`` after ``retry_timeout_s · backoff^attempt``
    (attempt counted per message); after ``max_retries`` lost attempts
    the delivery succeeds unconditionally — the transport's last-resort
    acknowledged path — so every run terminates.  Each loss initiates
    exactly one retransmission, hence ``retries == msgs_lost``.
    Retransmissions re-enter the inner model through :meth:`send`, so
    they pay NIC serialization and contention like any other message;
    a retransmission whose source has since failed is satisfied from
    stable storage (:meth:`storage_fetch`) instead.

    With the wrapper in place, multicast always degrades to point-to-
    point sends (a binomial ``tree`` schedule cannot be retried per
    destination), matching the p2p default of both concrete models.

    The simulator must filter every ``EVENT_MSG_ARRIVE`` through
    :meth:`arrived` (and internal events through :meth:`on_internal`,
    which applies the same filter to the contention model's completed
    flows).  Only :func:`repro.runtime.faults.simulate_with_faults`
    does this; the fast path never instantiates the wrapper.
    """

    def __init__(self, inner: NetworkModel, plan) -> None:
        self.inner = inner
        self.plan = plan

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def n_messages(self) -> int:  # type: ignore[override]
        return self.inner.n_messages

    @property
    def msg_records(self):  # type: ignore[override]
        return self.inner.msg_records

    def bind(self, cluster: ClusterSpec,
             push_event: Callable[[float, int, object], None],
             record: bool = False, writer=None, names=None) -> None:
        from .faults import FaultEvent  # late: faults imports this module
        self._FaultEvent = FaultEvent
        self.cluster = cluster
        self._push = push_event
        self.inner.bind(cluster, push_event, record=record, writer=writer,
                        names=names)
        plan = self.plan
        self._rng = np.random.Generator(np.random.PCG64(plan.seed))
        self._timeout = (plan.retry_timeout_s if plan.retry_timeout_s is not None
                         else 4.0 * cluster.message_time())
        self._attempts: dict = {}
        self._src: dict = {}
        self._dead: set = set()
        self.msgs_lost = 0
        self.retries = 0
        self.msgs_degraded = 0
        self.fault_events: list = []

    def mark_dead(self, node: int) -> None:
        self._dead.add(node)

    # ------------------------------------------------------------------
    def send(self, ref: DataRef, src: int, dst: int, t: float) -> None:
        self._src[(ref, dst)] = src
        self.inner.send(ref, src, dst, t)

    def multicast(self, src: int, dests, t: float) -> None:
        for ref, dst in dests:
            self.send(ref, src, dst, t)

    def storage_fetch(self, ref: DataRef, dst: int, t: float) -> None:
        """Reliable re-fetch from stable storage (one message time)."""
        self._push(t + self.cluster.message_time(), EVENT_NET_INTERNAL,
                   ("_flt", "deliver", ref, dst))

    # ------------------------------------------------------------------
    def arrived(self, ref: DataRef, dst: int, t: float) -> bool:
        """Loss/degradation filter applied to every delivery.

        Returns ``True`` if the message really arrives at ``t``; a
        ``False`` means the wrapper has scheduled a later retry or a
        stretched delivery on the shared event heap.
        """
        plan = self.plan
        key = (ref, dst)
        if plan.msg_loss_prob > 0.0:
            attempt = self._attempts.get(key, 0)
            if attempt < plan.max_retries and self._rng.random() < plan.msg_loss_prob:
                self._attempts[key] = attempt + 1
                self.msgs_lost += 1
                self.retries += 1  # the retransmission initiated below
                delay = self._timeout * plan.retry_backoff ** attempt
                self._push(t + delay, EVENT_NET_INTERNAL,
                           ("_flt", "retry", ref, dst))
                self.fault_events.append(self._FaultEvent(
                    t, "loss", dst,
                    f"d{ref[0]}v{ref[1]} attempt {attempt + 1}"))
                return False
            self._attempts.pop(key, None)
        factor = plan.degradation_factor(t)
        if factor < 1.0:
            extra = (self.cluster.tile_bytes / self.cluster.bandwidth_Bps
                     ) * (1.0 / factor - 1.0)
            self.msgs_degraded += 1
            self._push(t + extra, EVENT_NET_INTERNAL,
                       ("_flt", "deliver", ref, dst))
            return False
        return True

    def on_internal(self, payload, now: float) -> List[Tuple[DataRef, int]]:
        if payload and payload[0] == "_flt":
            op, ref, dst = payload[1], payload[2], payload[3]
            if op == "deliver":
                return [(ref, dst)]
            # op == "retry"
            if dst in self._dead:
                return []  # consumer was re-homed; its copy is resent
            self.fault_events.append(self._FaultEvent(
                now, "retry", dst, f"d{ref[0]}v{ref[1]}"))
            src = self._src.get((ref, dst), dst)
            if src in self._dead:
                self.storage_fetch(ref, dst, now)
            else:
                self.send(ref, src, dst, now)
            return []
        out = self.inner.on_internal(payload, now)
        return [a for a in out if self.arrived(a[0], a[1], now)]

    def stats(self) -> NetworkStats:
        return self.inner.stats()


#: Registered network models, by CLI/`simulate(network=...)` name.
NETWORK_MODELS = {"nic": NicModel, "contention": ContentionModel,
                  "hierarchical": HierarchicalModel}


def make_network(network: Union[str, NetworkModel, None]) -> NetworkModel:
    """Resolve a ``simulate(network=...)`` argument to a fresh model.

    ``None`` keeps the legacy default (``nic``); a string looks up
    :data:`NETWORK_MODELS`; a :class:`NetworkModel` instance is used as
    is (it is re-bound, so one instance cannot serve two concurrent
    simulations).
    """
    if network is None:
        return NicModel()
    if isinstance(network, NetworkModel):
        return network
    try:
        return NETWORK_MODELS[network]()
    except KeyError:
        raise ValueError(
            f"unknown network model {network!r}; "
            f"available: {sorted(NETWORK_MODELS)}") from None
