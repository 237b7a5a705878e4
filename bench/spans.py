"""Span tracer that measures the program's layers from outside.

The tracer replaces public functions and methods of `cv2x_bench` modules
with timing wrappers for the length of a traced run; nothing inside
`src/` is instrumented.  Each wrapped call is a span with a start, an end,
a parent (the enclosing wrapped call on the same thread) and a thread.
A layer's self time is its span's duration minus the time its child spans
cover.

Per-packet and per-tick spans (about 1.3M on matrix-loaded) are folded
into per-name aggregates as they close, so memory stays bounded; only the
coarse spans named in `record` (one per matrix, cell or report call) are
kept individually.  Everything stays in memory until `report()`.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter


class _ThreadState:
    __slots__ = ("thread", "stack", "agg", "counters", "spans")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: list[list] = []          # [name, start, child_s, span_id]
        self.agg: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self, record: tuple[str, ...] = ()) -> None:
        self._record = record
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    # -- per-thread bookkeeping -------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            thread = threading.current_thread()
            state = _ThreadState(f"{thread.name}/{thread.native_id}")
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _enter(self, st: _ThreadState, name: str) -> list:
        span_id = next(self._ids) if name.startswith(self._record) else 0
        frame = [name, 0.0, 0.0, span_id]
        st.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, st: _ThreadState, frame: list) -> None:
        end = perf_counter()
        st.stack.pop()
        name, start, child_s, span_id = frame
        duration = end - start
        entry = st.agg.get(name)
        if entry is None:
            st.agg[name] = [1, duration, duration - child_s]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
        if st.stack:
            st.stack[-1][2] += duration
        if span_id:
            parent = next((f[3] for f in reversed(st.stack) if f[3]), 0)
            st.spans.append((span_id, name, start, end, parent, st.thread))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, observe=None):
        """Time every call of fn as a span called `name` (a string, or a
        function of the call's arguments).  observe(counters, args, result)
        may count properties of each result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            frame = tracer._enter(st, name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame)
            if observe is not None:
                observe(st.counters, args, result)
            return result
        return traced

    def wrap_generator(self, fn, name: str, count: str):
        """Time each step of the generators fn returns, so that only the
        work done inside the generator is charged to `name`; `count` counts
        the items yielded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedIterator(tracer, fn(*args, **kwargs), name, count)
        return traced

    def patch(self, owner, attr: str, name, observe=None) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def patch_generator(self, owner, attr: str, name: str, count: str) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap_generator(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        """Aggregates, counters and recorded spans of every thread."""
        with self._lock:
            states = list(self._states)
        merged = merge_reports([
            {"aggregates": st.agg, "counters": st.counters,
             "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                        "parent": s[4], "thread": s[5]} for s in st.spans]}
            for st in states])
        merged["spans"].sort(key=lambda span: span["id"])
        return merged


class _TimedIterator:
    __slots__ = ("_tracer", "_it", "_name", "_count")

    def __init__(self, tracer: Tracer, it, name: str, count: str) -> None:
        self._tracer = tracer
        self._it = it
        self._name = name
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        st = tracer._state()
        frame = tracer._enter(st, self._name)
        try:
            item = next(self._it)
        finally:
            tracer._exit(st, frame)
        st.counters[self._count] = st.counters.get(self._count, 0) + 1
        return item


def merge_reports(reports: list[dict]) -> dict:
    """Sum the aggregates and counters of several tracer reports (one per
    process) and concatenate their spans."""
    agg: dict[str, list] = {}
    counters: dict[str, int] = {}
    spans: list[dict] = []
    for rep in reports:
        for name, (calls, total, self_s) in rep["aggregates"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in rep["counters"].items():
            counters[name] = counters.get(name, 0) + value
        spans.extend(rep["spans"])
    return {"aggregates": agg, "counters": counters, "spans": spans}


# ---------------------------------------------------------------------------
# What is wrapped, per kind of process
# ---------------------------------------------------------------------------

# Coarse spans kept one by one; everything else is only aggregated.
RECORDED = ("scenario.", "analysis.ingest", "analysis.summarize",
            "analysis.report", "netem.apply_handover")


def _count_empty_tick(counters, args, result) -> None:
    if not result:
        counters["netem.empty_ticks"] = counters.get("netem.empty_ticks", 0) + 1


def _count_drop(counters, args, result) -> None:
    if result is False:
        counters["netem.enqueue.drops"] = counters.get("netem.enqueue.drops", 0) + 1


def _count_useful_delivery(counters, args, result) -> None:
    meta = args[1].meta
    if meta and meta.get("kind") in ("app-ul", "app-dl"):
        counters["agents.useful_deliveries"] = (
            counters.get("agents.useful_deliveries", 0) + 1)


def _install_codec_and_analysis(tracer: Tracer) -> None:
    from cv2x_bench import analysis, clockmodel, protocol
    tracer.patch(protocol, "encode", "protocol.encode")
    tracer.patch(protocol, "decode", "protocol.decode")
    tracer.patch(protocol, "make_padded_payload", "protocol.payload")
    tracer.patch(clockmodel.OffsetProvider, "estimate_at", "clockmodel.estimate")
    tracer.patch(clockmodel.ZeroOffsetProvider, "estimate_at", "clockmodel.estimate")
    tracer.patch(analysis, "ingest", "analysis.ingest")
    tracer.patch(analysis, "summarize", "analysis.summarize")
    tracer.patch(analysis, "write_records", "analysis.write_records")
    tracer.patch(analysis.RecordWriter, "append", "analysis.write_records")
    for attr in ("emit_report", "write_per_packet_csv", "emit_per_packet_chart"):
        tracer.patch(analysis, attr, "analysis.report")


def install_emulator(tracer: Tracer) -> None:
    """Wrap the layers an in-process `scenario.run_matrix` call goes through."""
    from cv2x_bench import agents, loadgen, netem, scenario
    tracer.patch(scenario, "run_matrix", "scenario.run_matrix")
    tracer.patch(scenario, "run_scenario",
                 lambda args: f"scenario.cell.{args[0].name}")
    tracer.patch(netem.SimWorld, "run_tick", "netem.world_tick")
    tracer.patch(netem.SimWorld, "schedule", "netem.schedule")
    tracer.patch(netem.LinkSimulator, "run_tick", "netem.link_tick",
                 observe=_count_empty_tick)
    tracer.patch(netem.LinkSimulator, "enqueue", "netem.enqueue",
                 observe=_count_drop)
    # scenario imported apply_handover by name, so its reference is the one
    # that is called.
    tracer.patch(scenario, "apply_handover", "netem.apply_handover")
    tracer.patch_generator(loadgen.CbrPacketSource, "arrivals",
                           "loadgen.arrivals", count="loadgen.packets")
    tracer.patch(agents.SimPipeline, "on_delivery", "agents.on_delivery",
                 observe=_count_useful_delivery)
    for cls, attr in ((agents.SimSensor, "build_frame"),
                      (agents.SimRelay, "receive"),
                      (agents.SimRelay, "forward"),
                      (agents.SimVehicle, "receive")):
        tracer.patch(cls, attr, "agents.stamp")
    _install_codec_and_analysis(tracer)


def install_broker(tracer: Tracer) -> None:
    """Wrap the broker's fan-out: inside the broker process `send_envelope`
    is only called by connection threads relaying a published frame."""
    from cv2x_bench import broker
    tracer.patch(broker, "send_envelope", "broker.fanout")


def install_client(tracer: Tracer) -> None:
    """Wrap what a `cv2x-bench relay|vehicle|analyze` process goes through."""
    from cv2x_bench import broker
    tracer.patch(broker.BrokerClient, "publish", "client.publish")
    tracer.patch(broker.BrokerClient, "recv_message", "client.recv")
    _install_codec_and_analysis(tracer)

