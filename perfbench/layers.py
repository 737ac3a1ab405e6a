"""Per-layer tracing, applied from outside the program.

:class:`Tracer` replaces public functions of the ``repro`` modules with
wrappers that record one span per call: name, start, end, the enclosing
wrapped call as parent, and the client ``call_id`` when the call's
arguments carry a message.  Spans stay in memory (column arrays) until
:meth:`Tracer.save` writes them out.  Each span name also keeps a call
count and a self time, the span's duration minus the time its child
spans cover.

The wrappers only read their arguments.  They draw from no RNG and
schedule nothing, so a traced simulation stays bit-identical to an
untraced one.  Nothing under ``src/`` is edited: :meth:`Tracer.close`
puts every original function back.
"""

from __future__ import annotations

import time
import types
from array import array
from typing import Any, Callable, Optional

#: span name -> (module, owner, attribute) for the synchronous wrappers.
#: ``owner`` is a class name, or ``None`` for a module-level function.
SIM_TARGETS = {
    "engine.run": ("repro.sim.engine", "Simulator", "run"),
    "stage.submit": ("repro.seda.stage", "Stage", "submit"),
    "cpu.submit": ("repro.sim.cpu", "CpuPool", "submit"),
    "server.deliver": ("repro.actor.server", "Silo", "deliver"),
    "network.deliver": ("repro.sim.network", "Network", "deliver"),
    "directory.lookup": ("repro.actor.directory", "Directory", "lookup"),
    "commtable.record": ("repro.actor.commtable", "CommTable", "record"),
    "commtable.drain": ("repro.actor.commtable", "CommTable", "drain"),
    "spacesaving.offer": ("repro.graph.spacesaving", "SpaceSaving", "offer"),
    "spacesaving.decay": ("repro.graph.spacesaving", "SpaceSaving", "decay"),
    "partitioning.round": ("repro.core.partitioning.coordinator",
                           "PartitionAgent", "initiate_round"),
    "partitioning.build_view": ("repro.core.partitioning.coordinator",
                                "PartitionAgent", "build_view"),
    "partitioning.fold": ("repro.core.partitioning.coordinator",
                          "PartitionAgent", "fold_counters"),
    "partitioning.serve": ("repro.core.partitioning.coordinator",
                           "PartitionAgent", "serve_request"),
    # The controller module imported these names, so they are patched
    # where the controller looks them up.
    "threads.solve": ("repro.core.threads.controller", None,
                      "solve_fractional"),
    "threads.integerize": ("repro.core.threads.controller", None,
                           "integerize"),
}

#: Spans kept for :meth:`Tracer.save`; a Halo run makes about 5M, over
#: 200 MB at full size.  Counts and self times still cover every call.
MAX_SPANS = 1_000_000


def _call_id(args: tuple) -> int:
    """The ``call_id`` of the first message-like argument, else -1."""
    for arg in args:
        call_id = getattr(arg, "call_id", None)
        if isinstance(call_id, int):
            return call_id
    return -1


class Tracer:
    """Span recorder plus the patch table that feeds it.

    Counts and self times cover every call.  Only the first
    :data:`MAX_SPANS` spans are kept for :meth:`save`; the rest are
    counted in ``dropped``.
    """

    def __init__(self) -> None:
        self.dropped = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: list[int] = []
        self.self_s: list[float] = []
        #: Per-name numeric side channels (bytes written, offer hits).
        self.extra: dict[str, float] = {}
        self.sid = array("q")
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.call_id = array("q")
        self._stack: list[list] = []   # [span id, child time] per open span
        self._next = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
            self.self_s.append(0.0)
        return nid

    def _open(self) -> list:
        sid = self._next
        self._next = sid + 1
        frame = [sid, 0.0, self._stack[-1][0] if self._stack else -1]
        self._stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, t0: float, t1: float,
               call_id: int) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self.self_s[nid] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if len(self.sid) >= MAX_SPANS:
            self.dropped += 1
            return
        self.sid.append(frame[0])
        self.name.append(nid)
        self.parent.append(frame[2])
        self.start.append(t0)
        self.end.append(t1)
        self.call_id.append(call_id)

    def wrap(self, fn: Callable, name: str,
             before: Optional[Callable[[tuple], None]] = None) -> Callable:
        """A synchronous wrapper recording one span per call.

        ``before(args)`` runs ahead of the call, outside the timed
        interval, for side-channel counts that must see the arguments
        before the call mutates state.
        """
        nid = self._name_id(name)
        perf = time.perf_counter
        open_, close = self._open, self._close
        counts = self.counts

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = open_()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, frame, t0, perf(), _call_id(args))
                counts[nid] += 1

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Wrap an actor's generator method.

        Still a generator function, as both engines require.  Each
        resumption of the inner generator is one span, so the spans
        nest correctly even though the turn suspends between them; the
        count is one per turn.
        """
        nid = self._name_id(name)
        perf = time.perf_counter
        open_, close = self._open, self._close
        counts = self.counts

        def step(gen, value, error):
            frame = open_()
            t0 = perf()
            try:
                if error is not None:
                    return gen.throw(error)
                return gen.send(value)
            finally:
                close(nid, frame, t0, perf(), -1)

        def wrapper(*args, **kwargs):
            counts[nid] += 1
            gen = fn(*args, **kwargs)
            value, error = None, None
            while True:
                try:
                    yielded = step(gen, value, error)
                except StopIteration as stop:
                    return stop.value
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by the engine
                    value, error = None, exc

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_coroutine(self, fn: Callable, name: str) -> Callable:
        """Count calls of a coroutine function.  Other tasks run while
        it is suspended, so it gets no span on the shared stack."""
        nid = self._name_id(name)
        counts = self.counts

        async def wrapper(*args, **kwargs):
            counts[nid] += 1
            return await fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install_sim(self) -> None:
        """Wrap every simulator-side layer in :data:`SIM_TARGETS`."""
        import importlib

        for name, (module_name, owner_name, attr) in SIM_TARGETS.items():
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            before = self._spacesaving_hits if name == "spacesaving.offer" else None
            self.patch(owner, attr, self.wrap(getattr(owner, attr), name,
                                              before=before))

    def _spacesaving_hits(self, args: tuple) -> None:
        summary, key = args[0], args[1]
        if key in summary:
            self.extra["spacesaving.hits"] = (
                self.extra.get("spacesaving.hits", 0) + 1)

    def install_pools(self) -> None:
        from repro.pools.router import RouterActor

        self.patch(RouterActor, "route",
                   self.wrap_generator(RouterActor.route, "pools.route"))

    def install_transport(self) -> None:
        """Wrap pickle, ``asyncio.open_connection`` and
        ``StreamWriter.write`` as the asyncio backend module sees them."""
        import asyncio
        import pickle

        from repro.backend import asyncio_backend

        pickle_ns = types.SimpleNamespace(
            dumps=self.wrap(pickle.dumps, "transport.pickle_dumps"),
            loads=self.wrap(pickle.loads, "transport.pickle_loads"),
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        )
        self.patch(asyncio_backend, "pickle", pickle_ns)

        open_connection = self.wrap_coroutine(
            asyncio.open_connection, "transport.open_connection")

        class _AsyncioView(types.ModuleType):
            """The real asyncio module, except ``open_connection``."""

            def __getattr__(self, attr):
                if attr == "open_connection":
                    return open_connection
                return getattr(asyncio, attr)

        self.patch(asyncio_backend, "asyncio", _AsyncioView("asyncio"))

        def count_bytes(args: tuple) -> None:
            self.extra["transport.bytes"] = (
                self.extra.get("transport.bytes", 0) + len(args[1]))

        self.patch(asyncio.StreamWriter, "write",
                   self.wrap(asyncio.StreamWriter.write, "transport.write",
                             before=count_bytes))

    def close(self) -> None:
        """Put every wrapped function back (reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def table(self) -> dict[str, list]:
        return {name: [self.counts[i], self.self_s[i]]
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> int:
        """Write the kept spans to ``path`` (``.npz``); returns the count."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            span_id=np.frombuffer(self.sid, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            call_id=np.frombuffer(self.call_id, dtype=np.int64),
        )
        return len(self.sid)
