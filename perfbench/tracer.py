"""Span tracing of the program from outside it.

`Tracer.install` replaces every public module-level function of the
infoenergy modules by a timing wrapper, at every module attribute that holds
the function: the name the caller looks up.  Calls made through a module's
globals (cli -> mac_region_sweep -> mac_boundary_point -> entropy_bits) are
therefore caught at every level, with no change to the program.

Each thread keeps its own span stack, because sweeps run their points on a
thread pool.  A span opened on a pool thread with an empty stack takes the
innermost open span of the installing thread as its parent: the sweep that
handed out the work.  A span's self time is its duration minus the union of
its children's intervals, so children running in parallel are not counted
twice.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from array import array

import numpy as np


class _ThreadBuffer:
    """Finished spans of one thread, in compact columns."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")


class Tracer:
    def __init__(self, hooks=None):
        # hooks: span name -> fn(args, kwargs, result) whose return value is
        # appended to observations[name]; runs after the span is closed.
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.observations: dict[str, list] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._owner: _ThreadBuffer | None = None
        self._patched: list = []

    # -- recording -----------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, func, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        observed = self.observations.setdefault(name, [])
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif self._owner is not None and self._owner is not buf and self._owner.stack:
                parent = self._owner.stack[-1]
            else:
                parent = None
            children: list = []
            stack.append(children)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent.append((start, end))
                buf.name.append(name_id)
                buf.start.append(start)
                buf.end.append(end)
                buf.self_ns.append(end - start - _covered(children, start, end))
            if hook is not None:
                observed.append(hook(args, kwargs, result))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package_modules, caller_modules=()):
        """Wrap the public functions defined in `package_modules`.

        Every attribute of those modules and of `caller_modules` that holds
        one of the functions is pointed at its wrapper.
        """
        self._owner = self._buffer()
        wrappers = {}
        for mod in package_modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for mod in list(package_modules) + list(caller_modules):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def clear(self):
        """Drop recorded spans and observations (between passes)."""
        with self._lock:
            for buf in self._buffers:
                for col in (buf.name, buf.start, buf.end, buf.self_ns):
                    del col[:]
        for obs in self.observations.values():
            obs.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans as columns: name id, start, end, self time (ns), thread."""
        with self._lock:
            bufs = list(self._buffers)
        cols = {
            "name": np.concatenate([np.frombuffer(b.name, dtype=np.int32) for b in bufs]),
            "start": np.concatenate([np.frombuffer(b.start, dtype=np.int64) for b in bufs]),
            "end": np.concatenate([np.frombuffer(b.end, dtype=np.int64) for b in bufs]),
            "self_ns": np.concatenate([np.frombuffer(b.self_ns, dtype=np.int64) for b in bufs]),
            "thread": np.concatenate([np.full(len(b.name), b.index, dtype=np.int32) for b in bufs]),
        }
        return {k: v.copy() for k, v in cols.items()}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_ms and p50_ms (median inclusive duration)."""
        cols = self.spans()
        out = {}
        for name_id, name in enumerate(self.names):
            hit = cols["name"] == name_id
            dur = cols["end"][hit] - cols["start"][hit]
            out[name] = {
                "calls": int(hit.sum()),
                "self_ms": float(cols["self_ns"][hit].sum()) / 1e6,
                "p50_ms": float(np.median(dur)) / 1e6 if dur.size else 0.0,
            }
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0, lo, lo
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + cur_e - cur_s
