"""Span recorder for the traced run.

The recorder wraps, from outside, the public functions and methods of the
eight prismalab modules, plus the arithmetic dunders and constructors of
their classes and the callbacks of the click commands.  A name that one
module imports from another (``from .linalg_residue import howell_form``)
is a separate binding, so every binding of a wrapped function is
replaced, each by the same wrapper; aliases such as ``__rmul__ =
__mul__`` share one wrapper too.  ``uninstall`` restores every original.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the sum over its spans.  Spans on the main thread
are timed by the wall clock.  Spans on a worker thread (the thread pool
of ``suite split``) are timed by that thread's CPU clock, so time spent
waiting for the interpreter lock is not counted twice; while the workers
run, the main thread waits, so the union of the wall intervals of their
outermost spans counts as child time of the main thread's innermost open
span.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from time import perf_counter, thread_time

LAYERS = ("witt_base", "linalg_residue", "series_rings", "phi_modules",
          "breuil_fl", "decomposition", "cyclo_suite", "cli")
MODULES = tuple("prismalab." + name for name in LAYERS)

# dunders that do a layer's work; other dunders (repr, hash, ...) are not
# wrapped.  WittElem and DpElem constructors only store their fields, and
# element constructions are counted at WittRing.elem instead.
DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__",
           "__rmul__", "__pow__", "__eq__"}
PLAIN_INIT = {"prismalab.witt_base.WittElem", "prismalab.series_rings.DpElem"}

# spans that mark their parent, for the hit ratios: a fil_span call with
# no howell_form child, and a model call with no FiniteModel child
MARKS_PARENT = {"linalg_residue.howell_form",
                "phi_modules.FiniteModel.__init__"}

# elimination entry points whose input shapes are recorded
SHAPED = {"linalg_residue.howell_form", "linalg_residue.kernel_solve",
          "linalg_residue.smith_elementary_divisors"}

MARK = "__bench_span__"


def _shape(A):
    rows = getattr(A, "rows", None)
    if rows is not None and not isinstance(rows, list):
        return A.rows, A.cols
    return len(A), (len(A[0]) if A else 0)


class Recorder:
    def __init__(self):
        self.self_s = {layer: [0.0] for layer in LAYERS}
        self.stats = {}          # key -> [calls, inclusive s, depth, hits]
        self.work = 0
        self.max_cells = 0
        self._tls = threading.local()
        # a frame is [seconds covered by child spans, had a child in
        # MARKS_PARENT, is the root of a worker thread]
        self._main = [0.0, False, False]
        self._foreign = []       # (start, end) of worker root spans
        self._lock = threading.Lock()
        self._installed = []     # (owner, name, original) in install order

    # -- span accounting ---------------------------------------------------

    def _stack(self):
        try:
            return self._tls.stack
        except AttributeError:
            if threading.current_thread() is threading.main_thread():
                root = self._main
            else:
                root = [0.0, False, True]
            self._tls.stack = [root]
            return self._tls.stack

    def _wrap(self, fn, layer, key):
        cell = self.self_s[layer]
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0])
        marks = key in MARKS_PARENT
        shaped = key in SHAPED
        stack_of = self._stack
        foreign = self._foreign
        lock = self._lock
        rec = self

        def span(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            frame = [0.0, False, False]
            if stack[0][2]:
                # worker thread: other workers update the same counters
                with lock:
                    enter(parent, args)
                stack.append(frame)
                w0 = perf_counter()
                t0 = thread_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = thread_time() - t0
                    stack.pop()
                    with lock:
                        if parent[2]:
                            foreign.append((w0, perf_counter()))
                        leave(parent, frame, dt)
            enter(parent, args)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if foreign:
                    frame[0] += rec._drain_foreign()
                leave(parent, frame, dt)

        def enter(parent, args):
            if marks:
                parent[1] = True
            if shaped and args:
                r, c = _shape(args[0])
                rec.work += r * c * min(r, c)
                rec.max_cells = max(rec.max_cells, r * c)
            stat[2] += 1

        def leave(parent, frame, dt):
            stat[2] -= 1
            cell[0] += dt - frame[0]
            parent[0] += dt
            stat[0] += 1
            if stat[2] == 0:
                stat[1] += dt
            if not frame[1]:
                stat[3] += 1

        span.__name__ = getattr(fn, "__name__", "span")
        span.__qualname__ = getattr(fn, "__qualname__", span.__name__)
        span.__doc__ = fn.__doc__
        setattr(span, MARK, key)
        return span

    def _drain_foreign(self):
        with self._lock:
            spans = sorted(self._foreign)
            self._foreign.clear()
        total, end = 0.0, None
        for a, b in spans:
            if end is None or a > end:
                total += b - a
                end = b
            elif b > end:
                total += b - end
                end = b
        return total

    # -- installation --------------------------------------------------------

    def install(self):
        wrappers = {}            # id(original) -> wrapper
        modules = [importlib.import_module(m) for m in MODULES]

        def wrapper_for(fn, layer, key):
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(fn, layer, key)
            return w

        def put(owner, name, value):
            self._installed.append((owner, name, owner.__dict__[name]
                                    if isinstance(owner, type)
                                    else getattr(owner, name)))
            setattr(owner, name, value)

        classes = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                callback = getattr(obj, "callback", None)
                if (inspect.isfunction(callback)
                        and callback.__module__ in MODULES):
                    # a click command: its callback does the command's work
                    layer = callback.__module__.rsplit(".", 1)[1]
                    put(obj, "callback", wrapper_for(
                        callback, layer, f"{layer}.{callback.__name__}"))
                    continue
                home = getattr(obj, "__module__", None)
                if home not in MODULES:
                    continue
                layer = home.rsplit(".", 1)[1]
                if inspect.isfunction(obj) and not name.startswith("_"):
                    put(mod, name, wrapper_for(
                        obj, layer, f"{layer}.{obj.__name__}"))
                elif inspect.isclass(obj):
                    classes[obj] = layer
        for cls, layer in classes.items():
            qual = f"{cls.__module__}.{cls.__qualname__}"
            for name, attr in list(vars(cls).items()):
                if ((name.startswith("_") and name not in DUNDERS)
                        or (name == "__init__" and qual in PLAIN_INIT)):
                    continue
                bound = isinstance(attr, (classmethod, staticmethod))
                fn = attr.__func__ if bound else attr
                if not inspect.isfunction(fn):
                    continue
                w = wrapper_for(
                    fn, layer, f"{layer}.{cls.__qualname__}.{fn.__name__}")
                put(cls, name, type(attr)(w) if bound else w)
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def calls(self, *keys):
        return sum(self.stats.get(k, (0,))[0] for k in keys)

    def inclusive_s(self, key):
        return self.stats.get(key, (0, 0.0))[1]

    def hit_ratio(self, key):
        stat = self.stats.get(key)
        if not stat or not stat[0]:
            return 0.0
        return stat[3] / stat[0]


def wrapped_attributes():
    """Every prismalab attribute that currently holds a span wrapper."""
    found = []
    for modname in MODULES:
        mod = importlib.import_module(modname)
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{modname}.{name}")
            callback = getattr(obj, "callback", None)
            if callback is not None and hasattr(callback, MARK):
                found.append(f"{modname}.{name}.callback")
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    inner = getattr(attr, "__func__", attr)
                    if hasattr(inner, MARK):
                        found.append(f"{modname}.{name}.{attr_name}")
    return found
