"""Runtime tracing of the leafspace layers, installed from the outside.

``Tracer.install`` wraps the public functions and methods of ``plmap``,
``action``, ``cones``, ``shear`` and ``cli`` with spans (name, start, end,
parent, request), rebinding every namespace of the package that holds the
original, so names imported with ``from .x import y`` are traced too.
``QNum`` arithmetic and comparison dunders are counted, not spanned: they
are too small and too many.  Spans stay in flat arrays in memory until
``write``.  ``uninstall`` restores every original.

Only the standard library is used: ``time.perf_counter_ns`` for spans.
"""

from __future__ import annotations

import gzip
import inspect
import operator
import statistics
import sys
import time
from array import array

LAYERS = ("plmap", "action", "cones", "shear", "cli")
# Private helpers traced because a metric counts them.
EXTRA = {"shear": ("_clip",)}
QNUM_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__abs__", "inverse",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "sign", "floor", "__hash__",
)
# Span names whose arguments are kept (thinned evenly) for the microbenches.
SAMPLED = (
    "plmap.PLMap.__call__", "plmap.PLMap.compose", "plmap.PLMap.period_group",
    "action.certify_nonuniform",
)
SAMPLE_CAP = 64


class Sampler:
    """Keeps every stride-th item; halves itself and doubles the stride when
    full, so the kept items stay spread over the whole run."""

    __slots__ = ("items", "stride")

    def __init__(self) -> None:
        self.items = []
        self.stride = 1

    def add(self, item) -> None:
        self.items.append(item)
        if len(self.items) >= 2 * SAMPLE_CAP:
            self.items = self.items[1::2]
            self.stride *= 2


class Tracer:
    def __init__(self) -> None:
        from leafspace.plmap import PLMap
        from leafspace.qfield import QNum

        self.QNum, self.PLMap = QNum, PLMap
        self.active = False
        self.names: list[str] = ["bench.request"]
        self.layer_of: list[str] = ["bench"]
        self.sid = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.req = array("i")
        self.stack = [-1]
        self.request = -1
        self._restore = []
        self.calls: dict[str, int] = {}
        self.samples: dict[str, Sampler] = {}
        self.qops = dict.fromkeys(QNUM_OPS, 0)
        self.qirr = dict.fromkeys(QNUM_OPS, 0)
        self.max_bits = 0
        self.compose_max_bp = 0
        self.orbit_points = 0
        self.ledger_rows = 0

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def request_span(self, index: int, fn, *args):
        """Run one request as a root span; every layer span nests in it."""
        self.request = index
        self.active = True
        i = self._open(0)
        try:
            return fn(*args)
        finally:
            self.t1[i] = time.perf_counter_ns()
            self.stack.pop()
            self.active = False

    def _open(self, nid: int) -> int:
        i = len(self.sid)
        self.sid.append(nid)
        self.parent.append(self.stack[-1])
        self.req.append(self.request)
        self.t1.append(0)
        self.stack.append(i)
        self.t0.append(time.perf_counter_ns())
        return i

    def _span(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        tracer = self
        sampler = Sampler() if name in SAMPLED else None
        post = _POST.get(name)
        layer_of, sid, stack, t1 = self.layer_of, self.sid, self.stack, self.t1
        clock = time.perf_counter_ns
        self.calls[name] = 0

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            n = tracer.calls[name] = tracer.calls[name] + 1
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if sampler is not None and n % sampler.stride == 0:
                sampler.add(args)  # only calls that returned
            p = stack[-1]
            if p < 0 or layer_of[sid[p]] != layer:
                tracer._note_bits(result, 3)
            if post is not None:
                post(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        if sampler is not None:
            self.samples[name] = sampler
        return traced

    # -- QNum counters ----------------------------------------------------------

    def _counter(self, fn, op: str):
        tracer, QNum = self, self.QNum
        qops, qirr = self.qops, self.qirr
        sampler = Sampler()
        self.samples["qfield." + op] = sampler

        def counted(x, *rest):
            if tracer.active:
                n = qops[op] = qops[op] + 1
                if not x.is_rational() or (rest and type(rest[0]) is QNum
                                           and not rest[0].is_rational()):
                    qirr[op] += 1
                if n % sampler.stride == 0:
                    sampler.add((x,) + rest)
            return fn(x, *rest)

        counted.__wrapped__ = fn
        counted.__name__ = fn.__name__
        return counted

    def _note_bits(self, obj, depth: int) -> None:
        """Largest numerator or denominator bit length of any QNum reachable
        from a result in a few steps."""
        if isinstance(obj, self.QNum):
            a, b = obj.a, obj.b
            bits = max(a.numerator.bit_length(), a.denominator.bit_length(),
                       b.numerator.bit_length(), b.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits
        elif isinstance(obj, self.PLMap):
            self._note_bits(obj.period, 0)
            for x, y in obj.breakpoints:
                self._note_bits(x, 0)
                self._note_bits(y, 0)
        elif depth <= 0:
            return
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                self._note_bits(item, depth - 1)
        elif isinstance(obj, dict):
            for item in obj.values():
                self._note_bits(item, depth - 1)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                self._note_bits(getattr(obj, name), depth - 1)

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "leafspace" or n.startswith("leafspace.")]
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"leafspace.{layer}"]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not name.startswith("_") or name in EXTRA.get(layer, ())
                ):
                    replaced[id(obj)] = (obj, self._span(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))
        QNum = self.QNum
        for op in QNUM_OPS:
            orig = QNum.__dict__.get(op)
            if orig is not None:
                setattr(QNum, op, self._counter(orig, op))
                self._restore.append((QNum, op, orig))

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._span(attr.__func__, label, layer))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._span(attr.__func__, label, layer))
            elif inspect.isfunction(attr):
                wrapped = self._span(attr, label, layer)
            else:
                continue
            setattr(cls, name, wrapped)
            self._restore.append((cls, name, attr))

    def uninstall(self) -> None:
        self.active = False
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times over every recorded span."""
        n = len(self.sid)
        sid, parent, t0, t1 = self.sid, self.parent, self.t0, self.t1
        names, layer_of = self.names, self.layer_of
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        want = {"plmap.translation_number", "action.orbit_density",
                "action.incompressible_interval_search"}
        # The nearest traced ancestor of interest, found in one forward pass
        # because a parent is always recorded before its children.
        anc = [None] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                pname = names[sid[p]]
                anc[i] = pname if pname in want else anc[p]
        self_by_layer = dict.fromkeys(LAYERS, 0)
        self_by_name: dict[str, int] = {}
        count: dict[str, int] = {}
        calls_under: dict[str, int] = {w: 0 for w in want}
        compose_under_tn = 0
        for i in range(n):
            name = names[sid[i]]
            own = (t1[i] - t0[i]) - child[i]
            layer = layer_of[sid[i]]
            if layer in self_by_layer:
                self_by_layer[layer] += own
            self_by_name[name] = self_by_name.get(name, 0) + own
            count[name] = count.get(name, 0) + 1
            a = anc[i]
            if a is not None:
                if name == "plmap.PLMap.__call__":
                    calls_under[a] += 1
                elif name == "plmap.PLMap.compose" and a == "plmap.translation_number":
                    compose_under_tn += 1
        ops = sum(self.qops.values())
        orbit_calls = calls_under["action.orbit_density"]
        m = {}
        for layer in ("plmap", "action", "cones", "shear", "cli"):
            m[f"{layer}.self_s"] = (self_by_layer[layer] / 1e9, "s")
        m.update({
            "qfield.ops": (ops, "count"),
            "qfield.irrational_share": (sum(self.qirr.values()) / ops if ops else 0.0, "ratio"),
            "qfield.max_coeff_bits": (self.max_bits, "bits"),
            "plmap.call.count": (count.get("plmap.PLMap.__call__", 0), "count"),
            "plmap.compose.count": (count.get("plmap.PLMap.compose", 0), "count"),
            "plmap.compose.max_breakpoints": (self.compose_max_bp, "count"),
            "plmap.translation_number.self_s": (
                self_by_name.get("plmap.translation_number", 0) / 1e9, "s"),
            "plmap.translation_number.compose_steps": (compose_under_tn, "count"),
            "action.orbit_density.self_s": (
                self_by_name.get("action.orbit_density", 0) / 1e9, "s"),
            "action.orbit_yield": (self.orbit_points / orbit_calls if orbit_calls else 0.0,
                                   "ratio"),
            "action.incompressible.states": (
                calls_under["action.incompressible_interval_search"] // 2, "count"),
            "cones.metric_evals": (count.get("cones.MetricChain.metric", 0), "count"),
            "cones.ledger_rows": (self.ledger_rows, "count"),
            "shear.clip.count": (count.get("shear._clip", 0), "count"),
        })
        return m

    def microbench(self) -> dict:
        """µs/op of layer operations on operands sampled during the traced
        run, timed after ``uninstall``: the median over operands of each
        operand's mean time."""
        from leafspace import action, cli
        from leafspace.plmap import PLMap
        from leafspace.qfield import QNum

        def items(key):
            s = self.samples.get(key)
            return s.items if s else []

        rows = {
            "qfield.add_us": (operator.add, items("qfield.__add__")),
            "qfield.mul_us": (operator.mul, items("qfield.__mul__")),
            "qfield.lt_us": (operator.lt, items("qfield.__lt__")),
            "qfield.floor_us": (QNum.floor, items("qfield.floor")),
            "qfield.hash_us": (hash, items("qfield.__hash__")),
            "plmap.call_us": (PLMap.__call__, items("plmap.PLMap.__call__")),
            "plmap.compose_us": (PLMap.compose, items("plmap.PLMap.compose")),
            "plmap.period_group_us": (PLMap.period_group, items("plmap.PLMap.period_group")),
            "action.certify_us": (
                action.certify_nonuniform,
                [args[:1] for args in items("action.certify_nonuniform")]),
            "cli.build_parser_us": (cli.build_parser, [()] * 16),
        }
        return {name: (_per_op_us(fn, ops), "us") for name, (fn, ops) in rows.items()}

    def write(self, path) -> None:
        """All spans as TSV: name, start_ns, end_ns, parent index, request."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            names = self.names
            for i in range(len(self.sid)):
                fh.write(f"{names[self.sid[i]]}\t{self.t0[i]}\t{self.t1[i]}\t"
                         f"{self.parent[i]}\t{self.req[i]}\n")


def _per_op_us(fn, operands, budget_s: float = 0.4) -> float:
    if not operands:
        return 0.0
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + budget_s
    per_op = []
    for ops in operands:
        t = clock()
        fn(*ops)
        once = clock() - t
        reps = max(1, min(2000, 20_000 // max(once, 1)))
        t = clock()
        for _ in range(reps):
            fn(*ops)
        per_op.append((clock() - t) / reps)
        if time.perf_counter() > deadline:
            break
    return statistics.median(per_op) / 1e3


def _compose_post(tracer, result):
    k = len(result.breakpoints)
    if k > tracer.compose_max_bp:
        tracer.compose_max_bp = k


def _orbit_post(tracer, result):
    tracer.orbit_points += result.orbit_size - 1  # x0 itself is not a find


def _ledger_post(tracer, result):
    tracer.ledger_rows += len(result.rows)


_POST = {
    "plmap.PLMap.compose": _compose_post,
    "action.orbit_density": _orbit_post,
    "cones.run_progress_ledger": _ledger_post,
}
