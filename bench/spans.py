"""Span tracing around calls into funcrelu, installed from outside the package.

A :class:`Tracer` wraps public functions of the package.  Each call becomes
a span ``[name, start, end, parent, op, quantities]`` kept in memory; the
run aggregates them per layer (calls, inclusive and self seconds, counted
quantities) and writes them out when it ends.

Wrappers go on every binding a call is looked up through: a function that
``pipeline`` imported with ``from .relu_net import evaluate_batch`` is
bound in both modules, and both bindings are replaced.  ``uninstall``
puts the originals back, so one process can alternate traced and
untraced passes.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref

import numpy as np
import scipy.sparse as sp


def _points(x) -> int:
    """Number of points in a (t,) point or an (n, t) batch."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _matrix_stats(w):
    """(stored entries, bytes) of a dense or CSR weight matrix."""
    if sp.issparse(w):
        return int(w.nnz), int(w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)
    w = np.asarray(w)
    return int(w.size), int(w.nbytes)


class NetStats:
    """Computed sizes of one network, derived from its array sizes only."""

    def __init__(self, net):
        self.entries = 0  # stored weight entries, hidden layers and output
        self.weight_bytes = 0  # data + indices + indptr of every weight matrix
        self.bytes = 0  # weight bytes plus shift vectors
        for layer in net.layers:
            entries, nbytes = _matrix_stats(layer.weights)
            self.entries += entries
            self.weight_bytes += nbytes
            self.bytes += nbytes + layer.shifts.nbytes
        entries, nbytes = _matrix_stats(net.output)
        self.entries += entries
        self.weight_bytes += nbytes
        self.bytes += nbytes
        # An interpolation net has one spike block per grid node and one
        # output column per block; a point lies in the support of at most
        # t + 1 of them with a nonzero value.
        blocks = net.output.shape[1]
        self.active_share = min(1.0, (net.input_dim + 1) / blocks)


def layer_detail(net) -> list:
    """Rows, nonzeros and bytes of each network layer (detail, not metrics)."""
    out = []
    for j, layer in enumerate(net.layers):
        w = layer.weights
        data = w.data if sp.issparse(w) else w
        _, nbytes = _matrix_stats(w)
        out.append({"layer": j, "rows": layer.rows, "cols": layer.cols,
                    "nonzeros": int(np.count_nonzero(data)) + int(np.count_nonzero(layer.shifts)),
                    "bytes": nbytes + int(layer.shifts.nbytes)})
    _, nbytes = _matrix_stats(net.output)
    out.append({"layer": "output", "rows": net.output.shape[0], "cols": net.output.shape[1],
                "nonzeros": int(np.count_nonzero(net.output.data if sp.issparse(net.output)
                                                 else net.output)),
                "bytes": nbytes})
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.wrapper_s = 0.0
        self.largest = None  # (bytes, layer detail) of the largest net seen
        self._stats = {}  # id(net) -> (weakref, NetStats)
        self._patched = []  # (owner, attribute, original)

    # -- network bookkeeping -------------------------------------------------

    def net_stats(self, net) -> NetStats:
        hit = self._stats.get(id(net))
        if hit is not None and hit[0]() is net:
            return hit[1]
        stats = NetStats(net)
        self._stats[id(net)] = (weakref.ref(net), stats)
        if self.largest is None or stats.bytes > self.largest[0]:
            self.largest = (stats.bytes, layer_detail(net))
        return stats

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Traced stand-in for fn; ``count(tracer, args, result)`` returns
        the span's counted quantities as a dict."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                rec[1], rec[2] = t1, t2
            if count is not None:
                rec[5] = count(self, args, result)
            self.wrapper_s += (t1 - t0) + (clock() - t2)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, package="funcrelu"):
        """Wrap every binding of each target function in the package's
        loaded modules.  ``targets`` holds (owner, attribute, span name,
        counter); an owner that is a class is patched on the class only."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, count)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for o in owners:
                self._patched.append((o, attr, original))
                setattr(o, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-layer totals over spans[lo:hi]: '<name>.calls', '.s',
        '.self_s' and every counted quantity as '<name>.<quantity>'."""
        child_s = {}
        for rec in self.spans[lo:hi]:
            if rec[3] >= lo:
                child_s[rec[3]] = child_s.get(rec[3], 0.0) + (rec[2] - rec[1])
        out = {}
        for i in range(lo, hi):
            name, start, end, _, _, qty = self.spans[i]
            dur = end - start
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + dur
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_s.get(i, 0.0)
            for key, value in (qty or {}).items():
                full = name + "." + key
                if key.endswith("_max"):
                    out[full] = max(out.get(full, 0), value)
                else:
                    out[full] = out.get(full, 0) + value
        return out


def derive(agg: dict) -> dict:
    """Per-layer metrics computed from aggregated span quantities."""
    macs = agg.get("relu_net.forward.macs", 0)
    return {
        # share of forward MACs spent in blocks the point can make nonzero
        "relu_net.forward.active_block_ratio":
            agg.get("relu_net.forward.active_macs", 0.0) / macs if macs else 0.0,
        "relu_net.net_bytes_max": max(
            agg.get("relu_net.forward.net_bytes_max", 0),
            agg.get("constructors.build_interpolation_net.net_bytes_max", 0)),
    }


# -- counters for the wrapped functions ------------------------------------

def _count_forward(tracer, args, result):
    stats = tracer.net_stats(args[0])
    points = _points(args[1])
    macs = stats.entries * points
    return {"points": points, "macs": macs, "weight_bytes": stats.weight_bytes,
            "active_macs": macs * stats.active_share, "net_bytes_max": stats.bytes}


def _count_built_net(tracer, args, net):
    stats = tracer.net_stats(net)
    return {"nnz": stats.entries, "net_bytes_max": stats.bytes}


def _count_points(tracer, args, result):
    return {"points": _points(args[1] if len(args) > 1 else args[0])}


def _count_tensor_values(tracer, args, result):
    return {"values": int(np.size(result))}


def _count_serialized(tracer, args, raw):
    return {"bytes": len(raw)}


# What the benchmark traces: (module of funcrelu, function, counter, unit of
# each quantity the counter returns).  Each layer also gets calls, s, self_s.
LAYERS = [
    ("relu_net", "forward", _count_forward,
     {"points": "count", "macs": "count", "weight_bytes": "B"}),
    ("relu_net", "count_nonzero", None, {}),
    ("relu_net", "serialize", _count_serialized, {"bytes": "B"}),
    ("relu_net", "deserialize", None, {}),
    ("constructors", "build_interpolation_net", _count_built_net, {"nnz": "count"}),
    ("constructors", "interpolant_values", _count_points, {"points": "count"}),
    ("simplicial", "spike", _count_points, {"points": "count"}),
    ("legendre", "tensor_eval", _count_tensor_values, {"values": "count"}),
    ("legendre", "LegendreBasis.eval_all", None, {}),
    ("legendre", "gauss_legendre_rule", None, {}),
    ("discretize", "discretize", None, {}),
    ("discretize", "apply_Vm", None, {}),
    ("discretize", "projection_error", None, {}),
    ("discretize", "make_operator", None, {}),
    ("pipeline", "generate_inputs", None, {}),
    ("pipeline", "mu_values", None, {}),
    ("pipeline", "build_functional_net", None, {}),
]


def layer_name(module: str, function: str) -> str:
    return f"{module}.{function.split('.')[-1]}"


def targets():
    """(owner, attribute, span name, counter) for Tracer.install."""
    out = []
    for module, function, count, _ in LAYERS:
        # import_module, because the package re-exports the function
        # discretize over the name of its module
        owner = importlib.import_module("funcrelu." + module)
        *path, attr = function.split(".")
        for name in path:
            owner = getattr(owner, name)
        out.append((owner, attr, layer_name(module, function), count))
    return out
