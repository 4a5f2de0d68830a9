"""Span recorder for the traced benchmark run.

A span is one call of a wrapped function.  Spans nest through a
``contextvars`` variable holding the open span, and are timed with
``time.perf_counter``.  A span's self time is its duration minus the
durations of its direct children, so the self times of every span under a
root add up to the root's duration.

Spans are aggregated in memory as they close, per layer (the metric
names in BENCHMARK.json) and per call path (the span dump), and written out
when the workload ends.  Wrappers go on every module attribute that holds the
original function, so a name imported with ``from x import f`` is wrapped
where the caller looks it up, not only in its home module.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _n_out(rec, args, kwargs, result):
    return {"coeffs": int(_arg(args, kwargs, 2, "n_out"))}


def _points(i, name):
    def count(rec, args, kwargs, result):
        xs = _arg(args, kwargs, i, name)
        return {"points": int(getattr(xs, "size", 1))}
    return count


def _one_point(rec, args, kwargs, result):
    return {"points": 1}


def _terms(rec, args, kwargs, result):
    return {"terms": int(result.cutoff)}


def _eigenforms(rec, args, kwargs, result):
    """coeffs asked for, and growths: calls asking more than any earlier one for k."""
    k = int(_arg(args, kwargs, 0, "k"))
    n = int(_arg(args, kwargs, 1, "length"))
    grew = n > rec.longest.get(k, 0)
    if grew:
        rec.longest[k] = n
    return {"coeffs": n, "growths": int(grew)}


# (module, attribute, layer, counter): the counter maps (recorder, args, kwargs,
# result) to {counter name: increment}; every layer also counts its calls.
LAYERS = [
    ("rsmoment.series", "mul_float", "series.mul_float", _n_out),
    ("rsmoment.series", "mul_exact", "series.mul_exact", _n_out),
    ("rsmoment.series", "sigma_sieve", "series.sieve", None),
    ("rsmoment.series", "sigma_sieve_exact", "series.sieve", None),
    ("rsmoment.series", "divisor_count_sieve", "series.sieve", None),
    ("rsmoment.modforms", "eigenforms", "modforms.eigenforms", _eigenforms),
    ("rsmoment.modforms", "load_newform", "modforms.load_newform", None),
    ("rsmoment.specialfn", "bessel_j_array", "specialfn.bessel", _points(1, "xs")),
    ("rsmoment.specialfn", "bessel_j", "specialfn.bessel", _one_point),
    ("rsmoment.rankin", "VQuadrature.values", "rankin.v_values", _points(1, "ys")),
    ("rsmoment.rankin", "VQuadrature.value", "rankin.v_values", _one_point),
    ("rsmoment.rankin", "effective_cutoff", "rankin.cutoff", None),
    ("rsmoment.rankin", "afe_tail_bound", "rankin.cutoff", None),
    ("rsmoment.rankin", "central_value", "rankin.central_value", _terms),
    ("rsmoment.tracefmla", "kloosterman_row", "tracefmla.kloosterman_row", None),
    ("rsmoment.tracefmla", "petersson_rhs_q", "tracefmla.rhs_q", None),
    ("rsmoment.tracefmla", "petersson_rhs_nf", "tracefmla.rhs_nf", None),
    ("rsmoment.tracefmla", "kloosterman_nf", "tracefmla.kloosterman_nf", None),
    ("rsmoment.numfield", "totally_positive_units", "numfield.units", None),
    ("rsmoment.moments", "omega_weights", "moments.omega", None),
    ("rsmoment.moments", "m_term_direct", "moments.m_term", None),
    ("rsmoment.moments", "m_term_residue", "moments.m_term", None),
    ("rsmoment.moments", "e_term", "moments.e_term", None),
    ("rsmoment.moments", "lhs_moment", "moments.lhs", None),
    ("rsmoment.moments", "recover_coefficient", "moments.recover", None),
    ("rsmoment.cli", "main", "cli", None),
]

_open = contextvars.ContextVar("open_span", default=None)


class _Span:
    __slots__ = ("path", "child_s")

    def __init__(self, path):
        self.path = path
        self.child_s = 0.0


class Recorder:
    """Aggregates closed spans by layer and by call path."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.paths = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.missing: list[str] = []
        self.longest: dict[int, int] = {}  # k -> longest eigenforms request

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        parent = _open.get()
        node = _Span((parent.path if parent else ()) + (name,))
        token = _open.set(node)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            _open.reset(token)
            if parent is not None:
                parent.child_s += dt
            own = dt - node.child_s
            self.self_s[name] += own
            self.counts[name]["calls"] += 1
            agg = self.paths[node.path]
            agg[0] += 1
            agg[1] += dt
            agg[2] += own

    def count(self, layer, name, n):
        self.counts[layer][name] += n

    def wrap(self, fn, layer, counter):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = rec.span(layer, fn, *args, **kwargs)
            if counter is not None:
                for key, n in counter(rec, args, kwargs, result).items():
                    rec.counts[layer][key] += n
            return result

        for attr in ("cache_clear", "cache_info"):  # lru_cache API stays usable
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        """Wrap every LAYERS entry wherever an rsmoment module holds it."""
        for mod_name, attr, layer, counter in LAYERS:
            owner, _, name = attr.rpartition(".")
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                mod = None
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                print(f"perfbench: {mod_name}.{attr} not found; layer {layer} "
                      "under-reported", file=sys.stderr)
                continue
            wrapped = self.wrap(orig, layer, counter)
            setattr(holder, name, wrapped)
            if owner:
                continue
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("rsmoment")
                        and getattr(other, name, None) is orig):
                    setattr(other, name, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """<layer>.self_s and <layer>.<counter> for every layer that ran."""
        out = {}
        for layer in {entry[2] for entry in LAYERS} & set(self.counts):
            out[f"{layer}.self_s"] = self.self_s[layer]
            for name, n in self.counts[layer].items():
                out[f"{layer}.{name}"] = n
        return out

    def dump(self) -> dict:
        tree = [{"path": "/".join(p), "calls": c, "total_s": t, "self_s": s}
                for p, (c, t, s) in sorted(self.paths.items())]
        return {"paths": tree, "missing_wrappers": self.missing,
                "counts": {k: dict(v) for k, v in self.counts.items()}}
