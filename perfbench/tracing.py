"""Spans around the calls into padicres' layers, installed from outside.

Tracer.install() rebinds each target function, in every padicres module that
holds a reference to it (for example limits.cyclic_resultant,
links.cyclic_resultant and cli.cyclic_resultant), to a wrapper that records
a span (name, start, end, parent).  uninstall() puts every original back.
Nothing under src/ changes; with the tracer off the program runs untouched.

A span's self time is its duration minus the time its child spans cover.
The wrappers assume one caller at a time (jobs=1), as the workloads run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


def _elim_name(f, p, j):
    return "res.elim" if f.num_vars >= 2 else "res.elim.univariate"


# (module, attribute, span name or function of the call's arguments,
#  distinct-input key or None)
SPANS = [
    ("padicres.cli", "main", "cli", None),
    ("padicres.parsing", "parse_poly", "parse", None),
    ("padicres.resultants", "cyclic_resultant", "res.cyclic", None),
    ("padicres.resultants", "phi_resultant_last_var", _elim_name, lambda f, p, j: (f, p, j)),
    ("padicres.resultants", "resultant_phi_int", "res.final", lambda p, j, g: (p, j, g.coeffs)),
    ("padicres.resultants", "cyclic_resultant_baseline", "oracle.baseline", None),
    ("padicres.resultants", "complex_root_product", "oracle.root_product", None),
    ("padicres.links", "character_oracle", "oracle.character", None),
    ("padicres.limits", "limit_estimate", "limits.window", None),
    ("padicres.limits", "iwasawa_fit", "limits.iwasawa", None),
    ("padicres.limits", "lambda_mu_structural", "limits.structural", None),
    ("padicres.limits", "zero_limit_predicate", "limits.zero_predicate", None),
    ("padicres.links", "h1_order", "links.h1", None),
    ("padicres.links", "h1_nonp_limit", "links.nonp_limit", None),
    ("padicres.links", "whitehead_closed_form", "links.closed_form", None),
    ("padicres.links", "two_part_exponent_check", "links.twopart", None),
    ("padicres.links", "whitehead_link_spec", "links.spec", None),
    ("padicres.links", "trefoil_spec", "links.spec", None),
    ("padicres.cyclo", "CycloPadic.norm_lift", "cyclo.norm", None),
    ("padicres.cyclo", "log_with_shift", "cyclo.log", None),
    ("padicres.cyclo", "level_log_norm", "cyclo.log_norm", None),
]
# counted, not timed: too many calls for a span each
COUNTS = [
    ("padicres.cyclo", "CycloPadic.__mul__", "cyclo.mul"),
    ("padicres.cyclo", "CycloPadic.__rmul__", "cyclo.mul"),
]

# per-layer metric -> (kind, span or counter name); kinds: calls, s (total
# time of the outermost spans of that name), self_s, distinct_ratio
LAYER_METRICS = {
    "res.final.calls": ("calls", "res.final"),
    "res.final.s": ("s", "res.final"),
    "res.final.distinct_ratio": ("distinct_ratio", "res.final"),
    "res.elim.calls": ("calls", "res.elim"),
    "res.elim.s": ("s", "res.elim"),
    "res.elim.distinct_ratio": ("distinct_ratio", "res.elim"),
    "res.cyclic.calls": ("calls", "res.cyclic"),
    "res.cyclic.s": ("s", "res.cyclic"),
    "res.value_bits": ("counter", "res.value_bits"),
    "oracle.baseline.s": ("s", "oracle.baseline"),
    "oracle.root_product.s": ("s", "oracle.root_product"),
    "oracle.character.s": ("s", "oracle.character"),
    "limits.window.calls": ("calls", "limits.window"),
    "limits.window.self_s": ("self_s", "limits.window"),
    "limits.iwasawa.s": ("s", "limits.iwasawa"),
    "links.h1.s": ("s", "links.h1"),
    "links.nonp_limit.s": ("s", "links.nonp_limit"),
    "links.closed_form.s": ("s", "links.closed_form"),
    "links.twopart.s": ("s", "links.twopart"),
    "cyclo.norm.calls": ("calls", "cyclo.norm"),
    "cyclo.norm.s": ("s", "cyclo.norm"),
    "cyclo.log.s": ("s", "cyclo.log"),
    "cyclo.log_norm.s": ("s", "cyclo.log_norm"),
    "cyclo.mul.calls": ("counter", "cyclo.mul"),
    "cli.self_s": ("self_s", "cli"),
    "parse.s": ("s", "parse"),
}
UNITS = {"calls": "count", "counter": "count", "s": "s", "self_s": "s", "distinct_ratio": "ratio"}
UNITS_BY_METRIC = {"res.value_bits": "bit"}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, name = attr.split(".")
        return getattr(owner, cls), name
    return owner, attr


class Tracer:
    """Records spans and counts for one pass at a time; see reset()."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.keys = defaultdict(set)

    # -- installing the wrappers --------------------------------------------

    def _span_wrapper(self, fn, name, key):
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if key is not None:
                self.keys[label].add(key(*args, **kwargs))
            span = [label, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if label == "res.cyclic":
                self.counts["res.value_bits"] += abs(result).bit_length()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, module: str, attr: str, make):
        owner, name = _resolve(module, attr)
        if isinstance(owner, type):
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, make(original))
            return
        original = getattr(owner, name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "padicres" or mod_name.startswith("padicres.")):
                continue
            for attr_name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr_name, original))
                    setattr(mod, attr_name, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, key in SPANS:
            self._rebind(module, attr, lambda fn, name=name, key=key: self._span_wrapper(fn, name, key))
        for module, attr, name in COUNTS:
            self._rebind(module, attr, lambda fn, name=name: self._count_wrapper(fn, name))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading the spans ----------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset()."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_time = Counter(), Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child[i]
            # only the outermost span of a name counts toward its total time
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total[name] += end - start
        out = {}
        for metric, (kind, name) in LAYER_METRICS.items():
            if kind == "calls":
                out[metric] = calls[name]
            elif kind == "counter":
                out[metric] = self.counts[name]
            elif kind == "s":
                out[metric] = total[name]
            elif kind == "self_s":
                out[metric] = self_time[name]
            else:
                out[metric] = len(self.keys[name]) / calls[name] if calls[name] else 0.0
        return out

    def dump(self, origin: float) -> dict:
        """The recorded spans, times relative to `origin`, for writing out."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], round(a - origin, 7), round(b - origin, 7), p] for n, a, b, p in self.spans],
        }


def metric_unit(metric: str) -> str:
    return UNITS_BY_METRIC.get(metric) or UNITS[LAYER_METRICS[metric][0]]
