"""Outside-in span tracer for the tikbary package.

Each public function of a layer is replaced, in every tikbary module that
holds it (and in the `signals.FUNCTIONS` table), by a wrapper that records a
span: name, start, end and the index of the enclosing span.  Spans are kept
in memory; `summary()` turns them into per-layer calls, self time and work
counts.  A span's self time is its duration minus its direct children's
durations and minus the tracer's own bookkeeping done inside it, so counters
and fingerprints computed by the wrappers are charged to no layer.
"""

import hashlib
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# span name -> (module, function names); the span names are the layer
# prefixes of the per-layer metrics
LAYERS = {
    "quadrature": ("quadrature", ("gauss_rule",)),
    "basis.eval": ("basis", ("eval_orthonormal",)),
    "fit": ("regularized_fit", ("fit",)),
    "evaluate": ("regularized_fit", ("evaluate",)),
    "lebesgue": ("regularized_fit", ("lebesgue_constant",)),
    "barycentric.weights": ("barycentric", ("weights_gauss", "weights_product")),
    "barycentric.interp": ("barycentric", ("interp_barycentric", "interp_modified_lagrange")),
    "signals.f2": ("signals", ("f2",)),
    "signals.fn": ("signals", ("f1", "f3", "f1_plus_sin10x")),
    "signals.noise": ("signals", ("add_noise",)),
    "metrics.bounds": ("metrics", ("bound_check_stability", "bound_check_l2_noise",
                                   "bound_check_uniform_noise")),
    "metrics.surrogates": ("metrics", ("truncation_surrogates",)),
    "csvio.render": ("csvio", ("render_table",)),
    "csvio.parse": ("csvio", ("parse_table",)),
    "svgplot.render": ("svgplot", ("render_csv_text",)),
}


def fingerprint(a):
    a = np.ascontiguousarray(a, dtype=float)
    return (a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest())


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, bookkeeping inside]
        self.top_bookkeeping = 0.0
        self.counts = defaultdict(int)
        self.maxima = {}
        self.minima = {}
        self._seen = defaultdict(set)
        self._stack = []
        self._fit_keys = weakref.WeakKeyDictionary()
        self._patched = []
        self._default_lebesgue_grid = None

    # -- counters ---------------------------------------------------------
    def _reuse(self, name, key):
        """Count a call whose lambda-free key was seen before."""
        if key in self._seen[name]:
            self.counts[name + ".repeats"] += 1
        else:
            self._seen[name].add(key)

    def _before(self, name, args, kwargs):
        c = self.counts
        if name == "quadrature":
            points = _arg(args, kwargs, 1, "points")
            c["quadrature.points"] += points
            self._reuse(name, (_arg(args, kwargs, 0, "spec"), points))
        elif name == "basis.eval":
            x = _arg(args, kwargs, 2, "x")
            c["basis.eval.terms"] += (_arg(args, kwargs, 1, "l_max") + 1) * np.size(x)
        elif name == "fit":
            rule, L = _arg(args, kwargs, 0, "rule"), _arg(args, kwargs, 1, "L")
            c["fit.terms"] += (L + 1) * len(rule)
            key = (fingerprint(rule.nodes), fingerprint(rule.weights), L,
                   fingerprint(_arg(args, kwargs, 3, "samples")))
            self._reuse(name, key)
            return key
        elif name == "evaluate":
            approx, x = _arg(args, kwargs, 0, "approx"), _arg(args, kwargs, 1, "x")
            c["evaluate.terms"] += (approx.degree + 1) * np.size(x)
            fit_key = self._fit_keys.get(approx, ("untraced fit", id(approx)))
            self._reuse(name, (fit_key, fingerprint(x)))
        elif name == "lebesgue":
            rule, L = _arg(args, kwargs, 0, "rule"), _arg(args, kwargs, 1, "L")
            grid = _arg(args, kwargs, 3, "grid")
            if grid is None:
                grid = self._default_lebesgue_grid(rule)
            c["lebesgue.terms"] += np.size(grid) * (L + 1) * len(rule)
            self._reuse(name, (fingerprint(rule.nodes), L, fingerprint(grid)))
        elif name == "barycentric.interp":
            data, x = _arg(args, kwargs, 0, "data"), _arg(args, kwargs, 1, "x")
            c["barycentric.interp.pairs"] += np.size(x) * len(data)
            self._reuse(name, (fingerprint(data.nodes), fingerprint(x)))
        elif name == "signals.f2":
            c["signals.f2.points"] += np.size(_arg(args, kwargs, 0, "x"))
        return None

    def _after(self, name, info, result):
        if name == "quadrature":
            err = abs(float(np.sum(result.weights)) - result.mass) / result.mass
            self.maxima["quadrature.mass_rel_err"] = max(
                self.maxima.get("quadrature.mass_rel_err", 0.0), err)
        elif name == "fit":
            self._fit_keys[result] = info
        elif name == "metrics.bounds":
            self.minima["metrics.bounds.min_slack"] = min(
                self.minima.get("metrics.bounds.min_slack", float("inf")), result.slack)
        elif name in ("csvio.render", "svgplot.render"):
            self.counts[name + ".bytes"] += len(result.encode("utf-8"))

    # -- spans ------------------------------------------------------------
    def wrap(self, name, fn):
        tracer = self
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            t_in = clock()
            info = tracer._before(name, args, kwargs)
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = t_start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = t_end = clock()
                stack.pop()
            tracer._after(name, info, result)
            bookkeeping = (t_start - t_in) + (clock() - t_end)
            if parent is None:
                tracer.top_bookkeeping += bookkeeping
            else:
                spans[parent][4] += bookkeeping
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every layer function in every loaded tikbary module."""
        import tikbary.cli  # noqa: F401  loads every module that holds a layer
        import tikbary.regularized_fit as rf
        from tikbary import signals

        self._default_lebesgue_grid = rf.default_lebesgue_grid
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tikbary" or n.startswith("tikbary.")) and m is not None]
        for span_name, (module_name, fn_names) in LAYERS.items():
            home = sys.modules["tikbary." + module_name]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
                for key, value in list(signals.FUNCTIONS.items()):
                    if value is original:
                        self._patched.append((signals.FUNCTIONS, key, original))
                        signals.FUNCTIONS[key] = wrapper

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------
    def summary(self, wall_s):
        """Per-layer calls, self seconds and counters for a traced wall time."""
        child_time = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent is None:
                covered += end - start
            else:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, bookkeeping) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i] - bookkeeping
        traced_wall = wall_s - self.top_bookkeeping
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "minima": dict(self.minima),
            "uncovered_s": traced_wall - covered,
            "span_coverage": covered / traced_wall,
        }
