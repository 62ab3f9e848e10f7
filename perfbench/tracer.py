"""Spans around calls into each landauvar module, recorded from outside.

`Tracer.install` wraps the public callables listed in TARGETS.  It replaces
each one in its defining module, in every landauvar module that imported it
under some name, and, for `Polynomial` methods, on the class.  No source
file changes, and `uninstall` puts every original back.

A span records its name, start, end, parent span and the id of the command
that caused it.  Self time is the span's duration minus the time its direct
children cover; calls run on one thread and nest, so the children's
durations add up to the covered part.  `poly.evaluate` and
`variation.mat_mul` run hundreds of thousands of times per batch, so each
call is aggregated into its parent (its time counts as covered) instead of
getting a span of its own.
"""

from __future__ import annotations

import sys
import time


def _max(stats, key, value):
    stats[key] = max(stats.get(key, 0), value)


def _add(stats, key, value):
    stats[key] = stats.get(key, 0) + value


def _obs_determinant(stats, args, kwargs, result):
    _max(stats, "max_n", args[0].rows)


def _obs_resultant(stats, args, kwargs, result):
    a, b, var = args[:3]
    _max(stats, "max_n", a.degree_in(var) + b.degree_in(var))


def _obs_divides(stats, args, kwargs, result):
    _add(stats, "exact", result is not None)


def _obs_mul(stats, args, kwargs, result):
    if result is not NotImplemented:
        _max(stats, "max_terms", len(result.terms))


def _obs_components(stats, args, kwargs, result):
    _add(stats, "components", len(result))


def _obs_edges(stats, args, kwargs, result):
    _add(stats, "edges", len(result.edges))


def _obs_forced(stats, args, kwargs, result):
    _add(stats, "forced", bool(result.forced_zero))


def _obs_audit(stats, args, kwargs, result):
    _add(stats, "words_checked", result.words_checked)
    _add(stats, "unverified", len(result.unverified))


def _obs_words(stats, args, kwargs, result):
    _add(stats, "words", len(result))


def _obs_track(stats, args, kwargs, result):
    _add(stats, "steps", result.steps)
    _add(stats, "loop_steps", args[0].loop.steps)


# (module, attribute, span name, observer); "poly.Polynomial.x" names a method
TARGETS = [
    ("poly", "determinant", "poly.determinant", _obs_determinant),
    ("poly", "resultant", "poly.resultant", _obs_resultant),
    ("poly", "divides", "poly.divides", _obs_divides),
    ("poly", "Polynomial.__mul__", "poly.mul", _obs_mul),
    ("poly", "Polynomial.__rmul__", "poly.mul", _obs_mul),
    ("poly", "Polynomial.__add__", "poly.add", None),
    ("poly", "Polynomial.__radd__", "poly.add", None),
    ("poly", "Polynomial.substitute", "poly.substitute", None),
    ("poly", "Polynomial.coefficients_in", "poly.coefficients_in", None),
    ("poly", "Polynomial.evaluate", "poly.evaluate", "aggregate"),
    ("poly", "parse", "poly.parse", None),
    ("graphs", "symanzik_U", "graphs.symanzik_U", None),
    ("graphs", "symanzik_F", "graphs.symanzik_F", None),
    ("graphs", "load_graph", "graphs.load_graph", None),
    ("landau", "oneloop_landau", "landau.oneloop_landau", _obs_components),
    ("landau", "gram_matrix", "landau.gram_matrix", None),
    ("landau", "eliminate_critical_values", "landau.eliminate_critical_values", None),
    ("landau", "bubble_split", "landau.bubble_split", None),
    ("hierarchy", "hierarchy_graph", "hierarchy.hierarchy_graph", _obs_edges),
    ("hierarchy", "word_vanishes", "hierarchy.word_vanishes", _obs_forced),
    ("variation", "check_against_hierarchy", "variation.check_against_hierarchy",
     _obs_audit),
    ("variation", "compose", "variation.compose", None),
    ("variation", "mat_mul", "variation.mat_mul", "aggregate"),
    ("variation", "nilpotency_index", "variation.nilpotency_index", None),
    ("variation", "model_from_json", "variation.model_from_json", None),
    ("aomoto", "aomoto_symbol", "aomoto.aomoto_symbol", _obs_words),
    ("aomoto", "aomoto_components", "aomoto.aomoto_components", None),
    ("aomoto", "aomoto_edges", "aomoto.aomoto_edges", None),
    ("localhom", "normalize_word", "localhom.normalize_word", None),
    ("localhom", "local_rank", "localhom.local_rank", None),
    ("tracking", "track", "tracking.track", _obs_track),
]

ROOT = "cli"
SPAN_NAMES = [ROOT] + sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """Records spans for one process; install, run commands, uninstall."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, command id)
        self.calls = {}        # span name -> count
        self.self_s = {}       # span name -> summed self time
        self.stats = {}        # span name -> {stat: value}
        self.command = None
        self._stack = []       # open spans: [id, name, start, child time]
        self._next_id = 0
        self._patched = []     # (owner, attribute, original)

    # -- spans -------------------------------------------------------------------

    def open(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent else None, self.command))

    def _aggregate(self, name, duration):
        if self._stack:
            self._stack[-1][3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.stats.clear()

    # -- patching ------------------------------------------------------------------

    def _wrap(self, fn, name, observe):
        tracer = self
        perf = time.perf_counter
        if observe == "aggregate":
            def wrapper(*args, **kwargs):
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._aggregate(name, perf() - start)
        else:
            def wrapper(*args, **kwargs):
                tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close()
                if observe is not None:
                    observe(tracer.stats.setdefault(name, {}), args, kwargs, result)
                return result
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package="landauvar"):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, attribute, name, observe in TARGETS:
            home = sys.modules[f"{package}.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, observe))
                continue
            original = getattr(home, attribute)
            wrapper = self._wrap(original, name, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- metrics ---------------------------------------------------------------------

    def layer_metrics(self, stdout_bytes: int) -> dict:
        """Per-layer metrics of everything recorded since the last reset."""

        def calls(name):
            return self.calls.get(name, 0)

        def self_time(name):
            return self.self_s.get(name, 0.0)

        def stat(name, key):
            return self.stats.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in SPAN_NAMES:
            if name == ROOT:
                continue
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_time(name)
        out["poly.determinant.max_n"] = stat("poly.determinant", "max_n")
        out["poly.resultant.max_n"] = stat("poly.resultant", "max_n")
        out["poly.divides.exact_ratio"] = ratio(stat("poly.divides", "exact"),
                                                calls("poly.divides"))
        out["poly.mul.max_terms"] = stat("poly.mul", "max_terms")
        out["landau.oneloop_landau.components"] = stat("landau.oneloop_landau", "components")
        out["hierarchy.hierarchy_graph.edges"] = stat("hierarchy.hierarchy_graph", "edges")
        out["hierarchy.word_vanishes.forced_ratio"] = ratio(
            stat("hierarchy.word_vanishes", "forced"), calls("hierarchy.word_vanishes"))
        out["variation.audit.words_checked"] = stat("variation.check_against_hierarchy",
                                                    "words_checked")
        out["variation.audit.unverified"] = stat("variation.check_against_hierarchy",
                                                 "unverified")
        out["aomoto.aomoto_symbol.words"] = stat("aomoto.aomoto_symbol", "words")
        out["tracking.track.steps"] = stat("tracking.track", "steps")
        out["tracking.track.step_ratio"] = ratio(stat("tracking.track", "steps"),
                                                 stat("tracking.track", "loop_steps"))
        out["cli.self_s"] = self_time(ROOT)
        out["cli.stdout_bytes"] = stdout_bytes
        return out
