"""Spans around isoframe's public functions, installed from outside.

`Tracer.install` wraps each boundary function and rebinds every isoframe
module attribute that refers to it, so calls made inside isoframe (for
example `dim_phi` looking up `phi_basis`, or `scaling_reduce` calling
`verify`) pass through the wrapper too.  Spans are recorded only while
`recording` is set, which the worker does around each timed job; they stay
in memory with their parent ids and are written out at the end.

`sphere_moment` and `RealForm.__post_init__` run millions of times per run
and stay unwrapped; their work shows up as the `term_pairs` counts.

Only traced runs import this module.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction
from math import comb


def _bits(values):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values if isinstance(v, Fraction)), default=0)


def _out_terms(args, kwargs, out):
    return {"out_terms": len(out.terms), "max_bits": _bits(out.terms.values())}


def _mul_pairs(args, kwargs, out):
    other = args[1]
    return {"term_pairs": len(args[0].terms) * len(other.terms) if hasattr(other, "terms") else 0}


def _inner_pairs(args, kwargs, out):
    return {"term_pairs": len(args[0].terms) * len(args[1].terms)}


def _add_row(args, kwargs, out):
    return {"width": len(args[1]), "dependent": int(out is not None)}


def _inverse(args, kwargs, out):
    return {"size": len(out), "max_bits": _bits(v for row in out for v in row)}


def _gram(args, kwargs, out):
    return {"gram_size": len(out.forms)}


def _residual(args, kwargs, out):
    return {"residual_terms": len(out.residual.terms)}


# (span name, module, attribute, attribute function).  An attribute "A.b"
# names method b of class A in the module.
TARGETS = [
    ("kscalar", "kscalar", "k_mul", None),
    ("kscalar", "kscalar", "k_conj", None),
    ("kscalar", "kscalar", "inner_product", None),
    ("kscalar", "kscalar", "k_norm_sq", None),
    ("kscalar", "kscalar", "scalar_from_str", None),
    ("kscalar", "kscalar", "scalar_to_str", None),
    ("forms.frame_form", "forms", "frame_form", _out_terms),
    ("forms.mul", "forms", "RealForm.__mul__", _mul_pairs),
    ("forms.add", "forms", "RealForm.__add__", None),
    ("forms.norm_power_form", "forms", "norm_power_form", None),
    ("forms.form_inner", "forms", "form_inner", _inner_pairs),
    ("forms.evaluate", "forms", "evaluate", None),
    ("linalg.add_row", "linalg", "RowReducer.add_row", _add_row),
    ("linalg.matrix_inverse", "linalg", "matrix_inverse", _inverse),
    ("phi.phi_basis", "phi", "phi_basis", None),
    ("phi.dim_phi", "phi", "dim_phi", None),
    ("phi.dual_basis", "phi", "dual_basis", _gram),
    ("frames.verify", "frames", "verify", _residual),
    ("frames.dependence", "frames", "dependence", None),
    ("frames.reduce_once", "frames", "reduce_once", None),
    ("frames.a_hat", "frames", "ScalingForms.a_hat", None),
    ("frames.scaling_coefficients", "frames", "scaling_coefficients", None),
    ("frames.scaling_reduce", "frames", "scaling_reduce", None),
    ("frames.io", "frames", "parse_frame", None),
    ("frames.io", "frames", "serialize_frame", None),
    ("frames.io", "frames", "load_frame", None),
    ("frames.io", "frames", "save_frame", None),
    ("cli.entry", "cli", "entry", None),
]

# Per-layer metrics: (name, unit, better).  Counts and self times are per
# traced pass; `max_bits`, `size` and `gram_size` are maxima, `width` and
# `rank_ratio` means over calls, `cli.startup_s` a median over cli jobs.
METRICS = [
    ("phi.phi_basis.calls", "count", "lower"),
    ("phi.phi_basis.self_s", "s", "lower"),
    ("phi.phi_basis.monomials", "count", "lower"),
    ("phi.phi_basis.rank_ratio", "ratio", "higher"),
    ("phi.dim_phi.calls", "count", "lower"),
    ("phi.dim_phi.self_s", "s", "lower"),
    ("linalg.add_row.calls", "count", "lower"),
    ("linalg.add_row.self_s", "s", "lower"),
    ("linalg.add_row.width", "columns", "lower"),
    ("linalg.add_row.dependent", "count", "lower"),
    ("forms.frame_form.calls", "count", "lower"),
    ("forms.frame_form.self_s", "s", "lower"),
    ("forms.frame_form.out_terms", "count", "lower"),
    ("forms.frame_form.max_bits", "bits", "lower"),
    ("forms.mul.calls", "count", "lower"),
    ("forms.mul.self_s", "s", "lower"),
    ("forms.mul.term_pairs", "count", "lower"),
    ("forms.add.calls", "count", "lower"),
    ("forms.add.self_s", "s", "lower"),
    ("forms.norm_power_form.calls", "count", "lower"),
    ("forms.norm_power_form.self_s", "s", "lower"),
    ("forms.form_inner.calls", "count", "lower"),
    ("forms.form_inner.self_s", "s", "lower"),
    ("forms.form_inner.term_pairs", "count", "lower"),
    ("phi.dual_basis.calls", "count", "lower"),
    ("phi.dual_basis.self_s", "s", "lower"),
    ("phi.dual_basis.gram_size", "count", "lower"),
    ("linalg.matrix_inverse.calls", "count", "lower"),
    ("linalg.matrix_inverse.self_s", "s", "lower"),
    ("linalg.matrix_inverse.size", "count", "lower"),
    ("linalg.matrix_inverse.max_bits", "bits", "lower"),
    ("frames.a_hat.calls", "count", "lower"),
    ("forms.evaluate.calls", "count", "lower"),
    ("forms.evaluate.self_s", "s", "lower"),
    ("frames.scaling_reduce.self_s", "s", "lower"),
    ("frames.scaling_coefficients.self_s", "s", "lower"),
    ("frames.verify.calls", "count", "lower"),
    ("frames.verify.self_s", "s", "lower"),
    ("frames.verify.residual_terms", "count", "lower"),
    ("frames.dependence.calls", "count", "lower"),
    ("frames.dependence.self_s", "s", "lower"),
    ("frames.reduce_once.calls", "count", "lower"),
    ("frames.reduce_once.self_s", "s", "lower"),
    ("frames.io.self_s", "s", "lower"),
    ("kscalar.calls", "count", "lower"),
    ("kscalar.self_s", "s", "lower"),
    ("cli.entry.calls", "count", "lower"),
    ("cli.entry.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

MAX_STATS = {"max_bits", "size", "gram_size"}
MEAN_STATS = {"width", "rank_ratio"}


class Tracer:
    """In-memory span store; a span is (id, parent, name, start, end, stats,
    job), with parent -1 for a span called from the benchmark itself."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.recording = False
        self.job = None

    def _wrap(self, name, fn, stats):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            done = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = stats(args, kwargs, out) if stats and done else None
                self.spans[sid] = (sid, parent, name, start, end, extra, self.job)
        traced.__wrapped__ = fn
        return traced

    def _wrap_phi_basis(self, cached):
        # phi_basis is an lru_cache object; only misses build a basis, so
        # the size counts are taken from misses alone.
        def stats(args, kwargs, out):
            if cached.cache_info().misses == misses[0]:
                return None
            misses[0] = cached.cache_info().misses
            n_vars = out.field.real_dimension * out.m
            count = comb(n_vars + out.p - 1, out.p)
            return {"monomials": count, "rank_ratio": out.dimension / count}

        misses = [cached.cache_info().misses]
        return self._wrap("phi.phi_basis", cached, stats)

    def install(self):
        """Wrap every target and rebind it wherever isoframe refers to it."""
        import importlib

        modules = {name: importlib.import_module(f"isoframe.{name}")
                   for name in ("kscalar", "forms", "linalg", "phi", "frames", "cli")}
        package = sys.modules["isoframe"]
        namespaces = [package] + list(modules.values())
        for span, mod_name, attr, stats in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(span, original, stats)
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, key, wrapped)
                continue
            original = getattr(owner, attr)
            if span == "phi.phi_basis":
                wrapped = self._wrap_phi_basis(original)
            else:
                wrapped = self._wrap(span, original, stats)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
        return modules

    def records(self):
        """The spans as dicts; ids index the list, parent -1 marks a root."""
        return [{"id": sid, "parent": parent, "name": name, "start": start, "end": end,
                 "stats": extra, "job": job}
                for sid, parent, name, start, end, extra, job in self.spans]


def rebase(spans, offset, job):
    """Spans from another process, with ids shifted past `offset` and the
    job id set."""
    return [dict(s, id=s["id"] + offset,
                 parent=s["parent"] + offset if s["parent"] >= 0 else -1, job=job)
            for s in spans]


def write_spans(path, spans, meta=None):
    """JSON lines: an optional {"meta": ...} line, then one span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path):
    meta, spans = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "meta" in obj:
                meta = obj["meta"]
            else:
                spans.append(obj)
    return meta, spans


def aggregate(spans):
    """Per-layer totals from spans: calls, self time and summed stats.

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent.
    """
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals = {}
    for s in spans:
        name = s["name"]
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += s["end"] - s["start"] - child.get(s["id"], 0.0)
        for key, value in (s["stats"] or {}).items():
            if key in MAX_STATS:
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
                entry[f"{key}.n"] = entry.get(f"{key}.n", 0) + 1
    return totals


def layer_metrics(totals, traced_passes, startups, overhead):
    """Flatten aggregated totals into the per-layer metric dict.

    Sums are divided by the number of traced passes; `width` and
    `rank_ratio` are means over the calls that reported them.
    """
    out = {}
    for name, unit, _ in METRICS:
        if name == "cli.startup_s":
            value = statistics.median(startups) if startups else 0.0
        elif name == "trace.overhead":
            value = overhead
        else:
            layer, stat = name.rsplit(".", 1)
            entry = totals.get(layer, {})
            raw = entry.get(stat, 0)
            if stat in MAX_STATS:
                value = raw
            elif stat in MEAN_STATS:
                count = entry.get(f"{stat}.n", 0)
                value = raw / count if count else 0.0
            else:
                value = raw / traced_passes
        out[name] = {"value": value, "unit": unit}
    return out
