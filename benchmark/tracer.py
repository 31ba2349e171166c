"""Span tracing of ``relay_outage``, installed from outside the package.

The package binds names with ``from .randmat import sample_channels`` and
the like, so a wrapper on the defining module records nothing: each wrapper
is bound into the namespace of the module that *calls* the function.  A
name or module that is absent (for instance after two kernels are fused) is
listed in ``Tracer.missing`` and its layer reads 0 calls; it is not an error.

Spans live in memory while the program runs and are written out once, by
``Tracer.dump``, after it ends.  Tracing assumes the calls run on one
thread, which holds while ``RELAY_OUTAGE_THREADS`` is unset.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import re
import time
from collections import Counter, defaultdict


def _matrices(result) -> int:
    """Matrices in a stacked ``(..., rows, cols)`` array."""
    shape = getattr(result, "shape", ())
    return math.prod(shape[:-2]) if len(shape) >= 2 else 0


def _count_draws(result) -> dict[str, int]:
    return {
        "randmat.matrices_drawn": _matrices(result),
        "randmat.bytes_computed": int(getattr(result, "nbytes", 0)),
    }


def _count_spectra(result) -> dict[str, int]:
    shape = getattr(result, "shape", ())
    return {"randmat.spectra": math.prod(shape[:-1]) if shape else 0}


def _count_logdets(result) -> dict[str, int]:
    return {"mutual_info.logdets": math.prod(getattr(result, "shape", ()))}


def _count_realizations(result) -> dict[str, int]:
    return {"outage.mc_realizations": int(getattr(result, "size", 0))}


def _count_density(result) -> dict[str, int]:
    return {"wishart_stats.density_evals": 1}


def _curve_span(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    return "outage.analytical_fold" if method == "analytical" else "outage.empirical_cdf"


# (module of relay_outage that makes the call, attribute path, span name,
#  counter of the result).  A callable span name is computed from the call.
HOOKS = (
    ("mutual_info", "sample_channels", "randmat.sample_channels", _count_draws),
    ("outage", "sample_channels", "randmat.sample_channels", _count_draws),
    ("validation", "sample_channels", "randmat.sample_channels", _count_draws),
    ("mutual_info", "receive_gram", "randmat.receive_gram", None),
    ("outage", "receive_gram", "randmat.receive_gram", None),
    ("validation", "receive_gram", "randmat.receive_gram", None),
    ("mutual_info", "descending_spectra", "randmat.descending_spectra", _count_spectra),
    ("validation", "descending_spectra", "randmat.descending_spectra", _count_spectra),
    ("mutual_info", "logdet2_psd", "mutual_info.logdet2_psd", _count_logdets),
    ("outage", "logdet2_psd", "mutual_info.logdet2_psd", _count_logdets),
    ("mutual_info", "logdet_from_spectrum", "wishart_stats.logdet_from_spectrum", None),
    ("mutual_info", "run_chunks", "rng.run_chunks", None),
    ("outage", "run_chunks", "rng.run_chunks", None),
    ("outage", "estimate_hop_moments", "mutual_info.estimate_hop_moments", None),
    ("mutual_info", "sample_logdet_pairs", "mutual_info.sample_logdet_pairs", None),
    ("cli", "sample_logdet_pairs", "mutual_info.sample_logdet_pairs", None),
    ("validation", "sample_logdet_pairs", "mutual_info.sample_logdet_pairs", None),
    ("outage", "sample_min_mutual_info", "outage.sample_min_mutual_info", _count_realizations),
    ("validation", "sample_min_mutual_info", "outage.sample_min_mutual_info", _count_realizations),
    ("cli", "build_outage_curve", _curve_span, None),
    ("validation", "expected_logdet", "wishart_stats.expected_logdet", None),
    ("wishart_stats", "marginal_eigen_density", "wishart_stats.marginal_eigen_density", _count_density),
    ("validation", "marginal_eigen_density", "wishart_stats.marginal_eigen_density", _count_density),
    ("validation", "check_q_function", "validation.check_q_function", None),
    ("validation", "check_sandwich_bound", "validation.check_sandwich_bound", None),
    ("validation", "check_density_normalization", "validation.check_density_normalization", None),
    ("validation", "check_siso_rayleigh", "validation.check_siso_rayleigh", None),
    ("validation", "check_logdet_moments", "validation.check_logdet_moments", None),
    ("cli", "ResultTable.render", "cli.render", None),
    ("cli", "stats.ks_2samp", "cli.stats", None),
    ("cli", "stats.skew", "cli.stats", None),
)

# Per-layer metrics: name, unit, and where the value comes from.  ``self``
# is a span's self time (duration minus its child spans), ``total`` its
# whole duration, ``count`` an exact count from the hooks above.
LAYER_METRICS = (
    ("randmat.sample_channels.s", "s", "self", "randmat.sample_channels"),
    ("randmat.receive_gram.s", "s", "self", "randmat.receive_gram"),
    ("randmat.descending_spectra.s", "s", "self", "randmat.descending_spectra"),
    ("randmat.matrices_drawn", "count", "count", "randmat.matrices_drawn"),
    ("randmat.spectra", "count", "count", "randmat.spectra"),
    ("randmat.bytes_computed", "bytes", "count", "randmat.bytes_computed"),
    ("mutual_info.logdet2_psd.s", "s", "self", "mutual_info.logdet2_psd"),
    ("mutual_info.logdets", "count", "count", "mutual_info.logdets"),
    ("mutual_info.estimate_hop_moments.s", "s", "self", "mutual_info.estimate_hop_moments"),
    ("mutual_info.sample_logdet_pairs.s", "s", "self", "mutual_info.sample_logdet_pairs"),
    ("wishart_stats.logdet_from_spectrum.s", "s", "self", "wishart_stats.logdet_from_spectrum"),
    ("wishart_stats.expected_logdet.s", "s", "self", "wishart_stats.expected_logdet"),
    ("wishart_stats.marginal_eigen_density.s", "s", "self", "wishart_stats.marginal_eigen_density"),
    ("wishart_stats.density_evals", "count", "count", "wishart_stats.density_evals"),
    ("rng.run_chunks.self_s", "s", "self", "rng.run_chunks"),
    ("rng.chunks", "count", "count", "rng.chunks"),
    ("outage.sample_min_mutual_info.s", "s", "self", "outage.sample_min_mutual_info"),
    ("outage.mc_realizations", "count", "count", "outage.mc_realizations"),
    ("outage.empirical_cdf_s", "s", "self", "outage.empirical_cdf"),
    ("outage.analytical_fold_s", "s", "self", "outage.analytical_fold"),
    ("validation.check_q_function.s", "s", "self", "validation.check_q_function"),
    ("validation.check_sandwich_bound.s", "s", "self", "validation.check_sandwich_bound"),
    ("validation.check_density_normalization.s", "s", "self", "validation.check_density_normalization"),
    ("validation.check_siso_rayleigh.s", "s", "self", "validation.check_siso_rayleigh"),
    ("validation.check_logdet_moments.s", "s", "self", "validation.check_logdet_moments"),
    ("cli.main.self_s", "s", "self", "cli.main"),
    ("cli.stats_s", "s", "total", "cli.stats"),
    ("cli.render.s", "s", "self", "cli.render"),
)

# Counts that must repeat exactly between runs of one (workload, seed).
EXACT_COUNTS = (
    "randmat.matrices_drawn",
    "randmat.spectra",
    "mutual_info.logdets",
    "rng.chunks",
    "wishart_stats.density_evals",
)


class Tracer:
    """Records spans ``[name, parent index, start, end]`` and exact counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if span == "rng.run_chunks":
                args, kwargs = tracer._count_chunks(args, kwargs)
            result = tracer.call(span, fn, *args, **kwargs)
            if counter is not None:
                tracer.counts.update(counter(result))
            return result

        return traced

    def _count_chunks(self, args, kwargs):
        """Count each call of the chunk function handed to ``run_chunks``."""

        def counted(chunk_fn):
            @functools.wraps(chunk_fn)
            def chunk(*a, **kw):
                self.counts["rng.chunks"] += 1
                return chunk_fn(*a, **kw)

            return chunk

        if len(args) > 2:
            args = args[:2] + (counted(args[2]),) + args[3:]
        elif "chunk_fn" in kwargs:
            kwargs = dict(kwargs, chunk_fn=counted(kwargs["chunk_fn"]))
        return args, kwargs

    def install(self) -> None:
        for module_name, path, name, counter in HOOKS:
            try:
                owner = importlib.import_module(f"relay_outage.{module_name}")
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and total seconds per span name."""
        inner: defaultdict[int, float] = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent is not None:
                inner[parent] += end - start
        own: defaultdict[str, float] = defaultdict(float)
        total: defaultdict[str, float] = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            own[name] += end - start - inner[index]
            total[name] += end - start
        return own, total

    def layer_metrics(self) -> dict[str, float]:
        own, total = self.times()
        source = {"self": own, "total": total, "count": self.counts}
        return {
            name: source[kind].get(key, 0) for name, _, kind, key in LAYER_METRICS
        }

    def dump(self, path) -> None:
        records = [
            {"name": name, "parent": parent, "start": start, "end": end}
            for name, parent, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records, "counts": dict(self.counts)}, handle)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)")
IMPORT_FAMILIES = ("numpy", "scipy", "relay_outage")


def import_breakdown(importtime_stderr: str) -> dict[str, float]:
    """Seconds of import per family, from ``python -X importtime`` output.

    A module's self time goes to the family of its nearest enclosing module
    (itself included) that belongs to numpy, scipy or relay_outage, so the
    three figures do not overlap; ``total`` is every import's self time.
    """
    nodes: list[tuple[str, int, list[int]]] = []
    waiting: defaultdict[int, list[int]] = defaultdict(list)
    for line in importtime_stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        self_us, name = int(match.group(1)), match.group(4)
        level = (len(match.group(3)) - 1) // 2
        nodes.append((name, self_us, waiting.pop(level + 1, [])))
        waiting[level].append(len(nodes) - 1)

    seconds = dict.fromkeys(IMPORT_FAMILIES + ("total",), 0.0)
    pending = [(root, None) for root in waiting.get(0, [])]
    while pending:
        index, family = pending.pop()
        name, self_us, children = nodes[index]
        root = name.split(".")[0]
        family = root if root in IMPORT_FAMILIES else family
        if family is not None:
            seconds[family] += self_us / 1e6
        seconds["total"] += self_us / 1e6
        pending.extend((child, family) for child in children)
    return seconds
