"""Span tracing of khsing from outside the package.

The tracer replaces public functions with timing wrappers at the places
where the pipeline looks them up (module globals and class attributes), so
the package itself is unchanged.  Spans are kept in memory with their
parent; self times and counts are derived from them after a pass.

A span is ``[name, parent_index, start, end, attrs]``.  ``attrs`` holds the
sizes a layer reports (nnz, dimensions, generators) and, for reductions and
d^2 products, references to the matrices so that the reuse ratios can be
computed after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

# Span name -> [(module attribute path, attribute)], i.e. every place a
# caller looks the function up.  Class attributes are patched on the class.
HOOKS = {
    "cli.main": [("khsing.cli", "main")],
    "diagram.parse": [("khsing.diagram", "parse"), ("khsing.cli", "parse")],
    "diagram.from_braid": [("khsing.diagram", "from_braid")],
    "invariants.homology_signature": [("khsing.invariants",
                                       "homology_signature"),
                                      ("khsing.cli", "homology_signature")],
    "genusone.skein_triangle_report": [("khsing.genusone",
                                        "skein_triangle_report"),
                                       ("khsing.cli", "skein_triangle_report")],
    "genusone.singular_complex": [("khsing.genusone", "singular_complex"),
                                  ("khsing.invariants", "singular_complex")],
    "genusone.genus_one_map": [("khsing.genusone", "genus_one_map")],
    "genusone.singular_complex_iterated": [("khsing.genusone",
                                            "singular_complex_iterated")],
    "khcube.build_cube": [("khsing.khcube", "build_cube"),
                          ("khsing.genusone", "build_cube"),
                          ("khsing.invariants", "build_cube")],
    "chain.validate": [("khsing.chain.ChainComplex", "validate")],
    "chain.homology": [("khsing.chain.ChainComplex", "homology")],
    "chain.is_chain_map": [("khsing.chain", "is_chain_map"),
                           ("khsing.genusone", "is_chain_map")],
    "chain.cone": [("khsing.chain", "cone"), ("khsing.genusone", "cone")],
    "chain.cone_functorial_map": [("khsing.chain", "cone_functorial_map"),
                                  ("khsing.genusone", "cone_functorial_map")],
    "chain.homology_functor_ranks": [("khsing.chain",
                                      "homology_functor_ranks"),
                                     ("khsing.genusone",
                                      "homology_functor_ranks")],
    "exactlinalg.homology_at": [("khsing.exactlinalg", "homology_at"),
                                ("khsing.chain", "homology_at")],
    "exactlinalg.rank": [("khsing.exactlinalg", "rank"),
                         ("khsing.chain", "rank")],
    "exactlinalg.smith_normal_form": [("khsing.exactlinalg",
                                       "smith_normal_form")],
    "exactlinalg.kernel_basis": [("khsing.exactlinalg", "kernel_basis"),
                                 ("khsing.chain", "kernel_basis")],
    "exactlinalg.matmul": [("khsing.exactlinalg.SparseMatrix", "__mul__")],
}

# Spans the benchmark opens itself around its own steps.
BENCH_SPANS = ("bench.setup", "bench.case")

SPAN_NAMES = tuple(HOOKS) + BENCH_SPANS
LAYERS = ("bench", "cli", "invariants", "genusone", "khcube", "chain",
          "exactlinalg", "diagram")
MATMUL_PARENTS = ("chain.validate", "chain.is_chain_map",
                  "exactlinalg.homology_at")
REDUCERS = ("exactlinalg.rank", "exactlinalg.smith_normal_form")
REDUCTION_SCOPES = ("chain.homology", "chain.homology_functor_ranks")


def _matrix_args(name, parent, args, out):
    """Sizes (and matrix references) a span records; None for most."""
    if name == "exactlinalg.smith_normal_form":
        m = args[0]
        return {"nnz": m.nnz(), "dim": max(m.rows, m.cols), "mats": (m,)}
    if name == "exactlinalg.rank":
        return {"mats": (args[0],)}
    if name == "exactlinalg.homology_at":
        return {"mats": (args[0], args[1])}
    if name == "exactlinalg.matmul" and parent == "chain.validate":
        return {"mats": (args[0], args[1])}
    if name == "khcube.build_cube":
        cx = out.complex
        return {"generators": cx.total_rank(),
                "nnz": sum(m.nnz() for m in cx.diffs.values())}
    return None


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, modules):
        self._modules = modules  # dotted name -> module object
        self._saved = []
        self.spans = []
        self._stack = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            parent = self.spans[rec[1]][0] if rec[1] >= 0 else None
            rec[4] = _matrix_args(name, parent, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def install(self):
        for name, sites in HOOKS.items():
            originals = {}
            for owner_path, attr in sites:
                owner = self._resolve(owner_path)
                fn = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if fn not in originals:
                    originals[fn] = self._wrap(name, fn)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, originals[fn])

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _resolve(self, path):
        if path in self._modules:
            return self._modules[path]
        mod_path, cls = path.rsplit(".", 1)
        return getattr(self._modules[mod_path], cls)

    def take(self):
        """Return the recorded spans and start a fresh recording."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """Stand-in for untraced passes."""

    def span(self, name):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------


def _fingerprint(m):
    return (m.rows, m.cols, tuple(sorted(m.data.items())))


def summarize(spans):
    """Counts and self times of one traced pass.

    Returns ``(counts, times)``: ``counts`` holds exact integers and ratios
    that must repeat from pass to pass; ``times`` holds seconds.
    """
    self_time = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            self_time[s[1]] -= s[3] - s[2]

    counts = Counter()
    times = defaultdict(float)
    for name in SPAN_NAMES:
        counts[f"{name}.calls"] = 0
        times[f"{name}.self_s"] = 0.0
    for key in ("exactlinalg.smith_normal_form.nnz_in",
                "exactlinalg.smith_normal_form.max_dim",
                "khcube.build_cube.generators", "khcube.build_cube.nnz"):
        counts[key] = 0
    for parent in MATMUL_PARENTS + ("other",):
        counts[f"exactlinalg.matmul.under.{parent}.calls"] = 0
        times[f"exactlinalg.matmul.under.{parent}.self_s"] = 0.0
    for layer in LAYERS:
        times[f"layer.{layer}.self_s"] = 0.0

    reduction_groups = defaultdict(list)  # scope span index -> matrices
    d2_products = 0
    validated_pairs = set()
    for ix, (name, parent, _t0, _t1, attrs) in enumerate(spans):
        counts[f"{name}.calls"] += 1
        times[f"{name}.self_s"] += self_time[ix]
        times[f"layer.{name.split('.')[0]}.self_s"] += self_time[ix]
        pname = spans[parent][0] if parent >= 0 else None
        if name == "exactlinalg.smith_normal_form":
            counts[f"{name}.nnz_in"] += attrs["nnz"]
            counts[f"{name}.max_dim"] = max(counts[f"{name}.max_dim"],
                                            attrs["dim"])
        elif name == "khcube.build_cube":
            counts[f"{name}.generators"] += attrs["generators"]
            counts[f"{name}.nnz"] += attrs["nnz"]
        elif name == "exactlinalg.matmul":
            under = pname if pname in MATMUL_PARENTS else "other"
            counts[f"{name}.under.{under}.calls"] += 1
            times[f"{name}.under.{under}.self_s"] += self_time[ix]
            if under in ("chain.validate", "exactlinalg.homology_at"):
                d2_products += 1
            if under == "chain.validate":
                validated_pairs.add(tuple(_fingerprint(m)
                                          for m in attrs["mats"]))
        if name == "exactlinalg.homology_at" or (
                name in REDUCERS and pname != "exactlinalg.homology_at"):
            scope = _enclosing(spans, ix, REDUCTION_SCOPES)
            reduction_groups[scope].extend(
                m for m in attrs["mats"] if m.nnz())

    handed = sum(len(v) for v in reduction_groups.values())
    distinct = sum(len({_fingerprint(m) for m in v})
                   for v in reduction_groups.values())
    counts["exactlinalg.reduce_reuse_ratio"] = handed / max(distinct, 1)
    counts["verify.recheck_ratio"] = d2_products / max(len(validated_pairs), 1)
    return dict(counts), dict(times)


def _enclosing(spans, ix, names):
    p = spans[ix][1]
    while p >= 0 and spans[p][0] not in names:
        p = spans[p][1]
    return p


def coverage(spans, wall):
    """Sum of all self times (= sum of root span durations) over ``wall``."""
    return sum(s[3] - s[2] for s in spans if s[1] < 0) / wall


def median_times(per_pass):
    keys = per_pass[0].keys()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
