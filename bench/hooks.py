"""Call hooks for the traced benchmark run.

Every hook wraps goldman callables from outside, wherever they are
bound: the class attribute for a method (and every other name in the
class that holds the same function, such as ``__rmul__``), and every
``goldman.*`` module attribute that holds the same function object.
Nothing under ``src/`` is edited.

Two kinds of hook exist:

* ``count``: bumps a call counter and nothing else, for the hottest
  functions, where a clock read per call would swamp the work;
* ``span``: times each call.  Self time is the duration minus the part
  covered by spans of other hooked calls beneath it; total time counts
  only the outermost call of a recursive chain.

Spans of hooks marked ``keep`` are stored one by one (name, start, end,
parent, workload); the others are aggregated, because some run millions
of times.  A hook whose target no longer exists is reported as absent,
never as a count of zero.
"""

import inspect
import statistics
import sys
import time

# (metric prefix, module, targets, kind, reported suffixes, options)
HOOKS = [
    ("groups.GroupSpec.pairing", "goldman.groups", ["GroupSpec.pairing"],
     "span", ["calls", "self_s"], {}),
    ("groups.GroupElement.arith", "goldman.groups",
     ["GroupElement.__add__", "GroupElement.__sub__", "GroupElement.__neg__",
      "GroupElement.__mul__"], "count", ["calls"], {}),
    ("groups.GroupElement.hash", "goldman.groups", ["GroupElement.__hash__"],
     "count", ["calls"], {}),
    ("groups.smith_normal_form", "goldman.groups", ["smith_normal_form"],
     "span", ["calls", "self_s"], {}),
    ("algebra.bracket", "goldman.algebra", ["bracket"],
     "span", ["calls", "self_s"], {}),
    ("algebra.k_map", "goldman.algebra", ["k_map"], "span", ["calls"], {}),
    ("complexes.Wedge.make", "goldman.complexes", ["Wedge.make"],
     "count", ["calls"], {}),
    ("complexes.wedge_chain", "goldman.complexes", ["wedge_chain"],
     "span", ["calls", "self_s"], {}),
    ("complexes.boundary", "goldman.complexes", ["boundary"],
     "span", ["calls", "self_s"], {}),
    ("complexes.WedgeChain.add", "goldman.complexes", ["WedgeChain.__add__"],
     "span", ["calls", "self_s"], {}),
    ("complexes.Cochain.value", "goldman.complexes", ["Cochain.value"],
     "span", ["calls", "self_s"], {}),
    ("complexes.enumerate_basis", "goldman.complexes", ["enumerate_basis"],
     "span", ["calls", "self_s"], {}),
    ("complexes.box_support", "goldman.complexes", ["box_support"],
     "span", ["calls", "repeat_calls", "self_s"], {"repeat": True}),
    ("linalg.in_span", "goldman.linalg", ["SparseRationalMatrix.in_span"],
     "span", ["calls", "total_s"], {}),
    ("linalg.column_echelon", "goldman.linalg",
     ["SparseRationalMatrix._column_echelon"], "span", ["calls"], {}),
    ("linalg.solve_affine", "goldman.linalg",
     ["SparseRationalMatrix.solve_affine"], "span", ["calls", "total_s"], {}),
    ("linalg.rank", "goldman.linalg", ["SparseRationalMatrix.rank"],
     "span", ["calls", "total_s"], {}),
    ("verify.span_insert", "goldman.verify", ["_IncrementalSpan.insert"],
     "span", ["calls", "accepted", "self_s", "useful_ratio"],
     {"accepted": True}),
    ("verify.inner_h2_certify", "goldman.verify", ["inner_h2_certify"],
     "span", ["calls", "total_s"], {"keep": True}),
    ("verify.f_on_ordered", "goldman.verify", ["f_on_ordered"],
     "span", ["calls", "self_s"], {}),
    ("verify.QuotientTensorSpace", "goldman.verify",
     ["QuotientTensorSpace.__init__"], "span", ["calls", "total_s"], {}),
    ("verify.scan_f_kills_boundaries", "goldman.verify",
     ["InnerCertification.scan_f_kills_boundaries"], "span", ["total_s"],
     {"keep": True}),
    ("verify.outer_h2_certify", "goldman.verify", ["outer_h2_certify"],
     "span", ["calls", "total_s", "p50_ms", "tail_ms", "tail_pct"],
     {"keep": True}),
    ("verify.ContractingHomotopy.identity_defect", "goldman.verify",
     ["ContractingHomotopy.identity_defect"], "span", ["calls", "self_s"], {}),
    ("verify.omega_check", "goldman.verify", ["omega_check"],
     "span", ["total_s"], {"keep": True}),
    ("verify.surface_generator_check", "goldman.verify",
     ["surface_generator_check"], "span", ["total_s"], {"keep": True}),
    ("verify.InnerCertification.boundary_witness", "goldman.verify",
     ["InnerCertification.boundary_witness"], "span", ["calls"], {}),
    ("verify.ideal_membership", "goldman.verify", ["ideal_membership"],
     "span", ["calls", "total_s"], {}),
] + [
    ("cli.run_%s_suite" % suite, "goldman.cli", ["run_%s_suite" % suite],
     "span", ["total_s"], {"keep": True})
    for suite in ("bracket", "complex", "inner", "outer", "gk", "surface",
                  "omega", "h1", "linext")
] + [
    ("cli.resolve_selection", "goldman.cli", ["resolve_selection"],
     "span", ["total_s"], {"keep": True}),
    ("cli.render", "goldman.cli", ["render_json", "render_text"],
     "span", ["total_s"], {"keep": True}),
]

UNITS = {"calls": "count", "accepted": "count", "repeat_calls": "count",
         "self_s": "s", "total_s": "s", "p50_ms": "ms", "tail_ms": "ms",
         "tail_pct": "%", "useful_ratio": "ratio"}


def metric_names():
    """Every per-layer metric name the hooks can report, with its unit."""
    return [("%s.%s" % (prefix, suffix), UNITS[suffix])
            for prefix, _, _, _, suffixes, _ in HOOKS for suffix in suffixes]


class Stat:
    """Aggregates for one hook."""

    __slots__ = ("calls", "self_s", "total_s", "depth", "accepted",
                 "repeats", "seen", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.accepted = 0
        self.repeats = 0
        self.seen = {}
        self.durations = []


class Tracer:
    """The hooks of one traced run: their aggregates and kept spans."""

    def __init__(self, workload):
        self.workload = workload
        self.stats = {}
        self.absent = {}
        self.spans = []
        self._covered = []   # per open span: time covered by child spans
        self._open = []      # ids of the open kept spans

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every hook target; record the ones that are missing."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "goldman" or name.startswith("goldman."))]
        for prefix, module_name, targets, kind, _, options in HOOKS:
            module = sys.modules.get(module_name)
            found = [_resolve(module, t) for t in targets]
            missing = [t for t, f in zip(targets, found) if f is None]
            if missing:
                self.absent[prefix] = "%s: no %s" % (module_name, ", ".join(missing))
                continue
            stat = self.stats[prefix] = Stat()
            for owner, raw in found:
                fn, rewrap = _unwrap(raw)
                if kind == "count":
                    wrapper = _count_wrapper(fn, stat)
                else:
                    wrapper = self._span_wrapper(prefix, fn, stat, options)
                _rebind(owner, raw, rewrap(wrapper), modules)

    def _span_wrapper(self, name, fn, stat, options):
        clock = time.perf_counter
        covered = self._covered
        open_ids = self._open
        spans = self.spans
        keep = options.get("keep", False)
        accepted = options.get("accepted", False)
        repeat = options.get("repeat", False)

        def wrapper(*args, **kwargs):
            if repeat:
                key = (id(args[0]),) + args[1:] + tuple(sorted(kwargs.items()))
                if key in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen[key] = args[0]   # keeps the id from being reused
            if keep:
                span_id = len(spans)
                spans.append(None)
                parent = open_ids[-1] if open_ids else None
                open_ids.append(span_id)
            covered.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - covered.pop()
                if not stat.depth:
                    stat.total_s += duration
                if covered:
                    covered[-1] += duration
                if keep:
                    open_ids.pop()
                    spans[span_id] = (name, start, end, parent)
                    stat.durations.append(duration)
            if accepted and out:
                stat.accepted += 1
            return out

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the hooks that exist, as {name: (value, unit)}.

        A ratio or percentile over zero calls reads 0.
        """
        out = {}
        for prefix, _, _, _, suffixes, _ in HOOKS:
            stat = self.stats.get(prefix)
            if stat is None:
                continue
            for suffix in suffixes:
                out["%s.%s" % (prefix, suffix)] = (_suffix_value(stat, suffix),
                                                   UNITS[suffix])
        return out

    def span_records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "workload": self.workload}
                for name, start, end, parent in self.spans]


def _suffix_value(stat, suffix):
    if suffix in ("calls", "accepted", "self_s", "total_s"):
        return getattr(stat, suffix)
    if suffix == "repeat_calls":
        return stat.repeats
    if suffix == "useful_ratio":
        return stat.accepted / stat.calls if stat.calls else 0.0
    if not stat.durations:
        return 0.0
    if suffix == "p50_ms":
        return statistics.median(stat.durations) * 1000.0
    value, pct = tail(stat.durations)
    return value * 1000.0 if suffix == "tail_ms" else pct


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no such
    percentile exists; the maximum is returned, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _resolve(module, target):
    """(owner, raw object) for 'func' or 'Class.method', or None."""
    if module is None:
        return None
    owner_name, _, attr = target.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return None
    raw = vars(owner).get(attr)
    if raw is None or not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        return None
    return owner, raw


def _unwrap(raw):
    """The plain function behind raw, and how to wrap a replacement alike."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__, type(raw)
    return raw, lambda f: f


def _count_wrapper(fn, stat):
    # Forwarding *args costs several times the counting itself, and
    # GroupElement.__hash__ runs tens of millions of times; the common
    # fixed arities get a plain wrapper.
    code = getattr(fn, "__code__", None)
    plain = (code is not None and not fn.__defaults__ and not code.co_kwonlyargcount
             and not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS))
    if plain and code.co_argcount == 1:
        def wrapper(a):
            stat.calls += 1
            return fn(a)
    elif plain and code.co_argcount == 2:
        def wrapper(a, b):
            stat.calls += 1
            return fn(a, b)
    else:
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
    return wrapper


def _rebind(owner, raw, replacement, modules):
    """Replace raw in its owner and wherever else goldman binds it."""
    holders = [owner] if isinstance(owner, type) else []
    holders.extend(modules)
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if value is raw:
                setattr(holder, attr, replacement)
