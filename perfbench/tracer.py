"""Times calls into siegelforms from outside the program.

Each traced function is replaced under the module attribute it is looked
up by, so calls the library makes through its own module globals (for
example `_g2_census_compute` calling `_g2_pass`, or `cohom._trace_at`
calling `ec_full_A2`) are timed as well.  Spans nest: a span's self time
is its duration minus the time covered by the spans inside it, so the
self times of all spans opened during a pass add up to the part of the
pass spent inside the library.

A binding that no longer exists (a private name renamed by a refactor) is
recorded as absent, its metrics read 0, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# per-layer metrics of a traced pass, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    "census.point_eval_s",
    "census.bitmap_s",
    "census.histogram_s",
    "census.field_tables_s",
    "census.ell_s",
    "census.g2_self_s",
    "census.g2_s.q3",
    "census.g2_s.q5",
    "census.g2_s.q7",
    "census.g2_s.q9",
    "census.g2_s.q11",
    "census.ell_s.q81",
    "census.cache_save_s",
    "census.cache_load_s",
    "census.models",
    "census.sqfree_ratio",
    "census.point_evals",
    "census.point_evals_per_s",
    "census.chunks",
    "census.cache_hits",
    "census.cache_misses",
    "census.bytes_written",
    "census.bytes_read",
    "cohom.sp_char_s",
    "cohom.sp_char_calls",
    "cohom.assembly_s",
    "cohom.corrections_s",
    "cohom.traces",
    "g1_modforms.basis_s",
    "g1_modforms.basis_calls",
    "g1_modforms.eigenforms_s",
    "g1_modforms.motive_trace_s",
    "g1_modforms.lvalues_s",
    "harder.check_s",
    "harder.resultant_s",
    "harder.resultants",
    "harder.untestable_rows",
    "siegel_g2.table_s",
    "siegel_g2.coeffs",
    "siegel_g2.maass_s",
    "hecke_satake.verify_s",
    "hecke_satake.spin_s",
    "g2data.load_s",
    "trace.unattributed_s",
    "trace.overhead_frac",
)

G2DATA_LOADERS = (
    "cusp_dims_jk",
    "published_lambdas",
    "s68_table",
    "congruence_rows",
    "published_a22",
    "quartic_factors",
)

# counts worked out from the enumeration sizes, not measured
COMPUTED = ("census.point_evals", "census.sqfree_ratio")


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if "bytes" in name:
        return "B"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s.q" in name:
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "1"
    return "count"


class Tracer:
    """Spans kept in memory: per-name self seconds, per-key inclusive
    seconds and event counts."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[0.0, 0.0]]  # frames of [start, seconds in child spans]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent: list[str] = []

    def span(self, name, fn, incl=None, after=None):
        """Wrap fn so each call is a span adding to self_s[name].  incl(args)
        names an inclusive-time key; after(result, args) updates counts."""
        stack, clock, self_s, incl_s = self.stack, self.clock, self.self_s, self.incl_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                self_s[name] += dur - frame[1]
                stack[-1][1] += dur
                if incl is not None:
                    incl_s[incl(*args, **kwargs)] += dur
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def leaf(self, name, calls, fn):
        """Cheaper span for a hot function that opens no traced span itself:
        a call counter and one clock pair per call."""
        stack, clock, self_s, counts = self.stack, self.clock, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dur = clock() - t0
            self_s[name] += dur
            counts[calls] += 1
            stack[-1][1] += dur
            return result

        return wrapper

    def generator(self, name, fn, on_item):
        """Wrap a generator function so that each next() is a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self.span(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                on_item(item, *args, **kwargs)
                yield item

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, module, attr, make) -> None:
        """Replace module.attr by make(module.attr), or record it absent."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        setattr(module, attr, make(fn))

    def start_pass(self) -> float:
        """Forget time spent in spans so far (set-up); returns the clock."""
        self.stack[0][1] = 0.0
        return self.clock()

    def spanned_s(self) -> float:
        """Seconds spent inside top-level spans since start_pass."""
        return self.stack[0][1]


class _CacheJson:
    """Stands in for the json module inside census: every json.dump there
    writes a cache file or a checkpoint, so it is timed as a cache save,
    and the bytes written and read are counted."""

    def __init__(self, tracer: Tracer):
        self._counts = tracer.counts
        self.dump = tracer.span("census.cache_save_s", self._dump)

    def __getattr__(self, name):
        return getattr(json, name)

    def _dump(self, obj, fh, **kwargs):
        json.dump(obj, fh, **kwargs)
        self._counts["census.bytes_written"] += fh.tell()

    def loads(self, text, **kwargs):
        self._counts["census.bytes_read"] += len(text)
        return json.loads(text, **kwargs)


def install_all(tracer: Tracer) -> None:
    """Wrap the bindings each layer metric is measured at."""
    t, counts = tracer, tracer.counts

    def g2_chunk(item, q, d, *args, **kwargs):
        models = len(item[1])
        counts["census.chunks"] += 1
        counts["census.models"] += models
        # q base-field points plus one point per conjugate pair of F_{q^2} - F_q
        counts["census.point_evals"] += models * (q + (q * q - q) // 2)

    def g2_pass(fn):
        wrapped = t.generator("census.point_eval_s", fn, g2_chunk)

        @functools.wraps(fn)
        def enumerate_models(q, d, *args, **kwargs):
            counts["census.enumerated"] += q ** d
            return wrapped(q, d, *args, **kwargs)

        return enumerate_models

    def cache_lookup(result, *args, **kwargs):
        counts["census.cache_hits" if result is not None else "census.cache_misses"] += 1

    def table_coeffs(result, *args, **kwargs):
        counts["siegel_g2.coeffs"] += len(result.coeffs)

    def untestable(result, *args, **kwargs):
        counts["harder.untestable_rows"] += sum(1 for r in result if r.untestable)

    def by_q(kind):
        return lambda q, *args, **kwargs: f"census.{kind}_s.q{q}"

    makers = {
        "census._g2_pass": g2_pass,
        "census._nonsquarefree_bitmap": lambda f: t.span("census.bitmap_s", f),
        "census._chunk_stats": lambda f: t.span("census.histogram_s", f),
        "census._tables": lambda f: t.span("census.field_tables_s", f),
        "census._ext_context": lambda f: t.span("census.field_tables_s", f),
        "census._load_cache": lambda f: t.span("census.cache_load_s", f, after=cache_lookup),
        "census._save_cache": lambda f: t.span("census.cache_save_s", f),
        "census.json": lambda f: _CacheJson(t),
        "census.g2_census": lambda f: t.span("census.g2_self_s", f, incl=by_q("g2")),
        "census.ell_census": lambda f: t.span("census.ell_s", f, incl=by_q("ell")),
        "cohom.g2_census": lambda f: t.span("census.g2_self_s", f, incl=by_q("g2")),
        "cohom.ell_census": lambda f: t.span("census.ell_s", f, incl=by_q("ell")),
        "cohom.sp_char": lambda f: t.leaf("cohom.sp_char_s", "cohom.sp_char_calls", f),
        "cohom.ec_full_A2": lambda f: t.span("cohom.assembly_s", f),
        "cohom.eis_correction": lambda f: t.span("cohom.corrections_s", f),
        "cohom.endo_correction": lambda f: t.span("cohom.corrections_s", f),
        "cohom._trace_at": lambda f: t.counter("cohom.traces", f),
        "cohom.motive_trace": lambda f: t.span("g1_modforms.motive_trace_s", f),
        "g1_modforms.motive_trace": lambda f: t.span("g1_modforms.motive_trace_s", f),
        "g1_modforms.basis_S": lambda f: t.counter(
            "g1_modforms.basis_calls", t.span("g1_modforms.basis_s", f)
        ),
        "g1_modforms.eigenforms": lambda f: t.span("g1_modforms.eigenforms_s", f),
        "harder.eigenforms": lambda f: t.span("g1_modforms.eigenforms_s", f),
        "g1_modforms.lambda_values": lambda f: t.span("g1_modforms.lvalues_s", f),
        "g1_modforms.critical_ratios": lambda f: t.span("g1_modforms.lvalues_s", f),
        "g1_modforms.congruence_prime_scan": lambda f: t.span("g1_modforms.lvalues_s", f),
        "harder.check_congruence": lambda f: t.span("harder.check_s", f),
        "harder.run_table": lambda f: t.span("harder.check_s", f, after=untestable),
        "harder.verify_reference_row": lambda f: t.span("harder.check_s", f),
        "harder.norm_via_resultant": lambda f: t.counter(
            "harder.resultants", t.span("harder.resultant_s", f)
        ),
        "siegel_g2.eisenstein_g2": lambda f: t.span("siegel_g2.table_s", f),
        "siegel_g2.chi10": lambda f: t.span("siegel_g2.table_s", f, after=table_coeffs),
        "siegel_g2.chi12": lambda f: t.span("siegel_g2.table_s", f, after=table_coeffs),
        "siegel_g2.maass_check": lambda f: t.span("siegel_g2.maass_s", f),
        "hecke_satake.verify_identity": lambda f: t.span("hecke_satake.verify_s", f),
        "hecke_satake.spin_factor": lambda f: t.span("hecke_satake.spin_s", f),
        "hecke_satake.newton_slopes": lambda f: t.span("hecke_satake.spin_s", f),
    }
    for name in G2DATA_LOADERS:
        makers[f"g2data.{name}"] = lambda f: t.span("g2data.load_s", f)
    for binding, make in makers.items():
        mod, attr = binding.split(".", 1)
        t.install(importlib.import_module(f"siegelforms.{mod}"), attr, make)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass; trace.overhead_frac is left to
    the caller, which also times untraced passes."""
    out = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_frac"}
    for values in (tracer.self_s, tracer.incl_s, tracer.counts):
        out.update((k, float(v)) for k, v in values.items() if k in out)
    enumerated = tracer.counts["census.enumerated"]
    out["census.sqfree_ratio"] = out["census.models"] / enumerated if enumerated else 0.0
    pe_s = out["census.point_eval_s"]
    out["census.point_evals_per_s"] = out["census.point_evals"] / pe_s if pe_s else 0.0
    out["trace.unattributed_s"] = wall_s - tracer.spanned_s()
    return out
