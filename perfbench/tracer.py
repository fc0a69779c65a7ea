"""Layer tracing for one benchmark repetition.

The tracer wraps the public functions of each icelab layer from outside
the package: every module-level binding of a wrapped function is replaced
(the modules bind each other's functions by ``from``-import), and the
``TruncatedSeries`` and ``Poly`` methods are replaced on their classes.
Each call records a span ``(name, start, end, parent, cost)`` in memory;
the per-layer metrics are computed from the spans and a few counters once
the run is over.  The patches are never removed, so install the tracer only
in a process that exists to be traced.

``cost`` is what the tracer itself spent on the call outside ``[start,
end]``, time that the caller would otherwise be charged for.  Its measured
part is the bookkeeping before ``start`` and, after ``end``, the stack pop
and the counter hook, each read off the clock.  Its calibrated part is the
rest of the wrapper (entering it, storing the span, leaving it), timed on a
wrapped no-op when the tracer is installed.
Self times subtract every child's cost along with its duration, and the
tracing overhead is the sum of the costs.  The clock reads inside ``[start,
end]`` (tens of nanoseconds a call) stay in the span's own self time.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

from icelab import correlations, identities, izergin_korepin, lattice, sampling
from icelab.algebra import perms, poly, series

# The wrapped functions of each layer; their spans are named "<layer>:<function>".
CONTOUR = ("efp_contour_asym", "efp_contour_sym", "efp_contour_cauchy",
           "efp_contour_double", "zbot_contour", "ztop_contour",
           "check_ordered_geometric_sum", "check_symmetric_residue_collapse")
GENERATING = ("sym_generating_poly", "sym_generating_at",
              "boundary_generating_fn")
IDENTITIES = ("rational_sqrt", "check_trig_antisymmetrization",
              "check_rational_antisymmetrization", "cauchy_kernel",
              "cauchy_ratio", "double_antisym_sum",
              "check_double_antisymmetrization", "subset_products_avoid_one",
              "check_w_matches_partition_fn", "cauchy_ratio_homogeneous",
              "cauchy_ratio_confluent", "vandermonde_limit",
              "check_confluent_det_vandermonde",
              "check_scaled_vandermonde_antisym",
              "check_asep_antisymmetrization", "check_degeneration_to_asep")
LATTICE = ("forward_vectors", "backward_vectors", "partition_function",
           "partition_function_bottom_up", "z_top_enum", "z_bot_enum",
           "rcp_enum", "boundary_correlation", "efp_enum",
           "brute_force_partition", "brute_force_rcp")
IZERGIN_KOREPIN = ("ik_inhomogeneous", "ik_homogeneous", "phi_jet",
                   "partial_inhomogeneous_relation")
POLY_FUNCTIONS = ("det", "poly_exact_div", "vandermonde", "vandermonde_value",
                  "poly_max_rel_err")
POLY_METHODS = ("__add__", "__sub__", "__mul__", "__pow__", "shift", "eval",
                "eval_partial")
SERIES_METHODS = ("__mul__", "mul_slice", "invert", "__pow__")
# Methods that a class also binds under a second name.
ALIASES = {"__add__": "__radd__", "__mul__": "__rmul__"}

COUNTERS = ("algebra.series.mul_calls", "algebra.series.pairs",
            "algebra.series.terms_out", "algebra.series.invert_calls",
            "correlations.residue.calls", "identities.perm_terms",
            "lattice.calls", "algebra.poly.mul_calls",
            "algebra.poly.det_calls", "sampling.drawn", "sampling.accepted")


class Tracer:
    """Spans and counters for every wrapped layer call in this process."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index or -1, cost)
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.call_cost = 0.0         # calibrated part of each span's cost

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``;
        ``after(args, result)`` updates the counters of a finished call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                start - enter + self.call_cost)
                raise
            end = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            spans[index] = (name, start, end, parent,
                            start - enter + clock() - end + self.call_cost)
            return result

        traced.__wrapped__ = fn
        return traced

    def calibrate(self, calls: int = 2000, batches: int = 7) -> float:
        """Set ``call_cost``: the median, over batches of ``calls`` calls of
        a wrapped no-op, of the time per call that neither its measured span
        duration and cost nor the calling loop explain."""
        def noop(*args):
            return None

        probe = Tracer()
        wrapped = probe.span("calibrate", noop, lambda args, result: None)
        clock, costs = time.perf_counter, []
        for _ in range(batches):
            probe.spans.clear()
            start = clock()
            for _ in range(calls):
                wrapped(1, 2)
            total = clock() - start
            start = clock()
            for _ in range(calls):
                pass
            loop = clock() - start
            seen = sum(end - begin + cost for _, begin, end, _, cost in probe.spans)
            costs.append((total - loop - seen) / calls)
        self.call_cost = max(0.0, statistics.median(costs))
        return self.call_cost

    def install(self):
        """Patch every binding of the layer functions and methods."""
        self.calibrate()
        counts = self.counts

        def bump(key, amount=1):
            counts[key] += amount

        def series_mul(args, result):
            a, b = args
            bump("algebra.series.mul_calls")
            bump("algebra.series.pairs", len(a.terms) * (
                len(b.terms) if isinstance(b, series.TruncatedSeries) else 1))
            bump("algebra.series.terms_out", len(result.terms))

        def series_mul_slice(args, result):
            a, b = args[0], args[1]
            bump("algebra.series.mul_calls")
            bump("algebra.series.pairs", len(a.terms) * len(b.terms))
            bump("algebra.series.terms_out", len(result.terms))

        def perm_terms(squared):
            def after(args, result):
                terms = math.factorial(len(args[1]))
                bump("identities.perm_terms", terms * terms if squared else terms)
            return after

        functions = {}   # original function -> (span name, counter hook)
        for name in CONTOUR:
            functions[getattr(correlations, name)] = (f"correlations.contour:{name}", None)
        for name in GENERATING:
            functions[getattr(correlations, name)] = (f"correlations.generating:{name}", None)
        functions[correlations.iterated_residue] = (
            "correlations.residue:iterated_residue",
            lambda args, result: bump("correlations.residue.calls"))
        for name in IDENTITIES:
            functions[getattr(identities, name)] = (f"identities:{name}", None)
        functions[perms.antisymmetrize] = ("identities:antisymmetrize", perm_terms(False))
        functions[identities.double_antisym_sum] = (
            "identities:double_antisym_sum", perm_terms(True))
        functions[identities.check_degeneration_to_asep] = (
            "identities:check_degeneration_to_asep", perm_terms(True))
        for name in LATTICE:
            functions[getattr(lattice, name)] = (
                f"lattice:{name}", lambda args, result: bump("lattice.calls"))
        for name in IZERGIN_KOREPIN:
            functions[getattr(izergin_korepin, name)] = (f"izergin_korepin:{name}", None)
        for name in POLY_FUNCTIONS:
            functions[getattr(poly, name)] = (f"algebra.poly:{name}", None)
        functions[poly.det] = (
            "algebra.poly:det", lambda args, result: bump("algebra.poly.det_calls"))

        wrapped = {fn: self.span(name, fn, after)
                   for fn, (name, after) in functions.items()}
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("icelab"):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

        hooks = {("algebra.series", "__mul__"): series_mul,
                 ("algebra.series", "mul_slice"): series_mul_slice,
                 ("algebra.series", "invert"):
                     lambda args, result: bump("algebra.series.invert_calls"),
                 ("algebra.poly", "__mul__"):
                     lambda args, result: bump("algebra.poly.mul_calls")}
        for layer, cls, names in (("algebra.series", series.TruncatedSeries, SERIES_METHODS),
                                  ("algebra.poly", poly.Poly, POLY_METHODS)):
            for name in names:
                method = self.span(f"{layer}:{cls.__name__}.{name}",
                                   vars(cls)[name], hooks.get((layer, name)))
                setattr(cls, name, method)
                if name in ALIASES:
                    setattr(cls, ALIASES[name], method)

        sample_until = sampling.DeterministicRng.sample_until

        def counted_sample_until(rng, draw, *args, **kwargs):
            def counted_draw():
                counts["sampling.drawn"] += 1
                return draw()
            value = sample_until(rng, counted_draw, *args, **kwargs)
            counts["sampling.accepted"] += 1
            return value

        sampling.DeterministicRng.sample_until = self.span(
            "sampling:sample_until", counted_sample_until)

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: each span's duration minus the duration
        and tracer cost of its child spans."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent, cost in self.spans:
            if parent >= 0:
                inner[parent] += end - start + cost
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, inner):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out

    def overhead(self) -> float:
        """Seconds the tracer added to this process's run."""
        return sum(span[4] for span in self.spans)

    def layer_metrics(self) -> tuple[dict, dict]:
        """(counts, times): the per-layer counters, which repeat exactly for
        one seed, and the per-layer self times in seconds."""
        c = self.counts
        gen = correlations.sym_generating_poly.__wrapped__.cache_info()
        fold = [f.__wrapped__.cache_info()
                for f in (lattice.forward_vectors, lattice.backward_vectors)]
        fold_hits = sum(info.hits for info in fold)
        fold_calls = fold_hits + sum(info.misses for info in fold)
        counts = {name: c[name] for name in COUNTERS if not name.startswith("sampling.")}
        counts.update({
            "algebra.series.keep_ratio": _ratio(c["algebra.series.terms_out"],
                                                c["algebra.series.pairs"]),
            "correlations.generating.cache_hit_ratio":
                _ratio(gen.hits, gen.hits + gen.misses),
            "lattice.fold_cache_hit_ratio": _ratio(fold_hits, fold_calls),
            "sampling.accept_ratio": _ratio(c["sampling.accepted"], c["sampling.drawn"]),
        })
        by_name = self.self_times()
        layer: dict[str, float] = {}
        for name, seconds in by_name.items():
            key = name.split(":", 1)[0]
            layer[key] = layer.get(key, 0.0) + seconds
        times = {
            "algebra.series.mul_s":
                by_name.get("algebra.series:TruncatedSeries.__mul__", 0.0)
                + by_name.get("algebra.series:TruncatedSeries.mul_slice", 0.0),
            "correlations.residue.self_s": layer.get("correlations.residue", 0.0),
            "correlations.generating.self_s": layer.get("correlations.generating", 0.0),
            "correlations.contour.self_s": layer.get("correlations.contour", 0.0),
            "identities.self_s": layer.get("identities", 0.0),
            "lattice.self_s": layer.get("lattice", 0.0),
            "izergin_korepin.self_s": layer.get("izergin_korepin", 0.0),
            "algebra.poly.self_s": layer.get("algebra.poly", 0.0),
            "cli.self_s": layer.get("suite", 0.0),
        }
        return counts, times


def _ratio(num: int, den: int) -> float:
    """num/den, or 0.0 when the layer was never reached."""
    return num / den if den else 0.0
