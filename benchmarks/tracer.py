"""In-memory spans for the traced benchmark run, and the per-layer metrics.

A span is one call the benchmark makes into a qdsbch public function: its
name (``<module>.<operation>``), start and end (``perf_counter_ns``), the
span that caused it, the request it belongs to (one Monte Carlo trial or one
verify case is one request), how many operations it covered, and its source:
``main`` when the workload itself made the call, ``probe`` when a small fixed
run made it to fill in a layer the workload never reaches.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

MAIN = "main"
PROBE = "probe"

_clock = time.perf_counter_ns


class Tracer:
    """Records spans and counters; ``source`` and ``trace`` are set by the caller."""

    def __init__(self):
        # (span id, parent id, trace id, source, name, start ns, end ns, count)
        self.spans = []
        self.counters = Counter()  # (source, name) -> count
        self.source = MAIN
        self.trace = 0
        self._stack = [0]
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        self._next_id += 1
        sid = self._next_id
        t0 = _clock()
        out = fn(*args, **kwargs)
        t1 = _clock()
        self.spans.append((sid, self._stack[-1], self.trace, self.source, name, t0, t1, 1))
        return out

    @contextmanager
    def span(self, name, count=1):
        """A span around a block; count is the number of operations it covers."""
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self._stack.pop()
            self.spans.append((sid, parent, self.trace, self.source, name, t0, t1, count))

    def count(self, name, n=1):
        self.counters[(self.source, name)] += n

    def self_times(self):
        """Span id -> duration minus the time its child spans cover (ns)."""
        covered = defaultdict(int)
        for _, parent, _, _, _, t0, t1, _ in self.spans:
            if parent:
                covered[parent] += t1 - t0
        return {s[0]: s[6] - s[5] - covered[s[0]] for s in self.spans}

    def layer_self_seconds(self, source=MAIN):
        """Self time summed per layer (the name before the first dot)."""
        own = self.self_times()
        out = defaultdict(float)
        for s in self.spans:
            if s[3] == source:
                out[s[4].split(".", 1)[0]] += own[s[0]] / 1e9
        return dict(sorted(out.items()))

    def dump(self, path, header):
        """Write the header and every span as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write(json.dumps({"counters": {f"{k[0]}:{k[1]}": v for k, v in self.counters.items()}}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Same interface as Tracer, records nothing: the untraced twin of a replay."""

    source = MAIN
    trace = 0

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(name, count=1):
        return nullcontext()

    @staticmethod
    def count(name, n=1):
        pass


# name, unit, how it is computed, the span names it reads, the span that
# decides its source (main if the workload made any such call, else probe)
LAYER_METRICS = (
    ("fields.gf_mul_per_s", "1/s", "rate", ("fields.gf_mul",)),
    ("fields.minimal_polynomial_s", "s", "median", ("fields.minimal_polynomial",)),
    ("fields.poly_lcm_s", "s", "median", ("fields.poly_lcm",)),
    ("linalg.mat_mul_s", "s", "median", ("linalg.mat_mul",)),
    ("linalg.in_row_space_per_s", "1/s", "rate", ("linalg.in_row_space",)),
    ("bch.construct_s", "s", "median", ("bch.construct",)),
    ("bch.construct_p90_s", "s", "p90", ("bch.construct",)),
    ("bch.decode_per_s", "1/s", "rate", ("bch.decode",)),
    ("bch.decode_calls", "count", "calls", ("bch.decode",)),
    ("bch.decode_gave_up_ratio", "ratio", "counter_ratio", ("bch.decode",), "bch.decode_gave_up"),
    ("qds.measure_per_s", "1/s", "rate", ("qds.measure",)),
    ("qds.sm_decode_per_s", "1/s", "rate", ("qds.sm_decode",)),
    ("qds.assemble_s", "s", "median", ("qds.assemble",)),
    ("qds.fujiwara_per_s", "1/s", "rate", ("qds.fujiwara",)),
    ("qds.overhead_row_s", "s", "median", ("qds.overhead_row",)),
    ("stabilizer.lookup_per_s", "1/s", "rate", ("stabilizer.lookup",)),
    ("stabilizer.lookup_miss_ratio", "ratio", "counter_ratio", ("stabilizer.lookup",), "stabilizer.lookup_miss"),
    ("stabilizer.classify_per_s", "1/s", "rate", ("stabilizer.classify",)),
    ("stabilizer.decoder_build_s", "s", "median", ("stabilizer.decoder_build",)),
    ("sim.cell_s", "s", "median", ("sim.cell.boundary", "sim.cell.bulk")),
    ("sim.cell_p90_s", "s", "p90", ("sim.cell.boundary", "sim.cell.bulk")),
    ("sim.boundary_trials_per_s", "1/s", "rate", ("sim.cell.boundary",)),
    ("sim.bulk_trials_per_s", "1/s", "rate", ("sim.cell.bulk",)),
    ("sim.trials", "count", "sum_count", ("sim.cell.boundary", "sim.cell.bulk")),
    ("sim.required_cells_s", "s", "median", ("sim.required_cells",)),
    ("sim.combine_point_s", "s", "median", ("sim.combine_point",)),
    ("sim.fail.sm_gave_up", "count", "counter", ("qds.measure",), "sim.fail.sm_gave_up"),
    ("sim.fail.lookup_miss", "count", "counter", ("qds.measure",), "sim.fail.lookup_miss"),
    ("sim.fail.detectable", "count", "counter", ("qds.measure",), "sim.fail.detectable"),
    ("sim.fail.logical", "count", "counter", ("qds.measure",), "sim.fail.logical"),
    ("cli.main_s", "s", "sum", ("cli.main",)),
)


def layer_metrics(tracer):
    """Every metric of LAYER_METRICS as name -> {value, unit, how, source}.

    A metric reads the spans the workload made when it made any, otherwise
    those of the probe, so each metric is defined on every workload.
    """
    own = tracer.self_times()
    by_key = defaultdict(list)  # (source, name) -> [(self ns, count)]
    for s in tracer.spans:
        by_key[(s[3], s[4])].append((own[s[0]], s[7]))
    out = {}
    for name, unit, kind, span_names, *counter in LAYER_METRICS:
        source = MAIN if any(by_key.get((MAIN, n)) for n in span_names) else PROBE
        rows = [r for n in span_names for r in by_key.get((source, n), ())]
        if kind == "rate":
            busy = sum(r[0] for r in rows)
            value = sum(r[1] for r in rows) / (busy / 1e9) if busy else 0.0
        elif kind == "median":
            value = statistics.median(r[0] for r in rows) / 1e9 if rows else 0.0
        elif kind == "p90":
            value = _p90([r[0] for r in rows]) / 1e9
        elif kind == "sum":
            value = sum(r[0] for r in rows) / 1e9
        elif kind == "calls":
            value = len(rows)
        elif kind == "sum_count":
            value = sum(r[1] for r in rows)
        elif kind == "counter":
            value = tracer.counters[(source, counter[0])]
        else:  # counter_ratio
            value = tracer.counters[(source, counter[0])] / len(rows) if rows else 0.0
        out[name] = {"value": value, "unit": unit, "how": f"{source}, n={len(rows)}", "source": source}
    return out


def _p90(values):
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
