"""The traced run: spans around the calls into each layer's public functions.

While :func:`patched` is active, the layer entry points the pipelines call
by module attribute (``flagship.read_pages``, ``flagship.extract_stage``,
``canonicalize.collect_sameas_edges``, ``checkpoint.input_summary``,
``manifest.completed_partitions``, ...) are replaced by wrappers that
materialize the layer's output (a barrier, so the span holds that layer's
execution and nothing fused into it), record a span (name, start, end,
parent) and record the layer's counts at the same boundary.  Counting runs
in its own ``trace.count`` spans, so it shows as trace overhead, not as
layer time.  No code of the package changes; the wrappers are removed when
the block ends.

A layer's self time is its span's duration minus the time its child spans
cover.  The job wrappers (the iteration itself, ``run_flagship``,
``run_checkpointed``) are not layers: their self time is driver code
between the layer calls and counts as unattributed.  :meth:`Tracer.reconcile`
checks that the layers' self times add up to the traced wall, within
:data:`RECONCILE_BOUND`.  The spans sit on one stack of synchronous calls,
so a span cannot outlast its parent and siblings cannot overlap.

``run_checkpointed`` commits a rebuild (content-hash groupby, partitioned
write) between two module-level calls: the ``checkpoint.commit`` span opens
when ``canonical_triples`` returns inside it and closes at the first
``write_manifest``.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

#: the share of the traced wall that spans may leave unattributed
RECONCILE_BOUND = 0.05
#: spans of whole jobs (and the iteration root): their self time is
#: driver code outside any layer, so it is unattributed
JOB_SPANS = ("iteration", "flagship", "checkpoint")

#: per-layer metrics (name → unit); every traced run reports all of them,
#: a layer the workload bypasses reading 0
LAYER_METRICS = {
    "read.busy_s": "s",
    "extract.busy_s": "s",
    "extract.pages": "count",
    "extract.html_mb": "MB",
    "extract.hit_ratio": "ratio",
    "expand.busy_s": "s",
    "expand.triples": "count",
    "expand.no_jsonld": "count",
    "expand.parse_errors": "count",
    "link.busy_s": "s",
    "link.triples_in": "count",
    "link.triples_added": "count",
    "link.index_mb": "MB",
    "link.index_load_s": "s",
    "write.busy_s": "s",
    "write.files": "count",
    "write.rows": "count",
    "write.fixed_files": "count",
    "write.out_mb": "MB",
    "canon.materialize_s": "s",
    "canon.edges_s": "s",
    "canon.sameas_pairs": "count",
    "canon.lut_s": "s",
    "canon.rewrite_s": "s",
    "canon.triples_in": "count",
    "canon.triples_out": "count",
    "nq.busy_s": "s",
    "nq.sources": "count",
    "nq.quads": "count",
    "nq.gz_mb": "MB",
    "checkpoint.scan_s": "s",
    "checkpoint.pages_scanned": "count",
    "checkpoint.rebuild_s": "s",
    "checkpoint.commit_s": "s",
    "checkpoint.pending_sources": "count",
    "checkpoint.rebuild_ratio": "ratio",
    "manifest.read_s": "s",
    "manifest.writes": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
}

#: span name → the busy-time metric it feeds
SPAN_METRIC = {
    "read": "read.busy_s",
    "extract": "extract.busy_s",
    "expand": "expand.busy_s",
    "link": "link.busy_s",
    "write": "write.busy_s",
    "canon.edges": "canon.edges_s",
    "canon.lut": "canon.lut_s",
    "canon.rewrite": "canon.rewrite_s",
    "nq": "nq.busy_s",
    "checkpoint.scan": "checkpoint.scan_s",
    "checkpoint.commit": "checkpoint.commit_s",
    "manifest.read": "manifest.read_s",
    "link.index_load": "link.index_load_s",
}


def dir_mb(path: str) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 2**20


class Tracer:
    """Spans and counts of the traced iterations, kept in memory."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.iteration = -1
        self._stack: list[dict] = []
        self.counts: dict[int, dict[str, float]] = {}

    def begin(self, iteration: int) -> None:
        self.iteration = iteration
        self.counts[iteration] = {}
        self._stack = []

    def top(self) -> str | None:
        return self._stack[-1]["name"] if self._stack else None

    def end(self, name: str) -> None:
        """Close the innermost span if it is called ``name``."""
        if self.top() == name:
            self.close(self._stack[-1])

    def open(self, name: str) -> dict:
        rec = {
            "iteration": self.iteration,
            "span_id": len(self.rows),
            "parent_id": self._stack[-1]["span_id"] if self._stack else -1,
            "name": name,
            "start_s": time.perf_counter(),
            "end_s": float("nan"),
        }
        self.rows.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        """End ``rec`` and every span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top["end_s"] = now
            if top is rec:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def count(self, name: str, value: float) -> None:
        counts = self.counts[self.iteration]
        counts[name] = counts.get(name, 0) + value

    def spans(self, iteration: int) -> list[dict]:
        return [r for r in self.rows if r["iteration"] == iteration]

    def reconcile(self, iteration: int) -> dict:
        """Self times of one iteration's spans; the root span is the traced
        wall.  Returns the wall, the per-name self times and the
        unattributed share: the wall minus the layers' self times (every
        span but :data:`JOB_SPANS`), over the wall."""
        spans = self.spans(iteration)
        covered = {r["span_id"]: 0.0 for r in spans}
        for r in spans:
            r["dur_s"] = r["end_s"] - r["start_s"]
            if r["parent_id"] in covered:
                covered[r["parent_id"]] += r["dur_s"]
        self_by_name: dict[str, float] = {}
        for r in spans:
            r["self_s"] = r["dur_s"] - covered[r["span_id"]]
            self_by_name[r["name"]] = self_by_name.get(r["name"], 0.0) + r["self_s"]
        wall = next(r for r in spans if r["parent_id"] == -1)["dur_s"]
        layers = sum(v for k, v in self_by_name.items() if k not in JOB_SPANS)
        return {
            "wall_s": wall,
            "unattributed_share": (wall - layers) / wall,
            "self_s": self_by_name,
        }

    def write_table(self, path: str, **labels) -> None:
        import pyarrow as pa
        import pyarrow.parquet as pq

        cols = ["iteration", "span_id", "parent_id", "name", "start_s", "end_s", "dur_s", "self_s"]
        rows = [r for r in self.rows if "self_s" in r]
        table = pa.table({c: [r[c] for r in rows] for c in cols})
        for k, v in labels.items():
            table = table.append_column(k, pa.array([v] * table.num_rows))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(table, path)


def _html_mb(pages) -> float:
    import pyarrow.compute as pc

    total = 0
    for b in pages.iter_batches(batch_format="pyarrow", batch_size=None):
        total += pc.sum(pc.binary_length(b["html"])).as_py() or 0
    return total / 2**20


def _expansion_counts(extracted) -> dict[str, int]:
    from scheduler_ray.stages.expand import expansion_metrics_batch

    m = extracted.map_batches(expansion_metrics_batch, batch_format="pyarrow").to_pandas()
    return {k: int(m[k].sum()) for k in ("pages", "no_jsonld", "parse_errors")}


@contextlib.contextmanager
def patched(tr: Tracer):
    """Install the layer wrappers for the duration of the block."""
    import ray

    from scheduler_ray.pipelines import checkpoint, flagship, streaming
    from scheduler_ray.sources import nq
    from scheduler_ray.stages import canonicalize, link
    from scheduler_ray.state import manifest

    orig: dict[tuple[object, str], object] = {}

    def wrap(module, attr, make):
        orig[(module, attr)] = getattr(module, attr)
        setattr(module, attr, make(getattr(module, attr)))

    def barrier(name):
        """Wrap a Dataset → Dataset layer: input barrier, layer span with an
        output barrier, counts."""

        def make(fn):
            def wrapper(ds, *args, **kwargs):
                with tr.span(f"{name}:input"):
                    ds = ds.materialize()
                with tr.span(name):
                    out = fn(ds, *args, **kwargs).materialize()
                with tr.span("trace.count"):
                    counters[name](ds, out)
                return out

            return wrapper

        return make

    def count_extract(pages, out):
        n = pages.count()
        tr.count("extract.pages", n)
        tr.count("extract.html_mb", _html_mb(pages))
        m = _expansion_counts(out)
        tr.count("expand.no_jsonld", m["no_jsonld"])
        tr.count("expand.parse_errors", m["parse_errors"])
        tr.count("extract.hit_pages", m["pages"] - m["no_jsonld"])

    def count_expand(_ex, out):
        tr.count("expand.triples", out.count())

    def count_link(tri, out):
        n_in = tri.count()
        tr.count("link.triples_in", n_in)
        tr.count("link.triples_added", out.count() - n_in)

    def count_rewrite(tri, out):
        tr.count("canon.triples_in", tri.count())
        tr.count("canon.triples_out", out.count())

    counters = {
        "extract": count_extract,
        "expand": count_expand,
        "link": count_link,
        "canon.rewrite": count_rewrite,
    }

    def make_read(fn):
        def read_pages(*args, **kwargs):
            with tr.span("read"):
                return fn(*args, **kwargs).materialize()

        return read_pages

    def make_canonical(fn):
        def canonical_triples(*args, **kwargs):
            with tr.span("canon.materialize"):
                out = fn(*args, **kwargs)
            if tr.top() == "checkpoint":
                tr.open("checkpoint.commit")
            return out

        return canonical_triples

    def make_edges(fn):
        def collect_sameas_edges(tri):
            with tr.span("canon.edges"):
                edges = fn(tri).materialize()
            with tr.span("trace.count"):
                tr.count("canon.sameas_pairs", edges.count())
            return edges

        return collect_sameas_edges

    def make_lut(fn):
        def lut_ref_from_edges(edges, **kwargs):
            with tr.span("canon.lut"):
                ref = fn(edges, **kwargs)
                ray.wait([ref])
            return ref

        return lut_ref_from_edges

    def make_write(fn):
        def write_canonical_single_pass(triples, out_dir, **kwargs):
            with tr.span("write:input"):
                triples = triples.materialize()
            with tr.span("write"):
                summary = fn(triples, out_dir, **kwargs)
            with tr.span("trace.count"):
                tr.count("write.files", summary["files"])
                tr.count("write.rows", summary["rows"])
                tr.count("write.fixed_files", summary["fixed_files"])
                tr.count("write.out_mb", dir_mb(out_dir))
            return summary

        return write_canonical_single_pass

    def make_scan(fn):
        def input_summary(fixture_dir):
            with tr.span("checkpoint.scan"):
                summary = fn(fixture_dir)
            tr.count("checkpoint.pages_scanned", int(summary["n_pages"].sum()))
            return summary

        return input_summary

    def make_manifest_read(fn):
        def completed_partitions(out_dir, input_hashes):
            with tr.span("manifest.read"):
                return fn(out_dir, input_hashes)

        return completed_partitions

    def make_manifest_write(fn):
        def write_manifest(out_dir, partition_id, payload):
            tr.end("checkpoint.commit")
            with tr.span("manifest.write"):
                tr.count("manifest.writes", 1)
                return fn(out_dir, partition_id, payload)

        return write_manifest

    def make_index_load(fn):
        def build_or_load_index(*args, **kwargs):
            with tr.span("link.index_load"):
                return fn(*args, **kwargs)

        return build_or_load_index

    def make_top(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tr.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    wrap(flagship, "run_flagship", make_top("flagship"))
    wrap(checkpoint, "run_checkpointed", make_top("checkpoint"))
    wrap(nq, "write_release_graphs", make_top("nq"))
    wrap(flagship, "read_pages", make_read)
    wrap(flagship, "extract_stage", barrier("extract"))
    wrap(flagship, "expand_stage", barrier("expand"))
    wrap(flagship, "link_stage", barrier("link"))
    wrap(link, "build_or_load_index", make_index_load)
    wrap(flagship, "canonical_triples", make_canonical)
    wrap(flagship, "canonicalize_stage", barrier("canon.rewrite"))
    wrap(canonicalize, "collect_sameas_edges", make_edges)
    wrap(canonicalize, "lut_ref_from_edges", make_lut)
    wrap(streaming, "write_canonical_single_pass", make_write)
    wrap(checkpoint, "input_summary", make_scan)
    wrap(manifest, "completed_partitions", make_manifest_read)
    wrap(manifest, "write_manifest", make_manifest_write)
    try:
        yield tr
    finally:
        for (module, attr), fn in orig.items():
            setattr(module, attr, fn)


def layer_metrics(tr: Tracer, iterations: list[int], untraced_wall: float, fixed: dict) -> dict:
    """Median per-layer metrics over the traced iterations; ``fixed`` holds
    the values measured once per run (index size, and the load time where
    set-up loads the index instead of the job)."""
    per_iter: list[dict[str, float]] = []
    for it in iterations:
        rec = tr.reconcile(it)
        spans = tr.spans(it)
        counts = tr.counts[it]
        vals = dict.fromkeys(LAYER_METRICS, 0.0)
        for r in spans:
            if r["name"] in SPAN_METRIC:
                vals[SPAN_METRIC[r["name"]]] += r["dur_s"]
        vals.update({k: v for k, v in counts.items() if k in vals})
        vals["canon.materialize_s"] = rec["self_s"].get("canon.materialize", 0.0)
        pages = counts.get("extract.pages", 0)
        if pages:
            vals["extract.hit_ratio"] = counts["extract.hit_pages"] / pages
        scanned = counts.get("checkpoint.pages_scanned", 0)
        if scanned:
            vals["checkpoint.rebuild_ratio"] = pages / scanned
            root = next(r for r in spans if r["parent_id"] == -1)
            mread = [r for r in spans if r["name"] == "manifest.read"]
            vals["checkpoint.rebuild_s"] = root["end_s"] - mread[-1]["end_s"]
        vals["trace.wall_s"] = rec["wall_s"]
        vals["trace.unattributed_share"] = rec["unattributed_share"]
        per_iter.append(vals)
    out = {k: statistics.median(v[k] for v in per_iter) for k in LAYER_METRICS}
    out.update(fixed)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out
