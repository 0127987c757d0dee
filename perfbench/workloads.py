"""The workloads: the user-facing jobs the engine replaces.

Each workload is a closed loop of one caller in its own one-CPU Ray session:
``setup`` runs once per session (untimed by the loop, timed as set-up),
then ``iterate`` is the timed operation and ``check`` verifies its output.

* ``publish``: the KG build, ``run_flagship`` with an ``out_dir`` — the
  single-pass streaming write (fused extract → expand → link → write) —
  then the per-source n-quads release of the written graph,
  ``write_release_graphs``.  This corpus has no sameAs chain that crosses
  a batch, so the global canonicalization tail is bypassed.
* ``refresh``: the partition-resumable re-run, ``run_checkpointed`` into a
  committed output after the html of a few seeded sources changed outside
  their ld+json blocks: a full input scan and hash, then a rebuild of only
  the changed sources, through the two-pass global canonicalization
  (edges → LUT → rewrite).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa

from . import inputs
from .trace import dir_mb


def _to_arrow(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


class Workload:
    name = ""
    #: documents per source per replica, and replicas (the amplification)
    docs_per_source = inputs.DOCS_PER_SOURCE
    replicas = 1

    def __init__(self, work: str, seed: int, smoke: bool = False):
        self.work = work
        self.seed = seed
        if smoke:
            self.docs_per_source, self.replicas = 25, 1
        self.out = os.path.join(work, "out", self.name)
        self.pages = 0
        self.fixed: dict[str, float] = {}

    def prepare(self) -> None:
        """Make (or reuse) the seeded case and its oracle; not set-up."""
        self.case = inputs.fixture(
            self.work, self.name, self.seed, self.replicas, self.docs_per_source
        )
        self.fx = os.path.join(self.case, "input")
        self.pages = self.replicas * self.docs_per_source * inputs.N_SOURCES

    def setup(self) -> None:
        """In-session set-up: load the registry index and broadcast it, as
        a long-lived cluster does once for every job."""
        import ray

        from scheduler_ray.config import PipelineConfig
        from scheduler_ray.stages.link import INDEX_CACHE_NAME, build_or_load_index

        self.cfg = PipelineConfig.for_cpus(1)
        cache = os.path.join(self.fx, INDEX_CACHE_NAME)
        t0 = time.perf_counter()
        index = build_or_load_index(None, cache)
        self.index_ref = ray.put(index)
        self.fixed = {
            "link.index_load_s": time.perf_counter() - t0,
            "link.index_mb": os.path.getsize(cache) / 2**20,
        }
        del index

    def before(self) -> None:
        """Untimed preparation of the next iteration."""
        shutil.rmtree(self.out, ignore_errors=True)

    def iterate(self) -> None:
        raise NotImplementedError

    def check(self) -> str | None:
        """None when the last iteration's output is correct, else why not."""
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        """Per-layer counts of the last iteration that no span records."""
        return {}


class Publish(Workload):
    name = "publish"
    replicas = 2

    def iterate(self) -> None:
        from scheduler_ray.pipelines import flagship
        from scheduler_ray.sources import nq

        # the release renders the graph as written (read back lazily from
        # ``kg/``), and its files land beside it in ``graphs/``
        graph = flagship.run_flagship(
            self.fx, self.graph_dir, cfg=self.cfg, index_ref=self.index_ref
        )
        self.summary = nq.write_release_graphs(graph, self.out)

    @property
    def graph_dir(self) -> str:
        return os.path.join(self.out, "kg")

    def check(self) -> str | None:
        from scheduler_ray.pipelines import flagship

        bad = inputs.mismatch(self.case, _to_arrow(flagship.read_graph(self.graph_dir)))
        if bad:
            return bad
        quads = int(self.summary["n_quads"].sum())
        expected = inputs.n_expected(self.case)
        if quads != expected:
            return f"release holds {quads} quads, the oracle {expected}"
        if len(self.summary) != inputs.N_SOURCES:
            return f"release wrote {len(self.summary)} sources, expected {inputs.N_SOURCES}"
        for path in self.summary["path"]:
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            with open(path + ".bytesum") as f:
                if f.read().strip() != digest:
                    return f"{os.path.basename(path)}.bytesum does not match the file"
        return None

    def counts(self) -> dict[str, float]:
        return {
            "nq.sources": len(self.summary),
            "nq.quads": int(self.summary["n_quads"].sum()),
            "nq.gz_mb": dir_mb(os.path.join(self.out, "graphs")),
        }


class Refresh(Workload):
    name = "refresh"
    replicas = 1

    def prepare(self) -> None:
        super().prepare()
        # 2 of the 20 sources change.  A source's documents share one doc_id
        # parity and only even ids carry sameAs chains, so one source of
        # each parity changes: the rebuild does comparable work whatever
        # the seed
        docs = inputs.load_documents(self.case, ["doc_id", "source"])
        parity = docs.groupby("source")["doc_id"].first() % 2
        rng = np.random.default_rng([self.seed, 1])
        self.changed = sorted(str(rng.choice(parity.index[parity == p])) for p in (0, 1))
        # two input variants: the original and one where the changed
        # sources' pages differ; each iteration resumes from the other
        rev = inputs.fixture(
            self.work, self.name, self.seed, self.replicas, self.docs_per_source,
            changed=self.changed,
        )
        self.variants = [os.path.join(rev, "input"), self.fx]

    def setup(self) -> None:
        """A full committed run: the state every refresh resumes from.
        ``run_checkpointed`` loads the index itself on every run, so set-up
        loads none."""
        from scheduler_ray.config import PipelineConfig
        from scheduler_ray.pipelines import checkpoint
        from scheduler_ray.stages.link import INDEX_CACHE_NAME
        from scheduler_ray.state import manifest

        self.cfg = PipelineConfig.for_cpus(1)
        self.fixed = {
            "link.index_mb": os.path.getsize(os.path.join(self.fx, INDEX_CACHE_NAME)) / 2**20
        }
        shutil.rmtree(self.out, ignore_errors=True)
        first = checkpoint.run_checkpointed(self.fx, self.out, cfg=self.cfg)
        self.sources = sorted(first["completed"])
        self.content = {
            s: manifest.load_manifest(self.out, s)["content_hash"] for s in self.sources
        }
        self.turn = 0

    def before(self) -> None:
        pass

    def iterate(self) -> None:
        from scheduler_ray.pipelines import checkpoint

        fx = self.variants[self.turn % 2]
        self.turn += 1
        self.result = checkpoint.run_checkpointed(fx, self.out, cfg=self.cfg)

    def check(self) -> str | None:
        from scheduler_ray.state import manifest

        if len(self.sources) != inputs.N_SOURCES:
            return f"set-up committed {len(self.sources)} sources, expected {inputs.N_SOURCES}"
        if sorted(self.result["completed"]) != self.changed:
            return f"rebuilt {sorted(self.result['completed'])}, expected {self.changed}"
        if self.result["failed"]:
            return f"failed partitions: {self.result['failed']}"
        for s in self.sources:
            got = manifest.load_manifest(self.out, s)["content_hash"]
            if got != self.content[s]:
                return f"{s}: content_hash {got} differs from the set-up run's {self.content[s]}"
        return None

    def counts(self) -> dict[str, float]:
        return {"checkpoint.pending_sources": len(self.result["completed"])}


WORKLOADS = {w.name: w for w in (Publish, Refresh)}
