"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in scheduler_ray) calls ray.init()/ray.shutdown().

The KG-family queries run over a synthetic Common-Crawl-style page table
derived *deterministically* from ``{sf_dir}/documents.parquet`` (see
scheduler_ray/corpus.py), so the DuckDB oracles can reconstruct extraction
bytes and golden triples with plain SQL over the ``documents`` view.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pandas as pd
import pyarrow.compute as pc

import ray.data as rd

from scheduler_ray import oracles
from scheduler_ray.corpus import ensure_pages_fixture
from scheduler_ray.pipelines import flagship
from scheduler_ray.stages.extract import extract_stage
from scheduler_ray.stages.link import LINEAR_ELEMENT
from scheduler_ray.stages.relational import count_by


def _fixture(sf_dir: str) -> str:
    return ensure_pages_fixture(sf_dir)


def entry() -> Any:
    """Flagship KG pipeline on sf0.001: pages → canonical triples."""
    fx = _fixture("/root/testdata/sf0.001")
    return flagship.run_flagship(fx)


# ---------------------------------------------------------------- queries


def _q_kg_extract(sf_dir: str):
    fx = _fixture(sf_dir)
    pages = flagship.read_pages(fx)
    ex = extract_stage(pages)
    return ex.select_columns(["url", "source", "extracted"])


def _q_kg_sources(sf_dir: str):
    fx = _fixture(sf_dir)
    pages = flagship.read_pages(fx)
    ex = extract_stage(pages)
    return count_by(ex, ["source"], "n_pages")


def _q_kg_triples_raw(sf_dir: str):
    fx = _fixture(sf_dir)
    registry, sources = flagship.load_side_tables(fx)
    pages = flagship.read_pages(fx)
    return flagship.raw_triples(pages, registry, sources)


def _q_kg_canonical(sf_dir: str):
    """Canonical graph via the PRODUCTION path: the single-pass streaming
    materialize writes the hive-partitioned graph and the result is read
    back — the oracle gate exercises exactly what a job run produces."""
    import os
    import shutil

    fx = _fixture(sf_dir)
    out = os.path.join(fx, "canonical_graph")
    shutil.rmtree(out, ignore_errors=True)
    return flagship.run_flagship(fx, out_dir=out)


def _q_kg_canonical_joined(sf_dir: str):
    """Canonical graph via the broadcast-FREE partitioned-join rewrite
    (canonicalize_stage_joined, forced with canon_broadcast_max_pairs=1):
    the 10^12-doc escape hatch for alias sets too large for one plasma
    object — distributed CC + two hash joins, same golden triples."""
    from scheduler_ray.config import PipelineConfig

    fx = _fixture(sf_dir)
    cfg = PipelineConfig(canon_broadcast_max_pairs=1)
    ds = flagship.run_flagship(fx, cfg=cfg)
    return ds.select_columns(["subj", "pred", "obj", "obj_is_literal", "graph"])


def _q_kg_canonical_writer_gated(sf_dir: str):
    """Canonical graph via the single-pass WRITER's distributed-fixup
    path (lut_max_pairs gate forced to 1 through
    canon_broadcast_max_pairs): the mapping never exists as one plasma
    object — interim commit → CC over pair sidecars → joined rewrite →
    second write pass (ROADMAP §2, round 5).  Same oracle as
    kg_canonical_triples."""
    import os
    import shutil

    from scheduler_ray.config import PipelineConfig

    fx = _fixture(sf_dir)
    out = os.path.join(fx, "canonical_graph_gated")
    shutil.rmtree(out, ignore_errors=True)
    cfg = PipelineConfig(canon_broadcast_max_pairs=1)
    return flagship.run_flagship(fx, out_dir=out, cfg=cfg)


def _q_kg_pred_counts(sf_dir: str):
    ds = _q_kg_canonical(sf_dir)
    return count_by(ds, ["pred"], "n")


def _q_kg_cleanup(sf_dir: str):
    fx = _fixture(sf_dir)
    pages = flagship.read_pages(fx)
    ex = extract_stage(pages)
    gone = ex.map_batches(
        lambda t: t.filter(pc.is_null(t["extracted"])).select(["url"]),
        batch_format="pyarrow",
    )
    return gone


def _q_kg_merge_dedup(sf_dir: str):
    # materialize once and self-union (A2 global-merge semantics) — running
    # the whole flagship twice for a self-union wasted a full pipeline pass.
    # Distinct via the sorted-agg primitive: Ray's groupby reduce runs
    # per-GROUP Python accumulators, which at triple cardinality (one
    # group per distinct triple) would dominate the merge at scale.
    from scheduler_ray.stages.segments import sorted_agg_by

    ds = _q_kg_canonical(sf_dir).materialize()
    merged = ds.union(ds)
    distinct = sorted_agg_by(merged, ["subj", "pred", "obj"], {})
    return pd.DataFrame({"n_triples": [distinct.count()]})


def _q_kg_entity_link(sf_dir: str):
    ds = _q_kg_canonical(sf_dir)
    links = ds.map_batches(
        lambda t: t.filter(pc.equal(t["pred"], LINEAR_ELEMENT)).select(["subj", "obj"]),
        batch_format="pyarrow",
    )
    return links.rename_columns({"obj": "mainstem_uri"})


def _q_kg_entity_link_grouped(sf_dir: str):
    """kg_entity_link over a deliberately SCATTERED expansion stream
    (global sort by obj — no document's rows share a batch), linked via
    the contiguity-free link_stage_grouped (ROADMAP §4: blank-label
    merge + pruned name/point join) — same SQL oracle as
    kg_entity_link, mirroring feature_table_grouped's pattern."""
    from scheduler_ray.stages.canonicalize import (
        canonicalize_stage,
        collect_sameas_edges,
        lut_ref_from_edges,
    )
    from scheduler_ray.stages.expand import expand_stage
    from scheduler_ray.stages.link import INDEX_CACHE_NAME, link_stage_grouped

    fx = _fixture(sf_dir)
    registry, sources = flagship.load_side_tables(fx)
    pages = flagship.read_pages(fx)
    tri = expand_stage(extract_stage(pages)).materialize().sort("obj")
    linked = link_stage_grouped(
        tri, registry, sources, index_cache_path=f"{fx}/{INDEX_CACHE_NAME}"
    ).materialize()
    canon = canonicalize_stage(linked, lut_ref_from_edges(collect_sameas_edges(linked)))
    # renamed inside the map: Ray's column rename leaves a zero-row block
    # under its old names, and the mixed schemas reach the executor
    return canon.map_batches(
        lambda t: t.filter(pc.equal(t["pred"], LINEAR_ELEMENT))
        .select(["subj", "obj"])
        .rename_columns(["subj", "mainstem_uri"]),
        batch_format="pyarrow",
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from scheduler_ray.pipelines import queries as q

    return {
        # queries without a recorded gate row first, so a gate that
        # stops after its first N queries still reaches them
        "text_repetition": q.q_text_repetition,
        "text_langid": q.q_text_langid,
        "text_fingerprint": q.q_text_fingerprint,
        "ann_topk": q.q_ann_topk,
        "ann_lsh": q.q_ann_lsh,
        "ann_ivf": q.q_ann_ivf,
        "embed_neardup": q.q_embed_neardup,
        "embed_neardup_groups": q.q_embed_neardup_groups,
        "curation_pipeline": q.q_curation_pipeline,
        "label_counts": q.q_label_counts,
        "label_centroids": q.q_label_centroids,
        "feature_table": q.q_feature_table,
        "feature_table_grouped": q.q_feature_table_grouped,
        "feature_mercator": q.q_feature_mercator,
        "kg_index_lookup": q.q_kg_index_lookup,
        "spatial_join": q.q_spatial_join,
        "polygon_join": q.q_polygon_join,
        "mm_metadata": q.q_mm_metadata,
        "event_props": q.q_event_props,
        "kg_error_metrics": q.q_kg_error_metrics,
        # knowledge-graph construction (SURVEY.md §2 core path)
        "kg_extract": _q_kg_extract,
        "kg_sources": _q_kg_sources,
        "kg_triples_raw": _q_kg_triples_raw,
        "kg_canonical_triples": _q_kg_canonical,
        "kg_canonical_joined": _q_kg_canonical_joined,
        "kg_canonical_writer_gated": _q_kg_canonical_writer_gated,
        "kg_pred_counts": _q_kg_pred_counts,
        "kg_cleanup_antijoin": _q_kg_cleanup,
        "kg_merge_dedup": _q_kg_merge_dedup,
        "kg_entity_link": _q_kg_entity_link,
        "kg_entity_link_grouped": _q_kg_entity_link_grouped,
        "kg_validate": q.q_kg_validate,
        # relational / windows
        "lineitem_pricing": q.q_lineitem_pricing,
        "segment_revenue": q.q_segment_revenue,
        "nation_region": q.q_nation_region,
        "top_orders": q.q_top_orders,
        "top_docs_per_source": q.q_top_docs_per_source,
        "median_chars_per_source": q.q_median_chars_per_source,
        "vocab_top_df": q.q_vocab_top_df,
        "filter_revenue": q.q_filter_revenue,
        "event_windows": q.q_event_windows,
        "event_windows_hopping": q.q_event_windows_hopping,
        "events_asof": q.q_events_asof,
        "events_range_join": q.q_events_range_join,
        "event_zscore": q.q_event_zscore,
        "event_corr": q.q_event_corr,
        "event_lag_delta": q.q_event_lag_delta,
        "doc_langs_concat": q.q_doc_langs_concat,
        "doc_sample_stratified": q.q_doc_sample_stratified,
        "doc_sample_hash": q.q_doc_sample_hash,
        "doc_tfidf_top": q.q_doc_tfidf_top,
        "doc_filter_median": q.q_doc_filter_median,
        "doc_ntile_buckets": q.q_doc_ntile_buckets,
        "doc_mode_lang": q.q_doc_mode_lang,
        "doc_split_assign": q.q_doc_split_assign,
        "doc_packing": q.q_doc_packing,
        "heavy_hitter_words": q.q_heavy_hitter_words,
        "event_window_distinct": q.q_event_window_distinct,
        "doc_rollup_counts": q.q_doc_rollup_counts,
        "sessions": q.q_sessions,
        "event_type_stats": q.q_event_type_stats,
        "brand_stats": q.q_brand_stats,
        "distinct_segments": q.q_distinct_segments,
        # dedup family
        "dedup_exact": q.q_dedup_exact,
        "decontaminate": q.q_decontaminate,
        "dedup_minhash": q.q_dedup_minhash,
        "dedup_simhash": q.q_dedup_simhash,
        "dedup_ngram": q.q_dedup_ngram,
        # text analysis
        "text_tokens": q.q_text_tokens,
        "text_quality": q.q_text_quality,
    }


def oracle_sql() -> dict[str, str]:
    from scheduler_ray.pipelines import queries as q

    return {
        "kg_extract": oracles.EXTRACT_SQL,
        "kg_sources": oracles.SOURCES_SQL,
        "kg_triples_raw": oracles.RAW_TRIPLES_SQL,
        "kg_canonical_triples": oracles.CANONICAL_TRIPLES_SQL,
        "kg_canonical_joined": oracles.CANONICAL_TRIPLES_SQL,
        "kg_canonical_writer_gated": oracles.CANONICAL_TRIPLES_SQL,
        "kg_pred_counts": oracles.PRED_COUNTS_SQL,
        "kg_cleanup_antijoin": oracles.CLEANUP_SQL,
        "kg_merge_dedup": oracles.MERGE_DEDUP_SQL,
        "kg_entity_link": oracles.ENTITY_LINK_SQL,
        "kg_entity_link_grouped": oracles.ENTITY_LINK_SQL,
        "kg_validate": q.sql_kg_validate(),
        "lineitem_pricing": q.SQL_LINEITEM_PRICING,
        "segment_revenue": q.SQL_SEGMENT_REVENUE,
        "nation_region": q.SQL_NATION_REGION,
        "top_orders": q.SQL_TOP_ORDERS,
        "top_docs_per_source": q.SQL_TOP_DOCS_PER_SOURCE,
        "median_chars_per_source": q.SQL_MEDIAN_CHARS_PER_SOURCE,
        "vocab_top_df": q.SQL_VOCAB_TOP_DF,
        "filter_revenue": q.SQL_FILTER_REVENUE,
        "event_windows": q.SQL_EVENT_WINDOWS,
        "event_windows_hopping": q.SQL_EVENT_WINDOWS_HOPPING,
        "events_asof": q.SQL_EVENTS_ASOF,
        "events_range_join": q.SQL_EVENTS_RANGE_JOIN,
        "event_zscore": q.SQL_EVENT_ZSCORE,
        "event_corr": q.SQL_EVENT_CORR,
        "event_lag_delta": q.SQL_EVENT_LAG_DELTA,
        "doc_langs_concat": q.SQL_DOC_LANGS_CONCAT,
        "doc_sample_stratified": q.SQL_DOC_SAMPLE_STRATIFIED,
        "doc_sample_hash": q.SQL_DOC_SAMPLE_HASH,
        "doc_tfidf_top": q.SQL_DOC_TFIDF_TOP,
        "doc_filter_median": q.SQL_DOC_FILTER_MEDIAN,
        "doc_ntile_buckets": q.SQL_DOC_NTILE_BUCKETS,
        "doc_mode_lang": q.SQL_DOC_MODE_LANG,
        "doc_split_assign": q.SQL_DOC_SPLIT_ASSIGN,
        "doc_packing": q.SQL_DOC_PACKING,
        "heavy_hitter_words": q.SQL_HEAVY_HITTER_WORDS,
        "event_window_distinct": q.SQL_EVENT_WINDOW_DISTINCT,
        "doc_rollup_counts": q.SQL_DOC_ROLLUP_COUNTS,
        "sessions": q.SQL_SESSIONS,
        "event_type_stats": q.SQL_EVENT_TYPE_STATS,
        "brand_stats": q.SQL_BRAND_STATS,
        "distinct_segments": q.SQL_DISTINCT_SEGMENTS,
        "dedup_exact": q.SQL_DEDUP_EXACT,
        "decontaminate": q.SQL_DECONTAMINATE,
        "dedup_minhash": q.SQL_DEDUP_MINHASH,
        "dedup_simhash": q.SQL_DEDUP_SIMHASH,
        "dedup_ngram": q.SQL_DEDUP_NGRAM,
        "text_tokens": q.SQL_TEXT_TOKENS,
        "text_quality": q.SQL_TEXT_QUALITY,
        "text_repetition": q.SQL_TEXT_REPETITION,
        "text_langid": q.sql_text_langid(),
        "text_fingerprint": q.SQL_TEXT_FINGERPRINT,
        "ann_topk": q.SQL_ANN_TOPK,
        "ann_lsh": q.sql_ann_lsh(),
        "ann_ivf": q.SQL_ANN_IVF,
        "embed_neardup": q.SQL_EMBED_NEARDUP,
        "embed_neardup_groups": q.SQL_EMBED_NEARDUP_GROUPS,
        "curation_pipeline": q.SQL_CURATION_PIPELINE,
        "label_counts": q.SQL_LABEL_COUNTS,
        "label_centroids": q.SQL_LABEL_CENTROIDS,
        "feature_table": q.sql_feature_table(),
        "feature_table_grouped": q.sql_feature_table(),
        "feature_mercator": q.sql_feature_mercator(),
        "kg_index_lookup": q.sql_kg_index_lookup(),
        "spatial_join": q.SQL_SPATIAL_JOIN,
        "polygon_join": q.SQL_POLYGON_JOIN,
        "mm_metadata": q.sql_mm_metadata(),
        "event_props": q.SQL_EVENT_PROPS,
        "kg_error_metrics": q.SQL_KG_ERROR_METRICS,
    }
