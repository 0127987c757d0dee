from __future__ import annotations

import pyarrow as pa

from scheduler_ray.functions import scalars as fn
from scheduler_ray.sources.sitemap import parse_sitemap_index, reconcile_partitions

XML = """<?xml version="1.0" encoding="UTF-8"?>
<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9"
              xmlns:geoconnex="https://geoconnex.us/sitemap">
  <sitemap>
    <loc>https://example.org/sitemaps/b.xml</loc>
    <geoconnex:sitemap_id> beta:dams </geoconnex:sitemap_id>
    <geoconnex:max_request_concurrency>4</geoconnex:max_request_concurrency>
    <geoconnex:add_associated_mainstems>true</geoconnex:add_associated_mainstems>
  </sitemap>
  <sitemap>
    <loc>https://example.org/sitemaps/a.xml</loc>
    <geoconnex:sitemap_id>alpha:gauges</geoconnex:sitemap_id>
  </sitemap>
  <sitemap>
    <loc>https://example.org/sitemaps/dup.xml</loc>
    <geoconnex:sitemap_id>beta:dams</geoconnex:sitemap_id>
  </sitemap>
  <sitemap>
    <loc>https://example.org/sitemaps/empty.xml</loc>
    <geoconnex:sitemap_id>  </geoconnex:sitemap_id>
  </sitemap>
</sitemapindex>
"""


def test_parse_sitemap_index_dedupe_sort_hints():
    df = parse_sitemap_index(XML)
    assert list(df["source_id"]) == ["alpha:gauges", "beta:dams"]  # sorted, deduped
    beta = df[df["source_id"] == "beta:dams"].iloc[0]
    assert beta["max_request_concurrency"] == 4
    assert bool(beta["add_associated_mainstems"]) is True
    assert beta["loc"].endswith("/b.xml")  # first occurrence won
    alpha = df[df["source_id"] == "alpha:gauges"].iloc[0]
    assert alpha["max_request_concurrency"] == 1
    assert bool(alpha["add_associated_mainstems"]) is False


def test_reconcile_partitions():
    delete, add = reconcile_partitions({"a", "b"}, {"b", "c"})
    assert delete == {"a"} and add == {"c"}


def test_scalar_functions():
    col = pa.array(["ref:dams!", "  x  "])
    assert fn.strip_non_alphanumeric(col).to_pylist() == ["refdams", "x"]
    assert fn.container_safe_name(pa.array(["a:b:c" * 30])).to_pylist()[0] == ("a-b-c" * 30)[:63]
    assert fn.trim_id(col).to_pylist() == ["ref:dams!", "x"]
    ts = fn.parse_lastmod(pa.array(["2026-01-02T03:04:05"]))
    assert fn.date_tag(ts).to_pylist() == ["2026_01_02"]
    assert fn.has_content(pa.array(["x", ""])).to_pylist() == [True, False]
    assert fn.ends_with_any(
        pa.array(["a.nq", "b.nq.gz", "c.bytesum"]), (".nq", ".nq.gz")
    ).to_pylist() == [True, True, False]
    assert fn.format_gb(2_500_000_000) == "2.50 GB"
    assert fn.env_bool("TRUE") and not fn.env_bool(None)
    assert fn.env_int(" 7 ") == 7 and fn.env_int(None, 3) == 3


def test_structured_log_parse():
    """M6: JSON log lines route to levels; bad lines fall back to info
    (reference userCode/lib/dagster.py:33-59 contract)."""
    import pyarrow as pa

    from scheduler_ray.functions.logs import level_counts, parse_log_batch, parse_log_line

    assert parse_log_line('{"level": "error", "msg": "boom"}') == ("error", "boom")
    assert parse_log_line('{"level": "WARN", "msg": "w"}') == ("warning", "w")
    assert parse_log_line("not json at all") == ("info", "not json at all")
    assert parse_log_line('{"level": "weird", "msg": "m"}') == ("info", "m")
    batch = pa.table({"line": pa.array(
        ['{"level":"error","msg":"a"}', "plain", '{"level":"debug","msg":"d"}', None]
    )})
    out = parse_log_batch(batch)
    assert out["level"].to_pylist() == ["error", "info", "debug", "info"]
    c = level_counts(batch)
    assert c["error"] == 1 and c["info"] == 2 and c["debug"] == 1


def test_config_from_env():
    """F10: env → typed config with fail-fast validation."""
    import pytest

    from scheduler_ray.config import PipelineConfig

    env = {"SCHEDULER_RAY_CANON_BROADCAST_MAX_PAIRS": "4"}
    cfg = PipelineConfig.from_env(env)
    assert cfg.canon_broadcast_max_pairs == 4
    with pytest.raises(ValueError):
        PipelineConfig.from_env({"SCHEDULER_RAY_CANON_BROADCAST_MAX_PAIRS": "-1"})
    # a variable naming no field fails fast (typos, removed fields) ...
    # (the phase-timings switch SCHEDULER_RAY_TIMINGS is gone as well,
    # and so are the never-set link-actor, salt, partition and extra knobs
    # and the sort mode of the removed global-sort write, and the linker's
    # batch size: the linker maps whole blocks, and the never-set file
    # resume switch: the writer's own ``resume`` parameter remains; and
    # the settings with one value in use: extract and expand map
    # 4096-row batches, expansion always validates, canonicalization
    # always drops owl:sameAs)
    for var in (
        "SCHEDULER_RAY_STAGING_DIR",
        "SCHEDULER_RAY_EXTRACT_BATCHSIZE",
        "SCHEDULER_RAY_TIMINGS",
        "SCHEDULER_RAY_LINK_USE_ACTORS",
        "SCHEDULER_RAY_LINK_CONCURRENCY",
        "SCHEDULER_RAY_SALT_FACTOR",
        "SCHEDULER_RAY_PARTITION_COL",
        "SCHEDULER_RAY_EXTRA",
        "SCHEDULER_RAY_SORT_MODE",
        "SCHEDULER_RAY_LINK_BATCH_SIZE",
        "SCHEDULER_RAY_FILE_RESUME",
        "SCHEDULER_RAY_EXTRACT_BATCH_SIZE",
        "SCHEDULER_RAY_EXPAND_BATCH_SIZE",
        "SCHEDULER_RAY_VALIDATE_DOCS",
        "SCHEDULER_RAY_DROP_SAMEAS",
    ):
        with pytest.raises(ValueError, match=var):
            PipelineConfig.from_env({**env, var: "1"})
    # unrelated variables are not this config's business
    assert PipelineConfig.from_env({"PATH": "/bin"}) == PipelineConfig()


def test_failure_report():
    from scheduler_ray.state import manifest as mf

    out = "/tmp/failure_report_test"
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    mf.write_manifest(out, "a", {"input_hash": "h1"})
    mf.write_manifest(out, "b", {"input_hash": "OLD"})
    rep = mf.failure_report(out, {"a": "h1", "b": "h2", "c": "h3"})
    assert rep == {"missing": ["c"], "stale": ["b"], "ok": ["a"], "healthy": False}
    shutil.rmtree(out, ignore_errors=True)


def test_render_config_template_strict():
    """M7: placeholder rendering fails fast on undefined variables
    (reference rclone template with StrictUndefined)."""
    import pytest

    from scheduler_ray.functions.scalars import render_config_template

    tpl = "[remote]\ntype = s3\naccess_key_id = {{ key }}\nendpoint = {{ endpoint }}\n"
    out = render_config_template(tpl, {"key": "K", "endpoint": "https://s3.example", "unused": "x"})
    assert "access_key_id = K" in out and "endpoint = https://s3.example" in out
    with pytest.raises(KeyError):
        render_config_template(tpl, {"key": "K"})


def test_sql_sink_chunked_load_and_audit(fixture_sf0001, tmp_out):
    """S9 analogue: GeoParquet → SQL in bounded chunks, id/sitemap
    indexes, post-load row-count audit (reference export.py:345-394)."""
    import os

    from scheduler_ray.pipelines import export as ex, flagship
    from scheduler_ray.pipelines.sinks import load_geoparquet_to_sql

    canon = flagship.run_flagship(fixture_sf0001)
    geo_dir = os.path.join(tmp_out, "geo")
    ex.write_geoparquet(ex.feature_table(canon), geo_dir)
    db = os.path.join(tmp_out, "features.duckdb")
    summary = load_geoparquet_to_sql(geo_dir, db, chunk_rows=100)
    assert summary["rows_in_db"] == summary["rows_loaded"] > 0
    assert summary["chunks"] >= summary["rows_loaded"] // 100

    import duckdb

    con = duckdb.connect(db)
    n = con.execute("SELECT count(*) FROM features WHERE id LIKE 'https://pids%'").fetchone()[0]
    assert n == summary["rows_in_db"]
    idx = {r[0] for r in con.execute("SELECT index_name FROM duckdb_indexes()").fetchall()}
    assert {"features_id_idx", "features_sitemap_idx"} <= idx
    con.close()


def test_failure_alerts_contract():
    """Failure-notification text matches the reference's slack_error_fn
    (partitioned vs unpartitioned), and only error/critical lines alert."""
    import pyarrow as pa

    from scheduler_ray.functions.logs import failure_alert_text, failure_alerts

    assert (
        failure_alert_text("boom", "src7")
        == "Error in Geoconnex pipeline for partition: `src7`: `boom`"
    )
    assert failure_alert_text("boom") == "Error in Geoconnex pipeline: `boom`"

    t = pa.table(
        {
            "line": [
                '{"level": "error", "msg": "fetch failed"}',
                '{"level": "info", "msg": "ok"}',
                '{"level": "critical", "msg": "index corrupt"}',
                "not json at all",
            ],
            "source_id": ["s1", "s1", "s2", "s2"],
        }
    )
    out = failure_alerts(t, partition_col="source_id")
    assert out.num_rows == 2
    assert out["alert_text"].to_pylist() == [
        "Error in Geoconnex pipeline for partition: `s1`: `fetch failed`",
        "Error in Geoconnex pipeline for partition: `s2`: `index corrupt`",
    ]
