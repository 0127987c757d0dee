"""CLI entry point: ``python -m scheduler_ray <command>``.

The single-job replacement for the reference's Dagster jobs
(setup_config / harvest+release / export — reference userCode/defs.py):

    python -m scheduler_ray run      --fixture-dir D --out O   # checkpointed KG build (resumable)
    python -m scheduler_ray export   --fixture-dir D --out O   # feature table (GeoParquet-shaped)
    python -m scheduler_ray release  --fixture-dir D --out O   # per-source .nq.gz graphs
    python -m scheduler_ray corpus   --sf-dir S [--amplify N]  # build the synthetic page corpus
    python -m scheduler_ray compact  --out O [--target-mb N]   # merge small hive files post-write
    python -m scheduler_ray pull     --graphs-dir G --dest D   # incremental release-graph pull (.bytesum skip)

Owns its Ray session (the only places allowed to: CLI, bench.py, test
fixture).  Designed to run under ``ray job submit`` unchanged — on a real
cluster drop ``--local-cpus`` and let ray.init() connect to the cluster.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="scheduler_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--fixture-dir", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--local-cpus", type=int, default=None,
                        help="ray.init(num_cpus=...) for local mode; omit on a cluster")

    sp = sub.add_parser("run", help="checkpointed, resumable KG build")
    common(sp)
    sp = sub.add_parser("export", help="feature-table export")
    common(sp)
    sp.add_argument("--rows-per-group", type=int, default=50_000)
    sp = sub.add_parser("release", help="per-source n-quads release graphs")
    common(sp)
    sp.add_argument("--salt-factor", type=int, default=0)
    sp = sub.add_parser("corpus", help="generate the synthetic page corpus")
    sp.add_argument("--sf-dir", required=True)
    sp.add_argument("--amplify", type=int, default=1)
    sp = sub.add_parser("compact", help="merge small files in a written graph's hive partitions")
    sp.add_argument("--out", required=True)
    sp.add_argument("--target-mb", type=int, default=128)
    sp.add_argument("--local-cpus", type=int, default=None)
    sp = sub.add_parser("pull", help="incremental release-graph pull (bytesum skip-if-unchanged)")
    sp.add_argument("--graphs-dir", required=True)
    sp.add_argument("--dest", required=True)

    args = p.parse_args(argv)

    if args.cmd == "corpus":
        from .corpus import ensure_pages_fixture

        out = ensure_pages_fixture(args.sf_dir, amplify=args.amplify)
        print(json.dumps({"fixture_dir": out}))
        return 0

    if args.cmd == "pull":
        # pure-IO, no Ray session needed (mirrors `nabu pull`)
        from .sources.nq import pull_release_graphs

        summary = pull_release_graphs(args.graphs_dir, args.dest)
        counts = summary["action"].value_counts().to_dict() if len(summary) else {}
        print(json.dumps({"files": int(len(summary)), **{k: int(v) for k, v in counts.items()}}))
        return 0

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True}
        if args.local_cpus:
            kwargs.update(address="local", num_cpus=args.local_cpus)
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    try:
        if args.cmd == "run":
            from .pipelines.checkpoint import run_checkpointed

            summary = run_checkpointed(args.fixture_dir, args.out)
            print(json.dumps(summary))
        elif args.cmd == "export":
            from .pipelines import flagship
            from .pipelines.export import feature_table, write_geoparquet

            # feature_table reads its input twice (fields and points)
            canon = flagship.run_flagship(args.fixture_dir).materialize()
            write_geoparquet(feature_table(canon), args.out, rows_per_group=args.rows_per_group)
            print(json.dumps({"out": args.out}))
        elif args.cmd == "release":
            from .pipelines import flagship
            from .sources.nq import write_release_graphs

            canon = flagship.run_flagship(args.fixture_dir).materialize()
            summary = write_release_graphs(canon, args.out, salt_factor=args.salt_factor)
            print(json.dumps({"sources": len(summary), "n_quads": int(summary["n_quads"].sum())}))
        elif args.cmd == "compact":
            from .pipelines.streaming import compact_partitions

            print(json.dumps(compact_partitions(args.out, target_mb=args.target_mb)))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
