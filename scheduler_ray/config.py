"""Pipeline configuration (SURVEY.md §2.10 — the pydantic-run-config analogue).

The reference exposes run-tunable pydantic configs
(reference userCode/lib/containers.py:28-52,103-116); we expose one
dataclass covering batch sizes, size gates and write modes, validated at
job start (fail-fast like reference userCode/lib/env.py:28-34).
"""

from __future__ import annotations

from dataclasses import dataclass

#: the env prefix ``from_env`` reads
ENV_PREFIX = "SCHEDULER_RAY_"


@dataclass
class PipelineConfig:
    #: html rows are wide but O(1 KB) here; at 100 TB (100 KB pages) drop
    #: this to ~1024 so batch × concurrency fits worker heaps
    extract_batch_size: int = 4096
    expand_batch_size: int = 4096
    #: drop owl:sameAs triples from the final graph after rewriting
    drop_sameas: bool = True
    #: broadcast ceiling for the sameAs rewrite LUT: if the compressed
    #: alias-pair count exceeds this, the two-pass canonical path switches
    #: from the broadcast hash-LUT rewrite to the partitioned-join rewrite
    #: (canonicalize_stage_joined: distributed CC + two hash joins — no
    #: single plasma object ever holds the mapping), and the single-pass
    #: writer's fixup runs as a distributed second pass.  Default sized so
    #: a LUT of ~100M pairs (~8 GB of strings+hashes) still broadcasts on a
    #: 128 GiB node; 0 disables the switch.
    canon_broadcast_max_pairs: int = 100_000_000
    #: validate documents against the SHACL-subset shapes during expansion
    #: (single parse; the reference's validate-during-harvest contract)
    validate_docs: bool = True

    @classmethod
    def for_cpus(cls, num_cpus: int) -> "PipelineConfig":
        """The config for a ``num_cpus`` cluster.  Every stage runs as
        stateless tasks that Ray Data scales to the free CPUs, so no field
        depends on the CPU count and this is the default config."""
        return cls()

    @classmethod
    def from_env(cls, environ=None) -> "PipelineConfig":
        """F10 — env→typed config layer with fail-fast validation
        (reference userCode/lib/env.py: every var read through typed
        coercion, unknown/invalid values fail at job start, not mid-run).

        Recognized vars: ``SCHEDULER_RAY_<FIELD>`` for every scalar
        dataclass field, e.g. ``SCHEDULER_RAY_EXTRACT_BATCH_SIZE=2048``,
        ``SCHEDULER_RAY_VALIDATE_DOCS=false``.  Any other ``SCHEDULER_RAY_*``
        variable (a typo, or a removed field) raises ``ValueError``.
        """
        import dataclasses
        import os as _os

        from .functions.scalars import env_bool, env_int

        environ = _os.environ if environ is None else environ
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(
            k
            for k in environ
            if k.startswith(ENV_PREFIX)
            and k[len(ENV_PREFIX):].lower() not in fields
        )
        if unknown:
            raise ValueError(f"unknown config env var(s): {', '.join(unknown)}")
        kwargs = {}
        for name, f in fields.items():
            raw = environ.get(f"{ENV_PREFIX}{name.upper()}")
            if raw is None:
                continue
            if f.type == "int":
                kwargs[name] = env_int(raw, 0)
            elif f.type == "bool":
                kwargs[name] = env_bool(raw)
            else:
                raise ValueError(f"env override not supported for field {name}")
        return cls(**kwargs).validate()

    def validate(self) -> "PipelineConfig":
        for name in ("extract_batch_size", "expand_batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        return self
