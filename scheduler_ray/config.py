"""Pipeline configuration (SURVEY.md §2.10 — the pydantic-run-config analogue).

The reference exposes run-tunable pydantic configs
(reference userCode/lib/containers.py:28-52,103-116); we expose one
dataclass, validated at job start (fail-fast like reference
userCode/lib/env.py:28-34).  It holds only the setting callers change:
the broadcast ceiling of the sameAs rewrite.  Everything with one value
in use is a constant of the stage that uses it: extract and expand map
4096-row batches, expansion always validates against the shapes, and
canonicalization always drops ``owl:sameAs`` and dedups each block.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the env prefix ``from_env`` reads
ENV_PREFIX = "SCHEDULER_RAY_"


@dataclass
class PipelineConfig:
    #: broadcast ceiling for the sameAs rewrite LUT: if the compressed
    #: alias-pair count exceeds this, the two-pass canonical path switches
    #: from the broadcast hash-LUT rewrite to the partitioned-join rewrite
    #: (canonicalize_stage_joined: distributed CC + two hash joins — no
    #: single plasma object ever holds the mapping), and the single-pass
    #: writer's fixup runs as a distributed second pass.  Default sized so
    #: a LUT of ~100M pairs (~8 GB of strings+hashes) still broadcasts on a
    #: 128 GiB node; 0 disables the switch.
    canon_broadcast_max_pairs: int = 100_000_000

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

        Recognized vars: ``SCHEDULER_RAY_<FIELD>`` for every (integer)
        dataclass field, e.g. ``SCHEDULER_RAY_CANON_BROADCAST_MAX_PAIRS=0``.
        Any other ``SCHEDULER_RAY_*`` variable (a typo, or a removed
        field) raises ``ValueError``.
        """
        import dataclasses
        import os as _os

        from .functions.scalars import env_int

        environ = _os.environ if environ is None else environ
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(
            k
            for k in environ
            if k.startswith(ENV_PREFIX) and k[len(ENV_PREFIX):].lower() not in names
        )
        if unknown:
            raise ValueError(f"unknown config env var(s): {', '.join(unknown)}")
        kwargs = {
            name: env_int(environ[var])
            for name in names
            if (var := f"{ENV_PREFIX}{name.upper()}") in environ
        }
        return cls(**kwargs).validate()

    def validate(self) -> "PipelineConfig":
        if self.canon_broadcast_max_pairs < 0:
            raise ValueError("canon_broadcast_max_pairs must be >= 0 (0 disables the switch)")
        return self
