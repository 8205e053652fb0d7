"""Parallel, cache-backed experiment campaign engine.

The Section 6 evaluation — and any larger sweep built on it — is a set
of *(workload, platform, policy, bound)* instances, each deterministic
and independent of the others.  This package turns that shape into
infrastructure:

* :mod:`~repro.campaign.spec` — :class:`InstanceSpec`, a pure, hashable
  description of one instance, content-addressed via a canonical hash
  salted with :data:`CODE_VERSION`;
* :mod:`~repro.campaign.cache` — :class:`ResultCache`, an atomic,
  sharded on-disk store of per-instance metrics keyed by that hash;
* :mod:`~repro.campaign.executor` — :func:`run_campaign`, which serves
  cached instances and runs the misses inline at one job, over the
  work-stealing fabric of :mod:`~repro.campaign.backends` above one
  (serial results are reproduced bit-for-bit at any job count);
* :mod:`~repro.campaign.telemetry` — per-run manifests and
  :class:`CampaignStats` counters.

Figures 6 and 7 (and everything sharing their sweeps) route through
this engine; ``python -m repro campaign`` is the CLI front end.
"""

from repro.campaign.spec import CODE_VERSION, InstanceSpec
from repro.campaign.cache import (
    CacheStats,
    ResultCache,
    decode_value,
    encode_value,
)
from repro.campaign.executor import (
    CampaignOutcome,
    CampaignRecord,
    derive_seeds,
    execute_spec,
    execute_spec_cached,
    metrics_to_run_metrics,
    run_campaign,
)
from repro.campaign.telemetry import CampaignStats, campaign_id, write_manifest

__all__ = [
    "CODE_VERSION",
    "InstanceSpec",
    "CacheStats",
    "ResultCache",
    "CampaignOutcome",
    "CampaignRecord",
    "CampaignStats",
    "run_campaign",
    "execute_spec",
    "execute_spec_cached",
    "derive_seeds",
    "metrics_to_run_metrics",
    "campaign_id",
    "write_manifest",
    "encode_value",
    "decode_value",
]
