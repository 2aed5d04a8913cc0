"""Campaign observability: event streams, metrics, propagation.

The paper's methodology is thousands of complete application
executions per campaign, and after the executor (PR 1), checkpoint
fast-forward (PR 2) and masked-fault early termination (PR 3) each
run's cost is dominated by *which* machinery fired.  This package is
the telemetry substrate that makes that visible -- the analogue of
SASSIFI's per-site instrumentation logs and NVBitFI's injection-site
reports: structured, per-run, and produced as a first-class campaign
output instead of a debugging afterthought.

Cooperating pieces, all strictly observational (classification
counts and aggregated campaign results are bit-identical with
telemetry enabled or disabled):

- :mod:`repro.obs.events` -- an append-only JSONL event stream
  (campaign lifecycle, per-run completions, worker heartbeats) written
  next to the campaign log, and its one fold, the ``Tally`` every view
  of a campaign reads.
- :mod:`repro.obs.metrics` -- the campaign metrics collector and the
  ``<log>.metrics.json`` sidecar: wall-clock, throughput, per-effect
  latency histograms, checkpoint hit/miss counts, early-stop savings
  attribution, and per-worker utilization/heartbeats.
- :mod:`repro.obs.propagation` -- per-run fault-propagation tracing:
  site-fate tracking (consumed / overwritten / evicted /
  never_touched), a bounded consumer chain, and divergence
  localization against the golden checkpoint digest stream; surfaced
  by ``gpufi explain-run`` and the sidecar's ``propagation`` section.

See ``docs/observability.md`` for the schemas and the
``gpufi report-metrics`` / ``gpufi explain-run`` front-ends.
"""

from repro.obs.events import (EVENT_SCHEMA, Tally, campaign_trace,
                              events_path_for, read_events, run_trace,
                              shard_trace, trim_torn_tail)
from repro.obs.live import (EventFileTailer, format_event,
                            format_plan_timing, lint_prometheus,
                            render_prometheus, render_top)
from repro.obs.metrics import (MetricsCollector, derived_cycle_fields,
                               metrics_path_for)
from repro.obs.propagation import (PropagationTracer, explain_record,
                                   prescreen_propagation,
                                   summarize_propagation,
                                   synthesized_propagation)

__all__ = [
    "EVENT_SCHEMA",
    "events_path_for",
    "read_events",
    "trim_torn_tail",
    "campaign_trace",
    "shard_trace",
    "run_trace",
    "Tally",
    "EventFileTailer",
    "format_event",
    "format_plan_timing",
    "lint_prometheus",
    "render_prometheus",
    "render_top",
    "MetricsCollector",
    "metrics_path_for",
    "derived_cycle_fields",
    "PropagationTracer",
    "explain_record",
    "prescreen_propagation",
    "summarize_propagation",
    "synthesized_propagation",
]
