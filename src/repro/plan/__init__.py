"""Adaptive campaign planning (stratified + importance sampling).

The paper sizes every campaign at a flat run count from the Leveugle
formula (worst-case ``p = 0.5``, one pooled population).  This package
replaces that with a round-based planner that

1. **stratifies** the fault space by (structure, bit-position band,
   liveness lifetime band) -- :mod:`repro.plan.strata`;
2. **stops each stratum** when its Wilson interval half-width against
   the true finite stratum population reaches the error target --
   :mod:`repro.plan.estimator`;
3. **doubles each unmet stratum per round**, splitting a round whose
   asks exceed the budget evenly over those strata --
   :mod:`repro.plan.driver` -- while importance weights keep the
   stratified estimator unbiased for any allocation.

Entry point: :func:`repro.plan.driver.run_adaptive`, reached via
``CampaignConfig.adaptive == "on"`` (``gpufi campaign --adaptive``).
The default (non-adaptive) path plans and executes without this
package, so its logs stay canonically byte-identical to historic ones;
its results are read through the estimator's one-stratum case
(:func:`repro.plan.estimator.fold`).  The package re-exports nothing,
so that fold does not load the driver.
"""
