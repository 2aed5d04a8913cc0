"""gpuFI-4 core: fault masks, injection, campaigns, classification.

This package is the paper's primary contribution: a
microarchitecture-level transient-fault injection framework on top of
the cycle-level simulator in :mod:`repro.sim`.  It mirrors the paper's
three modules:

- a *fault masks generator* (:mod:`repro.faults.mask`),
- an *injection campaign controller* (:mod:`repro.faults.campaign`,
  with the per-run machinery in :mod:`repro.faults.runner` and
  :mod:`repro.faults.injector`),
- a *parser of the logged information*
  (:mod:`repro.faults.parser`, classification rules in
  :mod:`repro.faults.classify`).
"""

from repro.faults.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    GoldenRun,
    KernelProfile,
    profile_application,
)
from repro.faults.classify import FaultEffect, classify_run
from repro.faults.config_file import dump_config, load_config, \
    parse_config_text
from repro.faults.early_stop import (EARLY_STOP_MODES, ConvergenceMonitor,
                                     EarlyConvergence, Prescreener)
from repro.faults.executor import (CampaignExecutor, RunSpec,
                                   WorkerPoolError, execute_run)
from repro.faults.injector import Injector
from repro.faults.mask import (FaultMask, MaskGenerator, MultiBitMode,
                               derive_run_seed)
from repro.faults.models import (FaultModel, get_model, model_names,
                                 register_model)
from repro.faults.parser import (load_records, scan_completed_records,
                                 split_by_model)
from repro.faults.runner import RunResult, run_application
from repro.faults.targets import Structure
from repro.sim.device import RunOptions

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "CampaignExecutor",
    "WorkerPoolError",
    "RunSpec",
    "RunOptions",
    "execute_run",
    "derive_run_seed",
    "scan_completed_records",
    "GoldenRun",
    "KernelProfile",
    "profile_application",
    "FaultEffect",
    "classify_run",
    "load_config",
    "dump_config",
    "parse_config_text",
    "EARLY_STOP_MODES",
    "ConvergenceMonitor",
    "EarlyConvergence",
    "Prescreener",
    "Injector",
    "FaultMask",
    "FaultModel",
    "register_model",
    "get_model",
    "model_names",
    "MaskGenerator",
    "MultiBitMode",
    "split_by_model",
    "load_records",
    "RunResult",
    "run_application",
    "Structure",
]
