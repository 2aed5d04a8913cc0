"""Fault-model strategies: what a fault *does* to the bits it hits.

The paper injects one kind of fault -- a transient bit flip -- and the
original injector hard-coded that XOR in every per-structure handler.
This module factors the *semantics* of a fault out of the *spatial
resolution* (which warp/register/line is hit): a :class:`FaultModel`
says how corrupted bits relate to the stored value and whether the
fault persists, while :class:`~repro.faults.injector.Injector` keeps
resolving targets exactly as before.

Built-in models:

``transient``
    The paper's single-event upset: the targeted bits invert once and
    the stored value then evolves normally.  The default; campaigns
    using it are byte-identical to the pre-refactor code.
``stuck_at_0`` / ``stuck_at_1``
    A permanent defect: the targeted cells read as 0 (resp. 1) from
    the fault cycle to the end of the run.  The injector re-asserts
    the stuck value at the top of every cycle-loop iteration, so
    overwrites do not heal the fault and cache refills re-corrupt the
    line -- a stuck SRAM cell, not a flipped one.  Persistence makes
    two accelerations unsound and they are disabled per-model: the
    dead-site pre-screen (an "overwritten" site is *not* dead when the
    overwrite itself is re-corrupted) and the convergence early-exit
    (matching a golden digest no longer pins the run's future).
``control``
    Transient flips aimed at the SIMT control units instead of storage
    arrays: by default it targets the reconvergence stack and the
    scoreboard (``Structure.SIMT_STACK`` / ``Structure.SCOREBOARD``),
    the parallelism-management state Guerrero-Balaguera et al. show
    behaves qualitatively unlike storage flips.

Registering a custom model::

    from repro.faults.models import FaultModel, register_model

    class SkipWrite(FaultModel):
        name = "skip_write"
        persistent = True
        prescreen_safe = False
        def apply_word(self, value, bits):
            ...

    register_model(SkipWrite())

The name then works everywhere a built-in does: ``--fault-model``,
``-gpufi_fault_model``, :class:`CampaignConfig` and
:meth:`FaultMask.from_dict`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.faults.targets import CONTROL_STRUCTURES, Structure


class FaultModel:
    """Strategy describing the semantics of one fault kind.

    Subclasses override the class attributes and the ``apply_*``
    hooks; spatial resolution (which warp, which line) stays in the
    injector and is identical for every model.
    """

    #: Registry key; also the value of the ``fault_model`` dimension in
    #: masks, specs and log records.
    name: str = ""

    #: Persistent faults re-assert their bits on every cycle-loop
    #: iteration (injector closures); transient faults strike once.
    persistent: bool = False

    #: Whether the golden-liveness dead-site pre-screen is sound for
    #: this model.  Persistent faults must say ``False``: a site whose
    #: next event is an overwrite is dead for a transient flip but
    #: *live* for a stuck-at (the overwrite is re-corrupted).
    prescreen_safe: bool = True

    #: Whether the paper's deferred cache-hook mechanism composes with
    #: this model (hooks encode one-shot flip semantics).
    supports_cache_hooks: bool = True

    def check_cache_hooks(self, cache_hook_mode: bool) -> None:
        """Reject ``cache_hook_mode`` under a model it does not fit."""
        if cache_hook_mode and not self.supports_cache_hooks:
            raise ValueError(
                f"fault model {self.name!r} does not support "
                "cache_hook_mode (hooks encode one-shot flip semantics)")

    def apply_word(self, value, bits):
        """Corrupt ``value`` at the positions set in ``bits``.

        Works elementwise on numpy unsigned arrays/scalars and on
        plain non-negative ints; returns the corrupted value(s).
        """
        raise NotImplementedError

    def apply_bool(self, value: bool) -> bool:
        """Corrupt one single-bit (boolean) cell."""
        raise NotImplementedError

    @property
    def cache_op(self) -> str:
        """Cache bit operation: ``"xor"``, ``"set"`` or ``"clear"``."""
        return "xor"

    def default_structures(self, config) -> Optional[Tuple[Structure, ...]]:
        """Structures a campaign of this model targets when the user
        names none; ``None`` defers to the card's default set."""
        return None


class TransientModel(FaultModel):
    """Single-event upset: targeted bits invert once (the paper)."""

    name = "transient"

    def apply_word(self, value, bits):
        return value ^ bits

    def apply_bool(self, value: bool) -> bool:
        return not value


class StuckAt0Model(FaultModel):
    """Permanent stuck-at-0: targeted cells read 0 for the whole run."""

    name = "stuck_at_0"
    persistent = True
    prescreen_safe = False
    supports_cache_hooks = False

    def apply_word(self, value, bits):
        return value & ~bits

    def apply_bool(self, value: bool) -> bool:
        return False

    @property
    def cache_op(self) -> str:
        return "clear"


class StuckAt1Model(FaultModel):
    """Permanent stuck-at-1: targeted cells read 1 for the whole run."""

    name = "stuck_at_1"
    persistent = True
    prescreen_safe = False
    supports_cache_hooks = False

    def apply_word(self, value, bits):
        return value | bits

    def apply_bool(self, value: bool) -> bool:
        return True

    @property
    def cache_op(self) -> str:
        return "set"


class ControlModel(TransientModel):
    """Transient flips into the SIMT control units.

    Same single-upset semantics as ``transient``, but a campaign that
    does not name structures targets the reconvergence stack and the
    scoreboard instead of the storage arrays.
    """

    name = "control"

    def default_structures(self, config) -> Tuple[Structure, ...]:
        return CONTROL_STRUCTURES


_REGISTRY: Dict[str, FaultModel] = {}


def register_model(model: FaultModel) -> FaultModel:
    """Register a :class:`FaultModel` instance under its ``name``.

    Re-registering a name replaces the previous model (tests override
    built-ins this way).  Returns the model for chaining.
    """
    if not model.name:
        raise ValueError("fault model must define a non-empty name")
    _REGISTRY[model.name] = model
    return model


def get_model(name: str) -> FaultModel:
    """Look up a registered model; unknown names list the registry."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {name!r}; registered models: "
            f"{', '.join(model_names())}") from None


def model_names() -> Tuple[str, ...]:
    """Registered model names, sorted."""
    return tuple(sorted(_REGISTRY))


register_model(TransientModel())
register_model(StuckAt0Model())
register_model(StuckAt1Model())
register_model(ControlModel())
