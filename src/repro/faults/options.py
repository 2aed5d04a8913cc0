"""The campaign option table.

gpuFI-4's front-end is a parameter sheet: per-card, per-application
and per-campaign groups handed to the simulator as ``-gpufi_*`` lines.
Here that sheet is :class:`CampaignConfig`, and it is the only place an
option is declared (:func:`_option` says what a declaration carries).
Every other surface is read from the table by a function below: the
``gpufi campaign`` / ``gpufi submit`` flags, config files and the text
a dispatcher is sent (:mod:`repro.faults.config_file` only knows the
line syntax), the campaign-constant part of a plan's specs, the fields
of a plan fingerprint, the local pool's executor arguments and the
*Option reference* of ``docs/campaigns.md``.

Groups: ``card``, ``application`` and ``campaign`` are the paper's;
``execution`` options say where and with what machinery *this process*
runs the campaign (its log, its checkpoints, its pool or fleet).  They
never change a record, are not offered by ``gpufi submit`` and are not
shipped to a dispatcher, which owns those choices for its fleet.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.faults.early_stop import EARLY_STOP_MODES
from repro.faults.mask import MultiBitMode
from repro.faults.models import get_model
from repro.faults.targets import Structure, supported_structures
from repro.sim.cards import get_card

#: What every campaign option is spelled with in a config file.
KEY_PREFIX = "-gpufi_"


def _option(default=MISSING, *, group: str, flag: Optional[str] = None,
            key: Optional[str] = None, identity: bool = False,
            spec: bool = False, executor: Optional[str] = None,
            elide: bool = False,
            text: Optional[Tuple[Callable, Callable]] = None, **argparse_kw):
    """Declare one option.

    ``flag`` / ``key``: its spelling on the command line / in a config
    file (``None``: not settable there).  ``identity``: changing it
    changes what the campaign *is*, so it moves
    :func:`~repro.faults.executor.plan_fingerprint`.  ``spec``: every
    ``RunSpec`` carries it under the same name.  ``executor``: the
    ``CampaignExecutor`` argument it is passed as.  ``elide``: a dump
    omits it at its default (``None`` is never written).  ``text``:
    ``(parse, format)`` when the field's type does not say.  Anything
    else (``help``, ``choices``, ``metavar``, ...) is the flag's
    ``add_argument`` keywords.
    """
    return dataclasses.field(default=default, metadata={
        "group": group, "flag": flag, "key": key, "identity": identity,
        "spec": spec, "executor": executor, "elide": elide, "text": text,
        "argparse": argparse_kw})


def _parse_switch(text: str) -> bool:
    return text.lower() in ("1", "true", "yes", "on")


#: Text form of each field type, ``Optional[...]`` stripped: how a
#: config-file value (and a flag argparse left as text) is parsed, and
#: how a value is written back so that it parses to itself.
_TEXT_FORMS: Dict[str, Tuple[Callable, Callable]] = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, repr),
    "bool": (_parse_switch, lambda value: str(int(value))),
    "Path": (Path, str),
    "MultiBitMode": (MultiBitMode, lambda mode: mode.value),
    "Tuple[Structure, ...]": (
        lambda text: tuple(Structure(part.strip().lower())
                           for part in text.split(",") if part.strip()),
        lambda value: ",".join(s.value for s in value)),
    "Tuple[str, ...]": (
        lambda text: tuple(part.strip() for part in text.split(",")),
        ",".join),
}


@dataclass
class CampaignConfig:
    """Parameters of one injection campaign -- the option table.

    Mirrors the paper's parameter groups: *per GPGPU card*, *per
    kernel/application* and *per injection campaign*, plus the
    ``execution`` group of the process running it.  An option's
    ``help`` is its description; a ``#:`` comment adds what the help
    does not say.
    """

    benchmark: str = _option(
        group="application", flag="--benchmark", key="benchmark",
        identity=True, spec=True)
    card: str = _option(
        group="card", flag="--card", key="card", identity=True, spec=True)
    #: Structures to inject; ``None`` takes the fault model's default
    #: set, else every structure the card supports.
    structures: Optional[Tuple[Structure, ...]] = _option(
        None, group="campaign", flag="--structures", key="components",
        help="comma list, e.g. register_file,l2_cache", identity=True)
    #: A registered :class:`~repro.faults.models.FaultModel` name.
    fault_model: str = _option(
        "transient", group="campaign", flag="--fault-model",
        key="fault_model", metavar="MODEL", identity=True, spec=True,
        help="named fault model: transient (default, the paper's bit "
             "flip), stuck_at_0 / stuck_at_1 (persistent), control "
             "(targets the SIMT control units), or any registered "
             "custom model")
    runs_per_structure: int = _option(
        100, group="campaign", flag="--runs", key="runs", identity=True)
    bits_per_fault: int = _option(
        1, group="campaign", flag="--bits", key="bits_per_fault",
        identity=True, spec=True)
    multibit_mode: MultiBitMode = _option(
        MultiBitMode.SAME_ENTRY, group="campaign",
        flag="--multibit-mode", key="multibit_mode",
        choices=tuple(mode.value for mode in MultiBitMode),
        identity=True, spec=True)
    warp_level: bool = _option(
        False, group="campaign", flag="--warp-level", key="warp_level",
        identity=True, spec=True)
    # no flag (n_blocks, n_cores): parameter-sheet settings, as in the paper
    n_blocks: int = _option(
        1, group="campaign", key="blocks", identity=True, spec=True)
    n_cores: int = _option(
        1, group="campaign", key="cores", identity=True, spec=True)
    kernels: Optional[Tuple[str, ...]] = _option(
        None, group="application", flag="--kernels", key="kernels",
        help="comma list of target static kernels", identity=True)
    #: Restrict faults to one dynamic invocation of the target kernel
    #: (0-based); ``None`` covers all invocations together, the
    #: paper's default methodology (section VI.A).
    invocation: Optional[int] = _option(
        None, group="application", flag="--invocation",
        key="invocation", help="restrict to one dynamic invocation",
        identity=True, spec=True)
    seed: int = _option(
        0, group="campaign", flag="--seed", key="seed", identity=True)
    scheduler_policy: str = _option(
        "gto", group="card", flag="--scheduler", key="scheduler",
        choices=("gto", "lrr"), identity=True, spec=True)
    #: Use the paper's deferred hook mechanism for cache injections
    #: instead of direct in-line bit flips.
    cache_hook_mode: bool = _option(
        False, group="campaign", flag="--cache-hook-mode",
        key="cache_hook_mode", identity=True, spec=True)
    #: Model the L1 instruction cache (extension): enables
    #: ``Structure.L1I_CACHE`` injection and adds fetch timing.
    model_icache: bool = _option(
        False, group="card", flag="--model-icache", key="model_icache",
        help="model + inject the L1 instruction cache",
        identity=True, spec=True)
    #: "converge" needs ``checkpoint_dir``; "full" pre-screens at plan
    #: time, from the golden liveness trace.  Only wall-clock time
    #: changes between the modes.
    early_stop: str = _option(
        "full", group="campaign", flag="--early-stop", key="early_stop",
        choices=EARLY_STOP_MODES, spec=True,
        help="masked-fault early termination: 'converge' ends runs "
             "whose state re-joins a golden checkpoint, 'full' also "
             "pre-screens provably-dead fault targets "
             "(classifications identical in all modes)")
    #: Records gain their ``timings`` and ``worker`` fields.
    metrics: bool = _option(
        False, group="campaign", flag="--metrics", key="metrics",
        executor="telemetry",
        help="campaign observability: per-run timings, a "
             "<log>.events.jsonl stream and a <log>.metrics.json "
             "sidecar (results are identical either way)")
    #: The record goes under each run's ``propagation`` key; with
    #: ``metrics`` the sidecar gains a ``propagation`` section.
    propagation: bool = _option(
        False, group="campaign", flag="--propagation", key="propagation",
        spec=True,
        help="fault-propagation tracing: attach a per-run record of "
             "site fates, consumer chain and divergence window; "
             "explore with 'gpufi explain-run' (results are identical "
             "either way)")
    run_timeout: Optional[float] = _option(
        None, group="campaign", flag="--run-timeout", key="run_timeout",
        executor="run_timeout",
        help="abort when no run completes for this many seconds "
             "(default: wait forever)")
    #: See :mod:`repro.plan`; ``"off"`` is byte-identical to the logs
    #: written before the planner existed.
    adaptive: str = _option(
        "off", group="campaign", flag="--adaptive", key="adaptive",
        choices=("on", "off"), nargs="?", const="on", elide=True,
        # a switch in config files (``-gpufi_adaptive 1``)
        text=(lambda text: "on" if _parse_switch(text) else "off",
              lambda value: str(int(value == "on"))),
        help="adaptive campaign planning: stratified sampling with "
             "per-stratum stopping at --error-target; --runs becomes "
             "the per-structure run budget (default: off, the fixed "
             "uniform plan)")
    error_target: float = _option(
        0.02, group="campaign", flag="--error-target",
        key="error_target", metavar="E", elide=True,
        help="per-stratum margin-of-error target of --adaptive "
             "campaigns (half-width of the 99%% Wilson interval; "
             "default 0.02)")
    log_path: Optional[Path] = _option(
        None, group="execution", flag="--log", key="log",
        executor="log_path", help="JSONL output path")
    # no key (checkpoint_dir, checkpoint_interval, verify_restore,
    # profile): config files travel between hosts, and these describe
    # one host's speed-up and debugging machinery
    #: See :mod:`repro.sim.checkpoint`; ``None`` disables checkpointing.
    checkpoint_dir: Optional[Path] = _option(
        None, group="execution", flag="--checkpoint-dir", spec=True,
        help="directory for golden-run checkpoints; fault runs "
             "fast-forward to their injection cycle (results "
             "identical)")
    checkpoint_interval: Optional[int] = _option(
        None, group="execution", flag="--checkpoint-interval",
        help="capture stride in cycles (default: geometric "
             "auto-spacing)")
    verify_restore: bool = _option(
        False, group="execution", flag="--verify-restore", spec=True,
        help="cross-check every fast-forwarded run against a "
             "from-scratch run")
    #: See :mod:`repro.faults.batch_executor`; ``1`` disables batching.
    batch: int = _option(
        1, group="execution", flag="--batch-size", key="batch",
        metavar="N", executor="batch", elide=True,
        help="lockstep batch size: simulate up to N eligible injected "
             "runs per process in one cycle loop (records are "
             "byte-identical for any size; default 1)")
    profile: bool = _option(
        False, group="execution", flag="--profile", executor="profile",
        help="dump per-worker cProfile sidecars "
             "(<log>.profile.<worker>.pstats); inspect with 'gpufi "
             "report-profile'")
    backend: str = _option(
        "local", group="execution", flag="--backend", key="backend",
        choices=("local", "remote"), elide=True,
        help="execution backend: 'local' (default, in-process worker "
             "pool) or 'remote' (submit to a gpufi serve dispatcher; "
             "records are canonically byte-identical either way)")
    backend_url: Optional[str] = _option(
        None, group="execution", flag="--connect", key="backend_url",
        metavar="URL",
        help="dispatcher URL for --backend remote (implies it), e.g. "
             "http://host:8937")

    def __post_init__(self):
        # validate eagerly so every surface (CLI flag, config file,
        # direct construction) rejects unknown models identically
        get_model(self.fault_model)
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        for name in ("backend", "adaptive"):
            allowed = OPTIONS[name].metadata["argparse"]["choices"]
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"{name} must be "
                    f"{' or '.join(map(repr, allowed))}, "
                    f"got {getattr(self, name)!r}")
        if not 0 < self.error_target < 1:
            raise ValueError(f"error_target must be in (0, 1), "
                             f"got {self.error_target}")
        if self.adaptive == "on" and self.backend == "remote":
            raise ValueError(
                "adaptive campaigns drive execution in rounds and "
                "need the local backend; use backend='local'")

    def resolved_model(self):
        """The registered :class:`FaultModel` this campaign applies."""
        return get_model(self.fault_model)

    def resolved_card(self):
        """The card model with campaign-level extensions applied."""
        return get_card(self.card, self.model_icache)

    def resolved_structures(self) -> Tuple[Structure, ...]:
        """The structures to inject.

        Explicit ``structures`` win; otherwise the fault model may
        name its own default target set (the ``control`` model targets
        the control units), falling back to every structure the card
        supports.
        """
        if self.structures is not None:
            return tuple(self.structures)
        model_default = self.resolved_model().default_structures(
            get_card(self.card))
        if model_default is not None:
            return tuple(model_default)
        return supported_structures(get_card(self.card))


#: The table, by field name, in declaration order (= ``--help`` and
#: dump order).
OPTIONS: Dict[str, dataclasses.Field] = {
    option.name: option for option in dataclasses.fields(CampaignConfig)}

#: Default of every option that has one; what ``RunSpec`` defaults the
#: options it carries to.
DEFAULTS: Dict[str, object] = {
    name: option.default for name, option in OPTIONS.items()
    if option.default is not MISSING}


@functools.lru_cache(maxsize=None)
def _rows(*having: str, execution: bool = True
          ) -> Tuple[dataclasses.Field, ...]:
    """Options that have every metadata entry named; without
    ``execution``, not those of that group.  Cached: the table is
    fixed, and every plan asks."""
    return tuple(option for option in OPTIONS.values()
                 if all(option.metadata[name] for name in having)
                 and (execution or option.metadata["group"] != "execution"))


def _text_form(option: dataclasses.Field) -> Tuple[Callable, Callable]:
    kind = option.type
    if kind.startswith("Optional["):
        kind = kind[len("Optional["):-1]
    return option.metadata["text"] or _TEXT_FORMS[kind]


def add_option_flags(parser: argparse.ArgumentParser, execution: bool = True,
                     after: Optional[Mapping[str, Callable]] = None
                     ) -> None:
    """Add the flag of every option (without ``execution``: of every
    option outside that group) to ``parser``, in table order.

    No flag has a default: one the user did not type is absent from
    the parsed namespace, which is what lets typed flags override a
    config file and nothing else.  ``after[name](parser)`` is called
    once the flag of field ``name`` is added, for arguments of the
    command that are not campaign options but sit between them in
    ``--help``.
    """
    for option in _rows("flag", execution=execution):
        kwargs = dict(option.metadata["argparse"], default=argparse.SUPPRESS)
        parse = _text_form(option)[0]
        if option.type == "bool":
            kwargs["action"] = "store_true"
        elif parse in (int, float):
            kwargs["type"] = parse  # argparse words the error
        parser.add_argument(option.metadata["flag"], **kwargs)
        if after and option.name in after:
            after[option.name](parser)


def options_from_args(args: argparse.Namespace,
                      execution: bool = True) -> Dict[str, object]:
    """Field values of the option flags the user typed, from a
    namespace parsed with :func:`add_option_flags` flags (same
    ``execution``).  Raises ``ValueError`` for a value that does not
    parse."""
    typed = {}
    for option in _rows("flag", execution=execution):
        # where argparse puts it (and takes the help's metavar from)
        dest = option.metadata["flag"].lstrip("-").replace("-", "_")
        if hasattr(args, dest):
            value = getattr(args, dest)
            typed[option.name] = (_text_form(option)[0](value)
                                  if isinstance(value, str) else value)
    return typed


def config_from_keys(values: Mapping[str, str]) -> CampaignConfig:
    """Build a config from ``{key: text}`` (keys without their
    ``-gpufi_`` prefix); absent keys keep the field default."""
    by_key = {option.metadata["key"]: option for option in _rows("key")}
    unknown = set(values) - set(by_key)
    if unknown:
        raise ValueError(f"unknown gpufi options: {sorted(unknown)}")
    required = [key for key, option in by_key.items()
                if option.default is MISSING]
    if not set(required) <= set(values):
        raise ValueError(
            " and ".join(KEY_PREFIX + key for key in required)
            + " are required options")
    return CampaignConfig(**{
        by_key[key].name: _text_form(by_key[key])[0](text)
        for key, text in values.items()})


def config_to_keys(config: CampaignConfig,
                   execution: bool = True) -> List[Tuple[str, str]]:
    """``(key, text)`` of every option that has a key, in table order;
    ``config_from_keys(dict(config_to_keys(c)))`` equals ``c`` on those
    options.  Without ``execution``, the form a dispatcher is sent."""
    pairs = []
    for option in _rows("key", execution=execution):
        value = getattr(config, option.name)
        if not (value is None or (option.metadata["elide"]
                                  and value == option.default)):
            pairs.append((option.metadata["key"],
                          _text_form(option)[1](value)))
    return pairs


def spec_constants(config: CampaignConfig) -> Dict[str, object]:
    """The ``RunSpec`` fields that are the same for every run of the
    campaign (paths as text: specs travel as JSON)."""
    values = ((option.name, getattr(config, option.name))
              for option in _rows("spec"))
    return {name: str(value) if isinstance(value, Path) else value
            for name, value in values}


def identity_fields() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The ``RunSpec`` attributes a plan fingerprint hashes, as
    ``(row, late)``.

    ``row``: the identity options a spec carries, in table order (enum
    members by ``.value``), with the run's own coordinates after those
    that have no default -- the layout every existing log's
    fingerprint was computed with.  ``late`` options (default ``None``)
    joined the identity after logs existed: they are appended as
    ``[name, value]``, and only when set, so a plan that leaves them
    alone keeps its fingerprint.
    """
    carried = _rows("identity", "spec")
    return (tuple([o.name for o in carried if o.default is MISSING]
                  + ["kernel", "structure.value", "run_index", "seed"]
                  + [o.name + (".value" if isinstance(o.default, enum.Enum)
                               else "")
                     for o in carried if o.default not in (MISSING, None)]),
            tuple(o.name for o in carried if o.default is None))


def executor_arguments(config: CampaignConfig) -> Dict[str, object]:
    """Keyword arguments of the ``CampaignExecutor`` that runs
    ``config`` on the local pool."""
    return {option.metadata["executor"]: getattr(config, option.name)
            for option in _rows("executor")}


def render_option_reference() -> str:
    """The *Option reference* table of ``docs/campaigns.md``
    (``tests/test_options.py`` compares the two)."""
    def code(text) -> str:
        return f"`{text}`" if text else "—"

    lines = ["| field | flag | config key | default | group "
             "| in plan identity |",
             "|---|---|---|---|---|---|"]
    for option in OPTIONS.values():
        meta = option.metadata
        default = ("(required)" if option.default is MISSING
                   else "—" if option.default is None
                   else code(_text_form(option)[1](option.default)))
        lines.append(
            f"| `{option.name}` | {code(meta['flag'])} "
            f"| {code(meta['key'] and KEY_PREFIX + meta['key'])} "
            f"| {default} | {meta['group']} "
            f"| {'yes' if meta['identity'] else 'no'} |")
    return "\n".join(lines) + "\n"
