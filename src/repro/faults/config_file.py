"""gpgpusim.config-style campaign configuration files.

gpuFI-4 drives its backend through new ``-gpufi_*`` options appended
to GPGPU-Sim's ``gpgpusim.config``; this module reads and writes the
same option style so campaigns are configurable without touching
Python::

    # gpufi.config
    -gpufi_benchmark vectoradd
    -gpufi_card RTX2060
    -gpufi_components register_file,l2_cache
    -gpufi_runs 100
    -gpufi_bits_per_fault 1
    -gpufi_seed 7

Unknown ``-gpufi_*`` options raise; non-gpufi options (the rest of a
real gpgpusim.config) are ignored, so a full simulator config file can
be passed directly.

Which keys exist, what their values mean and in what order a dump
writes them is read from the option table
(:mod:`repro.faults.options`); this module knows the line syntax.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Union

from repro.faults.options import (KEY_PREFIX, CampaignConfig,
                                  config_from_keys, config_to_keys)


def parse_config_text(text: str) -> CampaignConfig:
    """Parse option text into a :class:`CampaignConfig` (the last of a
    repeated key wins)."""
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a "//" comment must stand alone (start of line or after
        # whitespace) so URL values like http://host:8937 survive
        line = raw.split("#", 1)[0]
        comment = re.search(r"(?:^|\s)//", line)
        if comment:
            line = line[:comment.start()]
        line = line.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        if not key.startswith(KEY_PREFIX):
            continue  # a regular gpgpusim.config option
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: option {key} needs a value")
        options[key[len(KEY_PREFIX):]] = parts[1].strip()
    return config_from_keys(options)


def load_config(path: Union[str, Path]) -> CampaignConfig:
    """Load a campaign configuration from a config file."""
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def dump_config(config: CampaignConfig, execution: bool = True) -> str:
    """Serialise a :class:`CampaignConfig` back to option text.

    Without ``execution`` the options of that group are left out: the
    text ``gpufi submit`` and the remote backend send a dispatcher.
    """
    return "".join(f"{KEY_PREFIX}{key} {value}\n"
                   for key, value in config_to_keys(config, execution))
