"""A checker of the Prometheus text exposition format, for the tests
that scrape ``/metrics`` (:func:`repro.obs.live.render_prometheus`)."""

import re
from typing import Dict, Iterable, List

from repro.obs.live import _METRIC_NAME, _VALID_TYPES

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$")
_LABEL_PAIR = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def lint_prometheus(text: str) -> List[str]:
    """Check a text exposition for format errors; returns them.

    An empty list means the scrape is well-formed.  Covers the
    properties CI relies on: parseable sample lines and label pairs,
    float-parseable values, ``TYPE`` lines naming a valid type, at
    most one ``TYPE`` per family, and no samples preceding their
    family's ``TYPE`` declaration.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    sampled: set = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or not _METRIC_NAME.match(parts[2]):
                errors.append(f"line {number}: malformed TYPE: {line!r}")
                continue
            name, mtype = parts[2], parts[3].strip()
            if mtype not in _VALID_TYPES:
                errors.append(
                    f"line {number}: invalid type {mtype!r} for {name}")
            if name in typed:
                errors.append(f"line {number}: duplicate TYPE for {name}")
            if name in sampled:
                errors.append(
                    f"line {number}: TYPE for {name} after its samples")
            typed[name] = mtype
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            errors.append(f"line {number}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count|total)$", "", name)
        if name not in typed and base not in typed:
            errors.append(f"line {number}: sample for undeclared "
                          f"family {name}")
        sampled.add(name)
        labels = match.group("labels")
        if labels:
            for pair in _split_label_pairs(labels):
                if not _LABEL_PAIR.match(pair):
                    errors.append(
                        f"line {number}: malformed label {pair!r}")
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                errors.append(
                    f"line {number}: non-numeric value {value!r}")
    return errors


def _split_label_pairs(labels: str) -> List[str]:
    """Split ``a="x",b="y,z"`` on commas outside quoted values."""
    pairs, depth, start = [], False, 0
    index = 0
    while index < len(labels):
        char = labels[index]
        if char == "\\" and depth:
            index += 2
            continue
        if char == '"':
            depth = not depth
        elif char == "," and not depth:
            pairs.append(labels[start:index])
            start = index + 1
        index += 1
    tail = labels[start:]
    if tail:
        pairs.append(tail)
    return pairs


def required_families_present(text: str,
                              names: Iterable[str]) -> List[str]:
    """Names from ``names`` that have no ``TYPE`` line in ``text``."""
    declared = {line.split(" ", 3)[2]
                for line in text.splitlines()
                if line.startswith("# TYPE ") and len(line.split(" ")) >= 4}
    return [name for name in names if name not in declared]
