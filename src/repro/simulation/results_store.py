"""Persistent experiment records: save, load and merge sweep results.

Long experiment campaigns (fine grids, many seeds) want their results
on disk: to resume after interruption, to compare across code
versions, and to feed external analysis.  This module serialises
:class:`~repro.simulation.runner.SweepResult` objects to a simple
versioned JSON schema, preserving exactness: rational parameters and
exact values are stored as ``"p/q"`` strings, never as floats.

Schema (version 1)::

    {
      "schema_version": 1,
      "label": "n=3, delta=1",
      "points": [
        {"parameter": "1/2", "exact": "23/48",
         "simulated": 0.47905, "interval": [0.4751, 0.4830]},
        ...
      ]
    }

``simulated``/``interval`` are ``null`` for exact-only sweeps.
Merging concatenates point lists of results with the same label and
re-sorts by parameter, dropping exact duplicates -- the resume
workflow: run disjoint grids, merge, render.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.errors import ResultsStoreError
from repro.fsutil import atomic_write
from repro.simulation.runner import SweepPoint, SweepResult

__all__ = [
    "ResultsStoreError",
    "load_sweep",
    "merge_sweeps",
    "save_sweep",
    "sweep_from_dict",
    "sweep_to_dict",
]

SCHEMA_VERSION = 1

# ResultsStoreError now lives in repro.errors (so the whole exception
# hierarchy roots at ReproError) and is re-exported here for backwards
# compatibility with callers importing it from this module.


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(text: str) -> Fraction:
    return Fraction(text)


def sweep_to_dict(result: SweepResult) -> Dict:
    """The JSON-ready dict form of a sweep result (exactness preserved)."""
    points = []
    for p in result.points:
        points.append(
            {
                "parameter": _fraction_to_str(p.parameter),
                "exact": _fraction_to_str(p.exact),
                "simulated": p.simulated,
                "interval": list(p.interval) if p.interval else None,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "label": result.label,
        "points": points,
    }


def _validate_interval(interval, i: int, entry: Dict) -> tuple:
    """Check an ``interval`` field is a 2-element numeric ``[lo, hi]``.

    A malformed interval (wrong length, non-numeric entries, or
    ``lo > hi``) used to pass straight through as an arbitrary tuple
    and only blow up much later, inside consistency checks -- now it
    is rejected at load time with the offending point identified.
    """
    if (
        not isinstance(interval, (list, tuple))
        or len(interval) != 2
        or not all(
            isinstance(edge, (int, float)) and not isinstance(edge, bool)
            for edge in interval
        )
    ):
        raise ValueError(
            f"malformed point {i}: interval must be a 2-element numeric "
            f"[lo, hi], got {entry!r}"
        )
    lo, hi = float(interval[0]), float(interval[1])
    if lo > hi:
        raise ValueError(
            f"malformed point {i}: interval lower edge {lo} exceeds "
            f"upper edge {hi} in {entry!r}"
        )
    return (lo, hi)


def _validate_simulated(simulated, i: int, entry: Dict):
    """Check a ``simulated`` field is a probability (or ``None``)."""
    if simulated is None:
        return None
    if isinstance(simulated, bool) or not isinstance(
        simulated, (int, float)
    ):
        raise ValueError(
            f"malformed point {i}: simulated must be numeric or null, "
            f"got {entry!r}"
        )
    if not 0.0 <= float(simulated) <= 1.0:
        raise ValueError(
            f"malformed point {i}: simulated estimate {simulated} is "
            f"outside [0, 1] in {entry!r}"
        )
    return simulated


def sweep_from_dict(payload: Dict) -> SweepResult:
    """Inverse of :func:`sweep_to_dict`, with schema validation.

    Beyond the fraction fields, ``interval`` must be a 2-element
    numeric ``[lo, hi]`` with ``lo <= hi`` (or ``null``) and
    ``simulated`` a number in ``[0, 1]`` (or ``null``); anything else
    raises :class:`ValueError` naming the offending point, instead of
    smuggling a corrupt record into downstream consistency checks.
    """
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}"
        )
    if "label" not in payload or "points" not in payload:
        raise ValueError("payload missing 'label' or 'points'")
    points = []
    for i, entry in enumerate(payload["points"]):
        try:
            parameter = _fraction_from_str(entry["parameter"])
            exact = _fraction_from_str(entry["exact"])
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed point {i}: {entry!r}") from exc
        interval = entry.get("interval")
        if interval is not None:
            interval = _validate_interval(interval, i, entry)
        simulated = _validate_simulated(entry.get("simulated"), i, entry)
        points.append(
            SweepPoint(
                parameter=parameter,
                exact=exact,
                simulated=simulated,
                interval=interval,
            )
        )
    return SweepResult(label=payload["label"], points=points)


def save_sweep(result: SweepResult, path: Union[str, Path]) -> Path:
    """Write a sweep result as JSON, atomically; returns the path written.

    :func:`repro.fsutil.atomic_write` replaces the target whole, so a
    crash (or a concurrent reader) sees either the complete old file or
    the complete new one -- never a truncated JSON document, which is
    exactly the corruption mode a resumed campaign would otherwise trip
    over.
    """
    return atomic_write(path, json.dumps(sweep_to_dict(result), indent=2))


def load_sweep(path: Union[str, Path]) -> SweepResult:
    """Read a sweep result written by :func:`save_sweep`.

    Raises :class:`ResultsStoreError` -- naming the path -- on a
    missing file, invalid JSON (truncation, corruption) or a payload
    that fails schema validation, instead of leaking a bare
    ``json.JSONDecodeError``/``KeyError`` from the internals.
    """
    target = Path(path)
    try:
        with target.open() as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ResultsStoreError(
            f"cannot read sweep file {target}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ResultsStoreError(
            f"sweep file {target} is not valid JSON "
            f"(truncated or corrupted?): {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ResultsStoreError(
            f"sweep file {target} holds {type(payload).__name__}, "
            f"expected a JSON object"
        )
    try:
        return sweep_from_dict(payload)
    except ResultsStoreError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ResultsStoreError(
            f"sweep file {target} failed schema validation: {exc}"
        ) from exc


def merge_sweeps(results: Sequence[SweepResult]) -> SweepResult:
    """Concatenate same-label sweeps, sort by parameter, dedupe.

    Points with equal parameters must carry equal exact values
    (anything else means the sweeps came from different problems);
    among duplicates, a simulated point wins over an exact-only one.
    """
    if not results:
        raise ValueError("nothing to merge")
    labels = {r.label for r in results}
    if len(labels) != 1:
        raise ValueError(
            f"refusing to merge sweeps with different labels: {sorted(labels)}"
        )
    by_parameter: Dict[Fraction, SweepPoint] = {}
    for result in results:
        for point in result.points:
            existing = by_parameter.get(point.parameter)
            if existing is None:
                by_parameter[point.parameter] = point
                continue
            if existing.exact != point.exact:
                raise ValueError(
                    f"conflicting exact values at parameter "
                    f"{point.parameter}: {existing.exact} vs {point.exact}"
                )
            if point.simulated is not None:
                by_parameter[point.parameter] = point
    merged: List[SweepPoint] = [
        by_parameter[key] for key in sorted(by_parameter)
    ]
    return SweepResult(label=results[0].label, points=merged)
