"""Instance documents: a JSON schema for (weights, partition, u, w) with
an optional point map and labels, plus exact round-trip serialization.

Numbers are emitted with shortest round-trip precision, so a parsed
document serializes to the same bytes, serialize(parse(doc)) == doc for
every serialized doc, and serialized bytes are stable across runs, which
is what report determinism is built on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .measure import FiniteMeasureSpace, MeasurableFunction, Partition
from .spectral import PointMap
from .wce import WceInstance

_KNOWN_FIELDS = {"weights", "partition", "u", "w", "phi", "labels"}
_REQUIRED_FIELDS = ("weights", "partition", "u", "w")


@dataclass(frozen=True, eq=False)
class InstanceBundle:
    """A verification instance plus the optional point map riding along."""

    instance: WceInstance
    point_map: PointMap | None = None


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _to_float(x: int | float, field: str, i: int) -> float:
    # float() of an integer literal beyond the float range overflows.
    try:
        return float(x)
    except OverflowError:
        raise ParseError(f"field '{field}' entry {i} is too large for a float") from None


def _complex_pairs(raw: object, field: str, n: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"field '{field}' must be a list of {n} [re, im] pairs")
    out = np.empty(n, dtype=complex)
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_number(x) for x in pair)
        ):
            raise ParseError(f"field '{field}' entry {i} is not a [re, im] pair")
        out[i] = complex(_to_float(pair[0], field, i), _to_float(pair[1], field, i))
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ParseError(f"field '{field}' entry {bad[0]} is not finite")
    return out


def _pairs(values: np.ndarray) -> list[list[float]]:
    """[re, im] of every complex value, as Python floats."""
    return np.stack((values.real, values.imag), axis=-1).tolist()


def serialize_instance(bundle: InstanceBundle) -> str:
    """Canonical one-line JSON document for an instance."""
    inst = bundle.instance
    doc: dict = {
        "weights": inst.space.weights.tolist(),
        "partition": [list(b) for b in inst.partition.blocks],
        "u": _pairs(inst.u.values),
        "w": _pairs(inst.w.values),
    }
    if inst.space.labels is not None:
        doc["labels"] = list(inst.space.labels)
    if bundle.point_map is not None:
        doc["phi"] = list(bundle.point_map.images)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_digest(doc: str) -> str:
    """Digest of a serialized instance document; the instance's identity in
    every report."""
    return hashlib.sha256(doc.encode()).hexdigest()


def parse_instance(text: str) -> InstanceBundle:
    """Parse an instance document; raises ParseError naming the offending
    field, block, or JSON location."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"invalid JSON: {e.msg} at line {e.lineno} column {e.colno}"
        ) from None
    except (ValueError, RecursionError) as e:
        # An integer literal past Python's int-string digit limit, or
        # nesting deeper than the decoder's recursion limit.
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")

    unknown = sorted(set(doc) - _KNOWN_FIELDS)
    if unknown:
        raise ParseError(f"unknown fields: {', '.join(unknown)}")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise ParseError(f"missing field '{field}'")

    raw_weights = doc["weights"]
    if not isinstance(raw_weights, list) or not all(_is_number(x) for x in raw_weights):
        raise ParseError("field 'weights' must be a list of numbers")
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise ParseError("field 'labels' must be a list of strings")
    try:
        space = FiniteMeasureSpace(
            [_to_float(x, "weights", i) for i, x in enumerate(raw_weights)], labels)
    except ValueError as e:
        raise ParseError(f"field 'weights'/'labels': {e}") from None
    n = space.n

    raw_blocks = doc["partition"]
    if not isinstance(raw_blocks, list) or not all(
        isinstance(b, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in b)
        for b in raw_blocks
    ):
        raise ParseError("field 'partition' must be a list of lists of indices")
    try:
        partition = Partition(space, raw_blocks)
    except ValueError as e:
        raise ParseError(f"field 'partition': {e}") from None

    u = MeasurableFunction(space, _complex_pairs(doc["u"], "u", n))
    w = MeasurableFunction(space, _complex_pairs(doc["w"], "w", n))

    point_map = None
    if "phi" in doc:
        raw_phi = doc["phi"]
        if not isinstance(raw_phi, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in raw_phi
        ):
            raise ParseError("field 'phi' must be a list of point indices")
        try:
            point_map = PointMap(space, tuple(raw_phi))
        except ValueError as e:
            raise ParseError(f"field 'phi': {e}") from None

    return InstanceBundle(WceInstance(partition, u, w), point_map)
