"""Reading and writing family instances as JSON documents.

An instance document has the fields ``blocks`` (a list of lists of
integer labels, required), ``ground`` (an optional list of labels,
checked against the union of the blocks), ``weights`` (an optional map
from label to an exact rational), and ``feasible`` (an optional flag
attached to generated instances).  Rationals are written as ``"p/q"``
strings, or as plain integers when the denominator is one.  Decimal
floats are rejected: every value must parse exactly.

A document is read in one pass that checks each label and value once,
and the first fault found is refused, in this order: the JSON shapes of
the fields, then :func:`~blockstoch.family.build_family`'s checks
(every block's labels, the ground labels, empty, repeated and duplicate
blocks, a repeated ground label and ground agreement), then weight keys
and values, and weights for labels in no block.  The family is built
by ``build_family``, so a load and a library call refuse alike.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .errors import InputError, UnknownElementError
from .family import SetFamily, WeightFunction, build_family, format_rational

# ASCII digits only: ``int`` would also read other scripts' digits and "_"
_LABEL_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

_FIELDS = {"ground", "blocks", "weights", "feasible"}


def _int(text: str) -> int:
    """``int(text)``, refusing as bad input a number with more digits than
    the interpreter converts (``sys.get_int_max_str_digits``, Python 3.11+).
    Callers first match ``text`` against ``_LABEL_RE`` or ``_RATIONAL_RE``."""
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"cannot read an integer: {exc}") from None


def parse_rational(value: object) -> Fraction:
    """Parse an exact rational from an integer or a ``"p/q"`` string."""
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.fullmatch(text):
            raise InputError(
                f"cannot parse {value!r} as an exact rational; "
                'write "p/q" or an integer'
            )
        num, slash, den = text.partition("/")
        q = _int(den) if slash else 1
        if q == 0:
            raise InputError(f"zero denominator in {value!r}")
        return Fraction(_int(num), q)
    if isinstance(value, float):
        raise InputError(
            f"decimal floats are rejected, got {value!r}; "
            'write an exact rational such as "1/2"'
        )
    raise InputError(f"expected a rational, got {type(value).__name__}")


def format_weights(w: WeightFunction) -> str:
    """Render weights as ``{g=v, ...}`` in label order."""
    inside = ", ".join(f"{g}={format_rational(v)}" for g, v in w.items())
    return "{" + inside + "}"


@dataclass(frozen=True)
class Instance:
    """A parsed instance: the family plus an optional weight function."""

    family: SetFamily
    weights: WeightFunction | None
    feasible: bool | None = None


def _reject_float(text: str) -> Fraction:
    raise InputError(
        f"decimal floats are rejected, got {text!r}; "
        'write an exact rational such as "1/2"'
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object, refusing a key given twice (``json`` keeps the last)."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def _parse_object(text: str, what: str) -> dict:
    """Parse a JSON document that must be an object."""
    try:
        doc = json.loads(text, parse_float=_reject_float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from None
    except InputError:
        raise
    except ValueError as exc:  # an integer literal past the digit limit
        raise InputError(f"{what} cannot be read: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    return doc


def _parse_weights(raw: dict) -> dict[int, Fraction]:
    """Parse a map from label to rational; two keys naming one label are
    refused.  Each distinct string value is parsed once.  Only strings are
    looked up: ``True == 1`` with one hash, so ``true`` would pass as 1."""
    values: dict[int, Fraction] = {}
    parsed: dict[str, Fraction] = {}
    for key, value in raw.items():
        if not _LABEL_RE.fullmatch(key.strip()):
            raise InputError(f"weight key {key!r} is not an integer label")
        label = _int(key)
        if label in values:
            raise InputError(f"weight label {label} is given twice")
        if type(value) is str:
            exact = parsed.get(value)
            if exact is None:
                exact = parsed[value] = parse_rational(value)
        else:
            exact = parse_rational(value)
        values[label] = exact
    return values


def _weight_function(values: dict[int, Fraction]) -> WeightFunction:
    """The function of parsed ``values``, zeros dropped, with no second check."""
    return WeightFunction._trusted({g: v for g, v in values.items() if v})


def parse_instance(text: str) -> Instance:
    """Parse a JSON instance document into a family and optional weights."""
    doc = _parse_object(text, "instance")
    unknown = sorted(set(doc) - _FIELDS)
    if unknown:
        raise InputError(f"unknown instance fields: {', '.join(unknown)}")
    if "blocks" not in doc:
        raise InputError('instance is missing the "blocks" field')
    raw_blocks = doc["blocks"]
    if not isinstance(raw_blocks, list):
        raise InputError('"blocks" must be a list of lists of labels')
    for pos, raw in enumerate(raw_blocks, start=1):
        if not isinstance(raw, list):
            raise InputError(f"block {pos} must be a list of labels")
    ground = doc.get("ground")
    if ground is not None and not isinstance(ground, list):
        raise InputError('"ground" must be a list of labels')
    family = build_family(raw_blocks, ground)

    weights: WeightFunction | None = None
    if "weights" in doc and doc["weights"] is not None:
        raw_weights = doc["weights"]
        if not isinstance(raw_weights, dict):
            raise InputError('"weights" must be a map from label to rational')
        values = _parse_weights(raw_weights)
        for label in values:
            if label not in family.gamma:
                raise UnknownElementError(f"weight for unknown element {label}")
        weights = _weight_function(values)

    feasible: bool | None = None
    if "feasible" in doc and doc["feasible"] is not None:
        if not isinstance(doc["feasible"], bool):
            raise InputError('"feasible" must be a boolean')
        feasible = doc["feasible"]
    return Instance(family, weights, feasible)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def load_instance(path: str) -> Instance:
    """Read and parse an instance document from a file."""
    return parse_instance(_read_text(path))


def parse_weights_document(text: str) -> WeightFunction:
    """Parse a document holding only a weights map, for generator runs.

    Generator-backed commands take the family from the generator, so the
    document must consist of the ``weights`` field alone.
    """
    doc = _parse_object(text, "document")
    extra = sorted(set(doc) - {"weights"})
    if extra:
        raise InputError(
            "a generator run takes a weights-only document; "
            f"unexpected fields: {', '.join(extra)}"
        )
    if "weights" not in doc or not isinstance(doc["weights"], dict):
        raise InputError('document must hold a "weights" map')
    values = _parse_weights(doc["weights"])
    for label in values:
        if label < 0:
            raise InputError(f"weight label {label} is negative")
    return _weight_function(values)


def load_weights_document(path: str) -> WeightFunction:
    """Read and parse a weights-only document from a file."""
    return parse_weights_document(_read_text(path))


def weights_to_document(weights: WeightFunction | Mapping[int, Fraction]) -> dict[str, str | int]:
    """Render weights as a label-sorted map with ``"p/q"`` values."""
    items = weights.items() if isinstance(weights, WeightFunction) else sorted(weights.items())
    doc: dict[str, str | int] = {}
    for label, value in items:
        doc[str(label)] = (
            value.numerator if value.denominator == 1 else format_rational(value)
        )
    return doc


def dump_instance(
    family: SetFamily,
    weights: WeightFunction | None = None,
    feasible: bool | None = None,
) -> str:
    """Render a family (and optional weights) as a canonical JSON document."""
    doc: dict[str, Any] = {
        "ground": list(family.ground),
        "blocks": [list(block.members) for block in family.blocks],
    }
    if weights is not None:
        doc["weights"] = weights_to_document(weights)
    if feasible is not None:
        doc["feasible"] = feasible
    return json.dumps(doc, indent=2) + "\n"
