"""JSON serialisation for NLHS models and the CLI fixture format.

A fixture names a slot pattern, a source per slot (from the built-in state
families), and one central measurement per adjacent pair:

    {
      "name": "sep-loc-sep",
      "pattern": ["SEP", "LOC", "SEP"],
      "sources": [
        {"kind": "classical_correlated", "d": 2},
        {"kind": "werner", "omega": 0.5},
        {"kind": "classical_correlated", "d": 2}
      ],
      "measurements": [
        {"kind": "bell_swap", "local_dim": 2},
        {"kind": "bell_swap", "local_dim": 2}
      ]
    }

Separable decompositions are attached automatically where the family
provides one (classical_correlated always, werner for omega up to
``nlhs.WERNER_SEPARABLE_MAX``, the bound 1/3 with room for rounding).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .operators import QOperator
from .measurements import POVM, _psd_povm, bell_swap_povm
from .network import LinearNetwork
from .states import classical_correlated, dew, DEWParams, werner
from .nlhs import (
    NLHSModel,
    PatternError,
    SourceSlot,
    WERNER_SEPARABLE_MAX,
    _flags,
    classical_correlated_decomposition,
    werner_separable_decomposition,
)


class FixtureError(ValueError):
    """Raised on a malformed fixture document."""


class ModelFileError(ValueError):
    """Raised on a model document entry that is not of its JSON type."""


def _matrix_to_json(mat: np.ndarray) -> dict:
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _matrix_from_json(doc: dict, error: type) -> np.ndarray:
    return _numbers(doc["re"], "re", error) + 1j * _numbers(doc["im"], "im", error)


def _hidden_states_to_json(stack: np.ndarray) -> list:
    return [dict(_matrix_to_json(mat), dims=[len(mat)]) for mat in stack]


def _hidden_states_from_json(docs) -> list:
    """The matrices of hidden-state entries, each of which must have dims [d]."""
    mats = [_matrix_from_json(doc, ModelFileError) for doc in docs]
    for doc, mat in zip(docs, mats):
        if [_integer(d, "each of dims", ModelFileError) for d in doc["dims"]] != [len(mat)]:
            raise ValueError(f"a hidden state of side {len(mat)} needs dims "
                             f"[{len(mat)}], got {doc['dims']}")
    return mats


def model_to_json(model: NLHSModel) -> dict:
    return {
        "n_parties": model.n_parties,
        "source_dists": [p.tolist() for p in model.source_dists],
        "responses": [r.tolist() for r in model.responses],
        "outcome_labels": [list(l) for l in model.outcome_labels],
        "left_states": _hidden_states_to_json(model.left_states),
        "right_states": _hidden_states_to_json(model.right_states),
    }


def model_from_json(doc: dict) -> NLHSModel:
    """The model of a ``model_to_json`` document; ModelFileError for an entry
    that is not of its JSON type."""
    return NLHSModel(
        source_dists=[_numbers(p, "source_dists", ModelFileError) for p in doc["source_dists"]],
        responses=[_numbers(r, "responses", ModelFileError) for r in doc["responses"]],
        left_states=_hidden_states_from_json(doc["left_states"]),
        right_states=_hidden_states_from_json(doc["right_states"]),
        outcome_labels=[tuple(l) for l in doc["outcome_labels"]],
    )


class _JSONText(str):
    """``_json_text(doc)``, encoded once, to be written as a file and inside
    a larger document: ``_json_text`` writes it out as it stands, its
    newlines re-indented, since each of them is one of the layout's
    (``_quote`` escapes any newline inside a string)."""

    def __new__(cls, doc):
        return super().__new__(cls, _json_text(doc))


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=1, default=str)`` of a document ``json`` accepts, built
    without its pure-Python encoder: a list of floats is one join of their reprs.
    Equal to ``_json_text(obj)`` with each newline replaced by ``indent``,
    which is how it writes a ``_JSONText``."""
    if isinstance(obj, str):
        return obj.replace("\n", indent) if type(obj) is _JSONText else _quote(obj)
    if isinstance(obj, float):      # json writes a nan or an inf as NaN or Infinity
        return float.__repr__(obj).replace("nan", "NaN").replace("inf", "Infinity")
    if isinstance(obj, (list, tuple, dict)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        inner = indent + " "
        sep = "," + inner
        if isinstance(obj, dict):   # a key that is not a str is quoted as json writes it
            text = sep.join([(_quote(k) if isinstance(k, str) else _quote(_json_text(k)))
                             + ": " + _json_text(v, inner) for k, v in obj.items()])
        elif all(map(float.__instancecheck__, obj)):
            text = sep.join(map(float.__repr__, obj))
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        else:
            text = sep.join([_json_text(x, inner) for x in obj])
        return brackets[0] + inner + text + indent + brackets[1] if obj else brackets
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return _quote(str(obj))     # json's default=str


def save_model(model, path) -> None:
    """Write an ``NLHSModel``, or its ``model_to_json`` document, plain or
    as a ``_JSONText``, to ``path``."""
    with open(path, "w") as fh:
        fh.write(_json_text(model_to_json(model) if isinstance(model, NLHSModel) else model))


def load_model(path) -> NLHSModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def _integer(value, key: str, error: type = FixtureError) -> int:
    """``value`` if it is a JSON integer (a bool is none), else ``error``."""
    if type(value) is not int:
        raise error(f"{key} must be a JSON integer, got {value!r}")
    return value


def _number(value, key: str, error: type = FixtureError) -> float:
    """``value`` as a float if it is a JSON number (a bool is none), else
    ``error``."""
    if type(value) not in (int, float):
        raise error(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def _numbers(value, key: str, error: type) -> np.ndarray:
    """``value``, a JSON number or nested lists of them, as a float array;
    ``error`` for any other entry, so a ragged list is refused too."""
    entries = np.array(value, dtype=object)
    for entry in entries.flat:
        _number(entry, key, error)
    return entries.astype(float)


def _build_source(doc: dict):
    """Return (state, decomposition-or-None) for a fixture source entry."""
    kind = doc.get("kind")
    if kind == "classical_correlated":
        d = _integer(doc["d"], "d")
        return classical_correlated(d), classical_correlated_decomposition(d)
    if kind == "werner":
        omega = _number(doc["omega"], "omega")
        state = werner(omega)
        if omega <= WERNER_SEPARABLE_MAX:
            return state, werner_separable_decomposition(omega)
        return state, None
    if kind == "dew":
        return dew(DEWParams(_number(doc["eta"], "eta"), _number(doc["omega"], "omega"))), None
    if kind == "explicit":
        dims = [_integer(d, "each of dims") for d in doc["state"]["dims"]]
        return QOperator(_matrix_from_json(doc["state"], FixtureError), dims), None
    raise FixtureError(f"unknown source kind {kind!r}")


def _build_measurement(doc: dict) -> POVM:
    kind = doc.get("kind")
    if kind == "bell_swap":
        return bell_swap_povm(_integer(doc.get("local_dim", 3), "local_dim"))
    if kind == "computational":
        d = _integer(doc["d"], "d")
        if d < 1:
            raise FixtureError(f"computational measurement needs d >= 1, got {d}")
        # the d * d flag projectors on the pair, PSD by construction
        return _psd_povm(_flags(d * d), (d, d))
    raise FixtureError(f"unknown measurement kind {kind!r}")


def load_fixture(path) -> tuple[str, list[SourceSlot], LinearNetwork]:
    """Parse a fixture document into its name, its slots and the validated
    line of their states; the measurements are ``net.central_measurements``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FixtureError("a fixture must be a JSON object")
    for key in ("pattern", "sources", "measurements"):
        if key not in doc:
            raise FixtureError(f"fixture missing {key!r}")
    try:
        pattern = list(doc["pattern"])
        sources = [_build_source(src) for src in doc["sources"]]
        measurements = [_build_measurement(m) for m in doc["measurements"]]
    except FixtureError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # a missing key, an out-of-range value, or a value of the wrong JSON type
        raise FixtureError(f"malformed fixture entry: {exc!r}") from exc
    if len(pattern) != len(sources):
        raise FixtureError("one pattern tag per source required")
    try:
        slots = [
            SourceSlot(tag, state, decomposition=dec)
            for tag, (state, dec) in zip(pattern, sources)
        ]
    except PatternError as exc:
        raise FixtureError(str(exc)) from exc
    try:
        net = LinearNetwork([slot.state for slot in slots], measurements)
    except ValueError as exc:
        raise FixtureError(f"sources and measurements do not form a line: {exc}") from exc
    return doc.get("name", "fixture"), slots, net
