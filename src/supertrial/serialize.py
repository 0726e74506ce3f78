"""JSON document formats for algebras, maps, and derived objects.

Rationals travel as strings of ASCII digits ("3", "-1/2") or plain JSON
integers so no reader ever coerces them through floats; floats and
booleans are rejected.
Tensors are sparse lists of {i, j, k, v} triples with 0-based indices;
omitted triples are zero and duplicates are an error.  Parsing enforces
every structural invariant and reports the offending field and index.
A product list equal to an earlier one, by value and by the type of each
entry's values (``true == 1`` and ``1.0 == 1`` in Python, yet only ``1``
reads as a rational), is read once, and the spec holds one shared tensor.
It reads each document in one pass: every distinct string literal is
converted once, through a memo that lives for that one parse call
(``_Literals``), and tensors and maps are built straight from the values
read.  Every graded spec has one document layout, read by ``_parse_spec``
and written by ``emit_algebra``: name, dim, parity, each tensor its class
names in ``TENSORS``, gamma, then xi.  ``to_json`` lays out every
report and document byte for byte as the standard library's indented JSON, but
with one C-level ``str.join`` per container of one scalar type, not per token,
and a list of records with one key tuple (tensor entries, violations, battery
lines) with its key prefixes built once per list (``_write_records``), and the
text of each value object written once per column.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping

from .core import LinearMap, StructureTensor, SuperBasis, SuperalgebraSpec, TrialgebraSpec, _GradedSpec, _Spec
from .errors import InputError
from .linalg import Matrix, frac


def parse_rational(value: Any, where: str) -> Fraction:
    """Accept a JSON integer or a 'p' / 'p/q' string with q > 0."""
    return _Literals().read(value, lambda: where)


class _Literals(dict):
    """The rationals of one document, each distinct string literal converted
    once.  Keys are ``str`` only: ``True == 1`` and both hash alike, so a
    ``true`` must never find the entry of a ``1``."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = frac(text)
        return value

    def read(self, value: Any, where: Callable[[], str]) -> Fraction:
        """``parse_rational(value, where())``, a string through the memo; the
        location is built only for an error."""
        try:
            if isinstance(value, str):
                return self[value]
            if isinstance(value, bool):
                raise InputError("booleans are not rational literals")
            if isinstance(value, int):
                return Fraction(value)
            raise InputError(f"expected an integer or rational string, got {type(value).__name__}")
        except InputError as exc:
            raise InputError(f"{where()}: {exc}") from None


def rational_str(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:  # past the interpreter's int-string digit limit
        raise InputError("a value has too many digits to print") from None


_SCALARS: dict[type, Callable[[Any], str]] = {  # by exact type: True is a bool, never the int 1
    str: encode_basestring_ascii, int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null",
}


def to_json(value: Any) -> str:
    """Indented JSON, two spaces a level, for a tree of dicts with ``str`` keys, lists,
    tuples, strings, ints, booleans and ``None``; any other value or key raises ``TypeError``."""
    parts: list[str] = []
    _write(value, "\n", parts)
    return "".join(parts)


def _write(value: Any, newline: str, parts: list[str]) -> None:
    """Append the text of ``value``, whose lines after the first start with ``newline``."""
    kind = type(value)
    if kind in _SCALARS:
        return parts.append(_SCALARS[kind](value))
    if kind not in (dict, list, tuple):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    keys = [k + ": " for k in map(encode_basestring_ascii, value)] if kind is dict else None
    values, brackets = (value.values(), "{}") if kind is dict else (value, "[]")
    if not value:
        return parts.append(brackets)
    inner, kinds = newline + "  ", set(map(type, values))
    if len(kinds) == 1 and kinds <= _SCALARS.keys():  # one join over the C formatter
        text = map(_SCALARS[kinds.pop()], values)
        parts.append(brackets[0] + inner + ("," + inner).join(text if keys is None else map(str.__add__, keys, text)))
    elif keys is None and kinds == {dict} and len(set(map(tuple, value))) == 1 and value[0]:
        _write_records(value, inner, parts)
    else:
        for n, item in enumerate(values):
            parts.append((brackets[0] if n == 0 else ",") + inner + (keys[n] if keys else ""))
            _write(item, inner, parts)
    parts.append(newline + brackets[1])


def _write_records(records: list | tuple, newline: str, parts: list[str]) -> None:
    """Append the opening bracket and the records, each at ``newline``, of a list of dicts
    with one non-empty key tuple; the key prefixes are built once per list, a scalar or a
    non-empty list of one scalar type is written inline, any other value through ``_write``.
    Each column keeps, by ``id``, the text of each value object it wrote with its prefix, so
    a value that several records share is written once per column; the records keep every
    value alive, so no ``id`` is reused, and a ``True`` never finds the text of a ``1``."""
    inner = newline + "  "
    heads = ["," + inner + encode_basestring_ascii(key) + ": " for key in records[0]]
    heads[0] = heads[0][1:]
    first, rest, sep = "[" + newline + "{", "," + newline + "{", "," + inner + "  "
    opening, closing, scalars = "[" + sep[1:], inner + "]", _SCALARS
    columns: list[dict[int, str]] = [{} for _ in heads]
    for n, record in enumerate(records):
        parts.append(rest if n else first)
        for head, item, texts in zip(heads, record.values(), columns):
            if (text := texts.get(id(item))) is None:
                kind = type(item)
                if write := scalars.get(kind):
                    text = head + write(item)
                elif (kind is list or kind is tuple) and len(kinds := set(map(type, item))) == 1 and (write := scalars.get(kinds.pop())):
                    text = head + opening + sep.join(map(write, item)) + closing
                else:
                    nested = [head]
                    _write(item, inner, nested)
                    text = "".join(nested)
                texts[id(item)] = text
            parts.append(text)
        parts.append(newline + "}")


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError("parse error: the document nests too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError("parse error: a number has too many digits") from exc


def _require_object(data: Any, what: str) -> dict:
    if not isinstance(data, dict):
        raise InputError(f"{what} document must be a JSON object")
    return data


def _parse_int(data: Mapping[str, Any], key: str, where: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}.{key}: expected an integer")
    return value


def _parse_parities(data: Mapping[str, Any], dim: int, where: str) -> tuple[int, ...]:
    raw = data.get("parity")
    if not isinstance(raw, list):
        raise InputError(f"{where}.parity: expected a list of 0/1")
    if len(raw) != dim:
        raise InputError(f"{where}.parity: expected {dim} entries, got {len(raw)}")
    out = []
    for idx, p in enumerate(raw):
        if isinstance(p, bool) or p not in (0, 1):
            raise InputError(f"{where}.parity[{idx}]: expected 0 or 1")
        out.append(p)
    return tuple(out)


def _parse_tensor(data: Mapping[str, Any], key: str, dim: int, where: str, literals: _Literals) -> StructureTensor:
    raw = data.get(key, [])
    if not isinstance(raw, list):
        raise InputError(f"{where}.{key}: expected a list of triples")
    table: dict[tuple[int, int, int], Fraction] = {}
    label = lambda: f"{where}.{key}[{pos}]"  # built only for an error
    value_label = lambda: f"{label()}.v"
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise InputError(f"{label()}: expected an object with i, j, k, v")
        key3 = i, j, k = entry.get("i"), entry.get("j"), entry.get("k")
        if not (type(i) is type(j) is type(k) is int and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            for axis, value in zip("ijk", key3):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InputError(f"{label()}.{axis}: expected an integer index")
                if not 0 <= value < dim:
                    raise InputError(f"{label()}.{axis}: index {value} out of range for dim {dim}")
        if "v" not in entry:
            raise InputError(f"{label()}: missing value field v")
        coeff = literals.read(entry["v"], value_label)
        if key3 in table:
            raise InputError(f"{label()}: duplicate triple {key3} in {key}")
        table[key3] = coeff
    return StructureTensor(dim, {t: c for t, c in table.items() if c})


def _parse_structure_map(data: Mapping[str, Any], key: str, basis: SuperBasis, where: str, literals: _Literals) -> LinearMap:
    dim = basis.dimension
    raw = data.get(key)
    if not isinstance(raw, list) or len(raw) != dim:
        raise InputError(f"{where}.{key}: expected {dim} rows")
    flat = []
    label = lambda: f"{where}.{key}[{i}][{j}]"  # built only for an error
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{where}.{key}[{i}]: expected {dim} entries")
        for j, v in enumerate(row):
            flat.append(literals.read(v, label))
    return LinearMap.square(basis, Matrix(dim, dim, tuple(flat)))


def _same_list(raw: Any, earlier: list) -> bool:
    """Whether raw, a product list, reads as an earlier list that parsed: equal by value and
    each entry's value under each key of the same type, since ``True == 1`` and ``1.0 == 1``
    (compared key by key: an entry may list its keys in another order)."""
    return raw == earlier and all(type(v) is type(b[k]) for a, b in zip(raw, earlier) for k, v in a.items())


def _parse_spec(cls: type[_Spec], text: str, where: str) -> _Spec:
    """The graded spec of class ``cls`` a document holds, read in one order:
    the object, name, dim, parity, xi's presence where the kind needs it, each tensor
    of ``cls.TENSORS``, gamma, then xi when present."""
    data = _require_object(_load_json(text), where)
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise InputError(f"{where}.name: expected a non-empty string")
    dim = _parse_int(data, "dim", where)
    if dim < 1:
        raise InputError(f"{where}.dim: must be at least 1")
    basis = SuperBasis(_parse_parities(data, dim, where))
    has_xi = data.get("xi") is not None
    if not has_xi and not cls._xi_optional():
        raise InputError(f"{where}.xi: required for {where} documents")
    literals, tensors = _Literals(), {}
    for key in cls.TENSORS:  # a list that reads as an earlier one shares its tensor
        same = next((k for k in tensors if _same_list(data.get(key, []), data.get(k, []))), None)
        tensors[key] = tensors[same] if same else _parse_tensor(data, key, dim, where, literals)
    gamma = _parse_structure_map(data, "gamma", basis, where, literals)
    xi = _parse_structure_map(data, "xi", basis, where, literals) if has_xi else None
    return cls(name=name, basis=basis, **tensors, gamma=gamma, xi=xi)


def parse_algebra(text: str) -> TrialgebraSpec:
    return _parse_spec(TrialgebraSpec, text, "algebra")


def parse_superalgebra(text: str) -> SuperalgebraSpec:
    return _parse_spec(SuperalgebraSpec, text, "superalgebra")


def _tensor_entries(tensor: StructureTensor) -> list[dict[str, Any]]:
    return [
        {"i": i, "j": j, "k": k, "v": rational_str(v)}
        for (i, j, k), v in tensor.items()
    ]


def _matrix_rows(matrix: Matrix) -> list[list[str]]:
    return [[rational_str(v) for v in matrix.row(i)] for i in range(matrix.rows)]


def emit_algebra(spec: _GradedSpec) -> str:
    """The one document layout of every graded spec: name, dim, parity, each
    tensor in ``TENSORS`` order, gamma, then xi when present."""
    doc: dict[str, Any] = {"name": spec.name, "dim": spec.dimension, "parity": list(spec.basis.parities)}
    doc.update((key, _tensor_entries(tensor)) for key, tensor in spec.products())
    doc.update((key, _matrix_rows(m.matrix)) for key, m in (("gamma", spec.gamma), ("xi", spec.xi)) if m is not None)
    return to_json(doc) + "\n"


def parse_map(text: str) -> Matrix:
    data = _require_object(_load_json(text), "map")
    where = "map"
    rows = _parse_int(data, "rows", where)
    cols = _parse_int(data, "cols", where)
    if rows < 0 or cols < 0:
        raise InputError(f"{where}: rows and cols must be non-negative")
    raw = data.get("entries")
    if not isinstance(raw, list):
        raise InputError(f"{where}.entries: expected a flat row-major list")
    if len(raw) != rows * cols:
        raise InputError(
            f"{where}.entries: expected {rows * cols} entries for {rows}x{cols}, got {len(raw)}"
        )
    literals, entries = _Literals(), []
    label = lambda: f"{where}.entries[{idx}]"  # built only for an error
    for idx, v in enumerate(raw):
        entries.append(literals.read(v, label))
    return Matrix(rows, cols, tuple(entries))


def emit_map(matrix: Matrix) -> str:
    doc = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [rational_str(v) for v in matrix.entries],
    }
    return to_json(doc) + "\n"
