"""One typed JSON codec for the simulator's result and partial types.

Checkpoints, ``--json`` reports, stripe partials and calibration caches
all move dataclasses through plain JSON data.  Instead of a hand-written
``to_jsonable``/``from_jsonable`` pair per class, :func:`encode` and
:func:`decode` read the class's field list and type hints, and the
:func:`jsonable` decorator installs the pair as thin wrappers around
them.  A payload's keys are the fields in declaration order, so field
order *is* the wire format.

The type rules, and nothing else:

* ``int``, ``float``, ``str``, ``bool``: written as is; a ``float``
  field decodes an int as a float;
* ``Optional[X]``, ``List[X]``, ``Tuple[X, ...]`` (tuples are written
  as lists);
* ``Dict[K, V]`` with ``str`` keys, ``int`` keys (written as strings)
  or ``Enum`` keys (written by member name);
* nested dataclasses;
* ``Annotated[np.ndarray, dtype]``: written as a list and rebuilt with
  the declared dtype; in float arrays ``+inf`` is written as ``null``;
* ``object``/``Any``: passed through unchanged.

A key missing on decode takes the field's default (older payloads
predate newer counters); a missing field without a default raises
:class:`KeyError`.  Floats round-trip exactly: ``json`` writes
``repr`` and ``float(repr(x)) == x``.

Each class's plan is compiled once, on first use, into one converter
per field, so a payload costs a dict comprehension per object rather
than a type dispatch per value.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Annotated,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

T = TypeVar("T")
Convert = Callable[[Any], Any]

#: The common array declaration: a float64 series.
FloatArray = Annotated[np.ndarray, np.float64]

def _same(value: Any) -> Any:
    return value


def encode(obj: Any) -> Dict[str, Any]:
    """Plain JSON data (dicts, lists, scalars, ``None``) for a
    dataclass instance."""
    result: Dict[str, Any] = _class_encoder(type(obj))(obj)
    return result


def decode(cls: Type[T], data: Any) -> T:
    """Rebuild a ``cls`` instance from :func:`encode`'s output."""
    result: T = _class_decoder(cls)(data)
    return result


def unknown_key(tp: Any, data: Any, path: str = "") -> Optional[str]:
    """Path of the first key in ``data`` that ``tp`` does not declare.

    Walks nested dataclasses, sequences, optionals and dict values;
    ``None`` when every key names a field.  :func:`decode` ignores
    unknown keys, so a hand-written payload is checked first: a
    misspelt field would otherwise silently take its default.
    """
    origin = get_origin(tp)
    children: List[Tuple[Any, Any, str]] = []
    if dataclasses.is_dataclass(tp) and isinstance(data, dict):
        hints = {f.name: hint for f, hint in _fields(tp)}
        for key, value in data.items():
            where = f"{path}.{key}" if path else str(key)
            if key not in hints:
                return where
            children.append((hints[key], value, where))
    elif origin is Union and data is not None:
        children.append((_optional_item(tp), data, path))
    elif origin in (list, tuple) and isinstance(data, list):
        item = _sequence_item(tp)
        children.extend((item, value, f"{path}[{i}]")
                        for i, value in enumerate(data))
    elif origin is dict and isinstance(data, dict):
        value_tp = get_args(tp)[1]
        children.extend((value_tp, value, f"{path}.{key}")
                        for key, value in data.items())
    for child_tp, value, where in children:
        found = unknown_key(child_tp, value, where)
        if found is not None:
            return found
    return None


class Jsonable:
    """The typed surface :func:`jsonable` installs, for type checkers.

    Decorated classes subclass it so call sites type-check; at run time
    it is empty and the methods live in each class's own ``__dict__``.
    """

    if TYPE_CHECKING:
        def to_jsonable(self) -> Dict[str, Any]: ...

        @classmethod
        def from_jsonable(cls: Type[T], data: Any) -> T: ...


def jsonable(cls: Type[T]) -> Type[T]:
    """Class decorator: give a dataclass its ``to_jsonable`` /
    ``from_jsonable`` (classmethod) pair, driven by :func:`encode` and
    :func:`decode`.  A method the class defines itself is kept."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"@jsonable needs a dataclass, got {cls!r}")

    def to_jsonable(self: Any) -> Dict[str, Any]:
        """Lossless plain-data form (see :mod:`repro.jsonable`)."""
        return encode(self)

    def from_jsonable(klass: Type[T], data: Any) -> T:
        """Inverse of :meth:`to_jsonable`."""
        return decode(klass, data)

    pair = {"to_jsonable": to_jsonable,
            "from_jsonable": classmethod(from_jsonable)}
    for name, method in pair.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


# -- plan compilation ----------------------------------------------------------


def _fields(cls: type) -> List[Tuple[dataclasses.Field[Any], Any]]:
    """(field, resolved type hint) pairs in declaration order."""
    if dataclasses.is_dataclass(cls):
        hints = get_type_hints(cls, include_extras=True)
        return [(f, hints[f.name]) for f in dataclasses.fields(cls)]
    raise TypeError(f"no JSON rule for {cls!r}")


@lru_cache(maxsize=None)
def _class_encoder(cls: type) -> Convert:
    fields = _fields(cls)
    names = tuple(f.name for f, _ in fields)
    # Identity fields are copied as fetched; only the rest convert.
    convs = [(i, conv) for i, conv in enumerate(
        _encoder(tp) for _, tp in fields) if conv is not _same]
    values = attrgetter(*names, names[0])  # >1 name: always a tuple

    def encode_fields(obj: Any) -> Dict[str, Any]:
        row = list(values(obj))
        for i, conv in convs:
            row[i] = conv(row[i])
        return dict(zip(names, row))

    return encode_fields


@lru_cache(maxsize=None)
def _class_decoder(cls: type) -> Convert:
    missing = dataclasses.MISSING
    steps = tuple(
        (f.name, _decoder(tp),
         f.default is not missing or f.default_factory is not missing)
        for f, tp in _fields(cls))

    def decode_fields(data: Dict[str, Any]) -> Any:
        return cls(**{name: conv(data[name])
                      for name, conv, has_default in steps
                      if not has_default or name in data})

    return decode_fields


def _array_dtype(tp: Any) -> np.dtype:
    base, *extras = get_args(tp)
    if base is not np.ndarray or len(extras) != 1:
        raise TypeError("arrays are declared Annotated[np.ndarray, "
                        f"dtype], got {tp!r}")
    return np.dtype(extras[0])


def _sequence_item(tp: Any) -> Any:
    args = get_args(tp)
    if get_origin(tp) is tuple and (len(args) != 2 or args[1] is not ...):
        raise TypeError(f"tuples are declared Tuple[X, ...], got {tp!r}")
    return args[0]


def _optional_item(tp: Any) -> Any:
    args = [a for a in get_args(tp) if a is not type(None)]
    if len(args) != 1 or len(get_args(tp)) != 2:
        raise TypeError(f"unions are declared Optional[X], got {tp!r}")
    return args[0]


def _is_scalar(tp: Any) -> bool:
    return tp in (int, float, str, bool, object, Any)


def _encode_float_array(array: np.ndarray) -> List[Any]:
    values: List[Any] = array.tolist()
    if math.inf in values:
        return [None if v == math.inf else v for v in values]
    return values


def _encoder(tp: Any) -> Convert:
    """Object -> plain data for one declared type."""
    origin = get_origin(tp)
    if _is_scalar(tp):
        return _same
    if origin is Annotated:
        if _array_dtype(tp).kind == "f":
            return _encode_float_array
        return np.ndarray.tolist
    if origin is Union:
        inner = _encoder(_optional_item(tp))
        if inner is _same:
            return _same
        return lambda v: None if v is None else inner(v)
    if origin in (list, tuple):
        item = _encoder(_sequence_item(tp))
        if item is _same:
            return list
        return lambda v: [item(x) for x in v]
    if origin is dict:
        key_tp, value_tp = get_args(tp)
        key = _key_encoder(key_tp)
        value = _encoder(value_tp)
        if key is _same and value is _same:
            return dict
        return lambda v: {key(k): value(x) for k, x in v.items()}
    return _class_encoder(tp)


def _decoder(tp: Any) -> Convert:
    """Plain data -> object for one declared type."""
    origin = get_origin(tp)
    if tp is float:
        return float
    if _is_scalar(tp):
        return _same
    if origin is Annotated:
        dtype = _array_dtype(tp)
        if dtype.kind == "f":
            return lambda v: np.asarray(
                [math.inf if x is None else x for x in v] if None in v
                else v, dtype=dtype)
        return lambda v: np.asarray(v, dtype=dtype)
    if origin is Union:
        inner = _decoder(_optional_item(tp))
        if inner is _same:
            return _same
        return lambda v: None if v is None else inner(v)
    if origin in (list, tuple):
        item = _decoder(_sequence_item(tp))
        if item is _same:
            return tuple if origin is tuple else list
        if origin is tuple:
            return lambda v: tuple(map(item, v))
        return lambda v: list(map(item, v))
    if origin is dict:
        key_tp, value_tp = get_args(tp)
        key = _key_decoder(key_tp)
        value = _decoder(value_tp)
        if key is _same and value is _same:
            return dict
        return lambda v: {key(k): value(x) for k, x in v.items()}
    return _class_decoder(tp)


def _key_encoder(tp: Any) -> Convert:
    if tp is str:
        return _same
    if tp is int:
        return str
    if isinstance(tp, type) and issubclass(tp, Enum):
        return lambda k: k.name
    raise TypeError(f"dict keys are str, int or Enum, got {tp!r}")


def _key_decoder(tp: Any) -> Convert:
    if tp is str:
        return _same
    if tp is int:
        return int
    if isinstance(tp, type) and issubclass(tp, Enum):
        return lambda k: tp[k]
    raise TypeError(f"dict keys are str, int or Enum, got {tp!r}")
