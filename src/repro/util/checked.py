"""Parse and type-check untrusted JSON, the same way for every reader.

Interchange files, topology files, bundles, event traces, cache entry
files and service request bodies come from outside the process. Their
readers make two decisions here and nowhere else:

* **parsing** — :func:`loads` turns text or UTF-8 bytes into a value
  through :func:`json.loads`; bad syntax, bad UTF-8, an integer too
  long to convert and nesting deeper than the parser's recursion limit
  raise the caller's typed error, naming the document;
* **types** — an integer is an ``int`` that is not a ``bool``; a number
  is a ``float``, or an integer a float can hold; a task id is an
  integer or a ``str``. Nothing is coerced: ``"1"`` is no number and
  ``1.0`` no integer.

Range rules (positive, finite, a processor that exists) stay with each
reader, which knows its model.
"""

from __future__ import annotations

import json
import sys

__all__ = ["loads", "want", "is_int", "is_number", "is_task_id", "KINDS"]

_MAX = sys.float_info.max


def loads(data, error, what: str):
    """``data`` parsed, or ``error("<what> is not valid JSON: ...")``."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)  # JSONDecodeError is a ValueError
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def is_int(x) -> bool:
    """An int that is not a bool (JSON ``true`` parses to one)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x) -> bool:
    """A float, or an integer a float can hold. NaN and the infinities
    are floats: refusing them is a range rule."""
    return isinstance(x, float) or (is_int(x) and -_MAX <= x <= _MAX)


def is_task_id(x) -> bool:
    """An integer or a str: the ids every interchange format carries."""
    return isinstance(x, str) or is_int(x)


#: the kinds :func:`want` takes, as its messages name them
KINDS = {
    dict: "an object", list: "a list", str: "a string", bool: "true or false",
    is_int: "an integer", is_number: "a number", is_task_id: "an int or str id",
}


def want(value, kind, field: str, error):
    """``value`` if it is a ``kind`` (a type tested with ``isinstance``,
    or a predicate above), else ``error("<field> must be <kind>, got
    <value>")``."""
    if isinstance(value, kind) if isinstance(kind, type) else kind(value):
        return value
    raise error(f"{field} must be {KINDS[kind]}, got {value!r:.60}")
