"""Small immutable records, without the cost of importing dataclasses, and
the one rule that writes every CLI document.

A subclass lists its fields in __slots__, in order, and its __init__ hands
their values to _init in that order. Record gives what a frozen dataclass
gives: equality and hashing on the field values (equal only to an instance
of the same class, never to a plain tuple), the repr
"Name(field=value, ...)", the refusal of attribute assignment, and copies
and pickles that rebuild the record through its __init__.

json_value is the document rule: every number (an int, a Fraction, a field
element) becomes its decimal string, so no consumer meets a 64-bit
overflow. Record.to_json applies it to each field.
"""


def json_value(v):
    """v as a JSON document value: None and bools as they are, a Record
    through its to_json, containers entry by entry, anything else str(v)."""
    # bool before anything else: it is an int, and True must not become "True"
    if v is None or v.__class__ is bool:
        return v
    if isinstance(v, Record):
        return v.to_json()
    if isinstance(v, dict):
        return {k: json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_value(x) for x in v]
    return str(v)


class Record:
    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def to_json(self) -> dict:
        return {name: json_value(getattr(self, name)) for name in self.__slots__}

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
