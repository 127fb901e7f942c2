"""Base of the value types: a plain class, since the standard library's
record decorator pulls in inspect, ast and dis, about 11 ms of start-up."""

from operator import attrgetter


class Frozen:
    """Immutable value with two or more fields, named once, in `_fields`, and
    set by `__init__` with one `_set` call.  Equal when of one class with
    equal fields; hashed as the tuple of fields."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._astuple = attrgetter(*cls._fields)

    def _set(self, *values) -> None:
        """Assign values to `_fields` in order; ValueError on a count mismatch."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")
