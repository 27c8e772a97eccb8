"""Immutable value objects, in place of frozen dataclasses.

A subclass's annotated names are its fields, in order, and its class
attributes are their defaults.  An instance compares equal to, hashes and
prints as its fields, the way a frozen dataclass does; fields whose names
start with an underscore (caches) take no part.  Importing ``dataclasses``
and generating code for each class would cost every command-line process
tens of milliseconds before it does any work.
"""


class Value:
    """Base of the package's immutable records; see the module docstring."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._compared = tuple(f for f in cls._fields if not f.startswith("_"))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]) or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        self.__dict__.update((f, values[f]) for f in fields)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._compared)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={self.__dict__[f]!r}' for f in self._compared)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
