"""Immutable value classes: one constructor, field-wise equality, hashing
and repr; and the package's two error roots.

The package's result objects (matrices, cones, complexes, weights,
fibrations, ...) are plain classes on one small base, so that importing
them costs no ``dataclasses`` machinery.
"""

from operator import attrgetter

# sets a field in a value's ``__init__``, past the assignment guard
set_field = object.__setattr__


class TropoconeError(ValueError):
    """Root of the package's errors: the CLI exits 1 on one (a validation
    failure) unless it is an ``InputError``."""


class InputError(TropoconeError):
    """An input the package cannot read or does not accept: the CLI exits
    2 on one."""


class Value:
    """Base of the package's value classes.

    A subclass names its fields in ``_fields``, and ``_defaults`` maps a
    field that may be left out to its value.  The constructor binds
    positional and keyword arguments to the fields as a function signature
    would, and raises ``TypeError`` where Python's own binding does.  A
    subclass with checks of its own runs them in its own ``__init__``.
    ``==`` compares the fields within one class, ``hash`` hashes the field
    values (so a value holding a dict is unhashable), the repr lists the
    fields, and assigning or deleting an attribute raises
    ``AttributeError``.  A subclass with a ``cached_property`` declares no
    ``__slots__``: the cached value lives in the instance ``__dict__``.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes "
                            f"{len(fields)} positional arguments but "
                            f"{len(args)} were given")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        rest = fields[len(args):]
        for name in kwargs:
            if name not in rest:
                problem = ("multiple values for" if name in fields
                           else "an unexpected keyword")
                raise TypeError(f"{type(self).__qualname__}() got "
                                f"{problem} argument {name!r}")
        for name in rest:
            if name in kwargs:
                set_field(self, name, kwargs[name])
            elif name in self._defaults:
                set_field(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__qualname__}() missing "
                                f"required argument {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
