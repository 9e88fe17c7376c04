"""Immutable value classes: field-wise equality, hashing and repr.

The package's result objects (matrices, cones, complexes, weights,
fibrations, ...) are plain classes on one small base, so that importing
them costs no ``dataclasses`` machinery.
"""

from operator import attrgetter

# sets a field in a value's ``__init__``, past the assignment guard
set_field = object.__setattr__


class Value:
    """Base of the package's value classes.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` with ``set_field``.  ``==`` compares the fields
    within one class, ``hash`` hashes the field values (so a value holding
    a dict is unhashable), the repr lists the fields, and
    assigning or deleting an attribute raises ``AttributeError``.  A
    subclass with a ``cached_property`` declares no ``__slots__``: the
    cached value lives in the instance ``__dict__``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

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
