"""A base for the package's record classes, without :mod:`dataclasses`.

Importing ``dataclasses`` pulls in ``inspect`` and ``ast``, and decorating a
class compiles its methods from generated source; together that was most of
a command's start-up.  :class:`Value` gives the same behaviour from the class
annotations alone.
"""

from operator import attrgetter


class Value:
    """An immutable record whose fields are its class annotations.

    The annotations, in order, are the constructor's parameters, and a class
    attribute of the same name is that field's default.  An instance reprs
    as ``Name(field=value, ...)``, equals another instance of the same class
    with equal fields, hashes as the tuple of its fields and refuses
    assignment.  A class may name in ``_compared`` the fields that repr,
    equality and hash use; by default they use all of them.  Copies and
    pickles are rebuilt through the constructor, and the fields, in order,
    are the class's positional match pattern.

    A class built once per transaction defines ``__slots__`` and its own
    ``__init__``, setting each field with ``object.__setattr__``: the
    generic constructor binds its arguments by name, at twice the cost.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls.__match_args__ = fields
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        compared = cls.__dict__.get("_compared", fields)
        cls._compared = compared
        get = attrgetter(*compared)
        # The field tuple; attrgetter gives a bare value for a single name.
        cls._key = property(get if len(compared) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                values[name] = cls._defaults[name]
            object.__setattr__(self, name, values[name])

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
