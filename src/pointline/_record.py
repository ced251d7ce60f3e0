"""Immutable value records, the part of frozen dataclasses pointline uses.

A subclass lists its fields as class annotations, in order, and gives a
default as a class attribute, as a frozen dataclass would. A record is
built positionally or by keyword, then runs __post_init__, which may
validate and normalise fields with object.__setattr__. Records compare
equal field by field, and only to records of the same class (never to a
tuple); they hash by their fields and refuse assignment with
AttributeError. Unlike dataclasses, defining a record generates no code.

Before __post_init__ runs, every field annotated Fraction passes through
rational: a Fraction is kept, an int or a str is converted by Fraction(),
and anything else (a float, a Decimal, a bool) raises TypeError naming
the field. This module imports only fractions, which every importer of a
record loads anyway.
"""

from fractions import Fraction


def rational(value, what: str) -> Fraction:
    """value as an exact Fraction, or TypeError naming what.

    The one rule for which Python values count as exact rationals: a
    Fraction is returned unchanged, and an int (not a bool) or a str is
    converted by Fraction(), so text parses as Fraction() parses it.
    Everything else is refused, binary floats and Decimals included.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) in (int, str):
        return Fraction(value)
    raise TypeError(f"{what} must be an int, a Fraction or a str, not {type(value).__name__}")


class Record:
    """Base class of pointline's immutable records."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._rationals = tuple(
            (name, f"{cls.__name__}.{name}")
            for name, kind in cls.__annotations__.items() if kind in ("Fraction", Fraction)
        )

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} arguments, got {len(args)}"
            )
        # Fields are stored in declaration order, so equal records also
        # list their values in the same order for __hash__.
        state = self.__dict__
        for name, value in zip(fields, args):
            state[name] = value
        for name in fields[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in self._defaults:
                state[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got unexpected or repeated arguments {sorted(kwargs)}"
            )
        for name, what in self._rationals:
            state[name] = rational(state[name], what)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
