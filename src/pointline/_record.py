"""Immutable value records, the part of frozen dataclasses pointline uses.

A subclass lists its fields as class annotations, in order, and gives a
default as a class attribute, as a frozen dataclass would. A record is
built positionally or by keyword, then runs __post_init__, which may
validate and normalise fields with object.__setattr__. Records compare
equal field by field, and only to records of the same class (never to a
tuple); they hash by their fields and refuse assignment with
AttributeError. Unlike dataclasses, defining a record generates no code.

Before __post_init__ runs, every field annotated Fraction passes through
rational: a Fraction is kept, an int is converted exactly, a str is parsed
by parse_rational, and anything else (a float, a Decimal, a bool) raises
TypeError naming the field.

parse_rational is pointline's one text grammar for exact numbers: point
files, rational and integer flags, and strings given to records and to
checked_eps and checked_tail_width all go through it, so Fraction() and
int() never see user text.
"""

import re
from fractions import Fraction

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(token: str) -> Fraction:
    """Parse an integer or "p/q" token of ASCII digits; q must be positive.

    Surrounding whitespace is stripped, and the sign goes on p only. Each
    run of digits may have at most 4300 digits (CPython's int-string
    limit). Anything else raises ValueError, in time linear in the token.
    """
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError(f"not an integer or p/q: {token!r}")
    num, den = match.groups(default="1")
    if int(den) == 0:
        raise ValueError(f"denominator must be positive in {token!r}")
    return Fraction(int(num), int(den))


def rational(value, what: str) -> Fraction:
    """value as an exact Fraction, or TypeError or ValueError naming what.

    The one rule for which Python values count as exact rationals: a
    Fraction is returned unchanged, an int (not a bool) is converted, and
    a str must be a parse_rational token; a bad one raises ValueError
    ("Point.x: not an integer or p/q: '1e3'"). Everything else raises
    TypeError, binary floats and Decimals included.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if type(value) is str:
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None
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
