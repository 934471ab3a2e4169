"""Value, the base of the package's value classes: what dataclass(frozen=True)
generates, from the fields in the class annotations and the defaults in
class attributes of their names, without exec'ing six methods per class.
A class built in hot loops (Graph, EdgeRef, EdgeColoring) sets its fields
with set_field in its own __init__."""

from operator import attrgetter

# A module global is found faster than object.__setattr__ on every call.
set_field = object.__setattr__


class Value:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._field_names = frozenset(cls._fields)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._field_values = attrgetter(*cls._fields)  # a tuple, as every class has 2+ fields
        cls._where = f"{cls.__qualname__}.__init__()"

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not args and kwargs.keys() <= self._field_names:
            # keywords only, all known: set them once every field has one
            values = {**self._defaults, **kwargs}
            if len(values) == len(fields):
                for f in fields:
                    set_field(self, f, values[f])
                return
        n, where = len(args), self._where
        for key in kwargs:
            if key not in fields or fields.index(key) < n:
                got = "multiple values for argument" if key in fields else "an unexpected keyword argument"
                raise TypeError(f"{where} got {got} '{key}'")
        if n > len(fields):
            least = f"from {len(fields) - len(self._defaults) + 1} to " if self._defaults else ""
            raise TypeError(f"{where} takes {least}{len(fields) + 1} positional arguments"
                            f" but {n + 1} were given")
        defaults = self._defaults
        for f, value in zip(fields, args):
            set_field(self, f, value)
        try:
            for f in fields[n:]:
                set_field(self, f, kwargs[f] if f in kwargs else defaults[f])
        except KeyError:
            missing = [repr(f) for f in fields[n:] if f not in kwargs and f not in defaults]
            last = f"{',' * (len(missing) > 2)} and {missing.pop()}" if len(missing) > 1 else ""
            raise TypeError(f"{where} missing {len(missing) + bool(last)} required positional"
                            f" argument{'s' * bool(last)}: {', '.join(missing)}{last}") from None

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")
