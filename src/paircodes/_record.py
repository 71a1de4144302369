"""Frozen value records: the part of dataclass(frozen=True) the package uses.

A subclass of Record lists its fields as class annotations, in order,
and a class attribute is that field's default.  When the class is
created, Record writes it a straight-line __init__ and _values (the
field tuple), as namedtuple does, so building a record costs no generic
argument binding and importing this module loads nothing else.
__init__ runs the class's __post_init__, if it has one, after setting
every field; __post_init__ may normalise a field with object.__setattr__.

Records compare equal only to records of the same class with equal
fields, hash as their field tuple, print as Name(field=value, ...), and
refuse assignment and deletion.  They pickle and copy as their
constructor call, Name(*fields), so anything __post_init__ derives or a
record caches in its instance dict is rebuilt, never stored.
"""


class Record:
    def __init_subclass__(cls):
        own = cls.__dict__
        fields = tuple(own.get("__annotations__", ()))
        defaults = tuple(own[name] for name in fields if name in own)
        for name in fields[len(fields) - len(defaults) :]:
            if name not in own:
                raise TypeError(f"non-default field {name!r} follows a default field")
        post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        source = (
            f"def __init__(self, {', '.join(fields)}):\n"
            + "".join(f"    _setattr(self, {name!r}, {name})\n" for name in fields)
            + post
            + "def _values(self):\n"
            f"    return ({''.join(f'self.{name}, ' for name in fields)})\n"
        )
        namespace = {}
        exec(source, {"_setattr": object.__setattr__}, namespace)
        init = namespace["__init__"]
        init.__defaults__ = defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._values = namespace["_values"]
        cls._fields = fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = zip(self._fields, self._values())
        body = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return (self.__class__, self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
