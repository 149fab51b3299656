"""Frozen records: what dataclass(frozen=True) gave udmg's classes, without
importing dataclasses (and inspect) into every command.

@record makes a class's annotated names, in order, its fields; a name with a
class-level value takes it as its default.  It adds, generated once per class:
__init__ with those parameters, which then calls self.__post_init__() if the
class defines one (looked up on each call, so a method patched onto the class
later runs); __repr__ as Name(f=..., ...); __eq__ over the field tuple,
NotImplemented for any other class; __hash__ of that tuple, the value the
dataclass gave; and __setattr__ and __delattr__ that raise AttributeError.
An attribute that __post_init__ sets through object.__setattr__ and that is
not annotated is no field: __init__, repr, eq and hash leave it out.
"""


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple(cls.__annotations__)
    params = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names)
    mine = "(" + "".join(f"self.{n}, " for n in names) + ")"
    theirs = "(" + "".join(f"other.{n}, " for n in names) + ")"
    shown = " + ', ' + ".join(f"'{n}=' + repr(self.{n})" for n in names)
    source = (f"def __init__(self, {params}):\n"
              + "".join(f"    _set(self, '{n}', {n})\n" for n in names)
              + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
              + "def __repr__(self):\n"
              f"    return self.__class__.__qualname__ + '(' + {shown} + ')'\n"
              "def __eq__(self, other):\n"
              "    if other.__class__ is self.__class__:\n"
              f"        return {mine} == {theirs}\n"
              "    return NotImplemented\n"
              "def __hash__(self):\n"
              f"    return hash({mine})\n")
    namespace = {"__name__": cls.__module__, "_cls": cls, "_set": object.__setattr__}
    exec(source, namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__, cls.__delattr__ = _assign, _delete
    return cls
