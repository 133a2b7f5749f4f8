"""The one constructor of the package's record classes.

It imports nothing, so every module of the package can import it.
"""


class Record:
    """Base class of a record whose fields are its class's ``__slots__``.

    ``__init__`` takes the fields by position, in slot order, or by
    keyword, and sets each once. A missing, unknown, repeated or extra
    field raises ``TypeError``, as a written-out ``__init__`` would. No
    source is generated (``dataclasses`` compiles each ``__init__`` with
    ``exec`` on every import).
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or sorted(kwargs) != sorted(rest):
                raise TypeError(
                    f"{type(self).__name__}() takes the fields {', '.join(names)}, by position "
                    f"or by keyword; got {len(args)} by position and {sorted(kwargs)} by keyword")
            args += tuple(kwargs[name] for name in rest)
        for name, value in zip(names, args):
            setattr(self, name, value)
