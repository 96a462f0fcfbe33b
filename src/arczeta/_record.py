"""Immutable value records: equality, hash and repr over a class's fields.

A subclass declares a _fields tuple and __slots__ for whatever else it
stores (a cached depth, say), or () when that is nothing.  Its __init__
sets _key, the tuple of the field values in _fields order, through
set_key: the key is the only place a field is stored, and each name in
_fields reads its position in the key through a property made here,
unless the class defines that name itself.  Records of one class are
equal when their keys are; a record never equals one of another class.
The hash is that of the key, which is the hash of the tuple of fields,
and the repr reads `Name(field=value, ...)`.  A slot outside the key takes
no part in any of the three.
"""

# The one way to write a slot of a record; assignment otherwise raises.
set_field = object.__setattr__


class Record:
    __slots__ = ("_key",)
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for index, name in enumerate(cls._fields):
            if name not in cls.__dict__:
                setattr(cls, name, property(lambda self, index=index: self._key[index]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# Sets _key past __setattr__ like set_field, at about half the cost: the
# slot's own setter skips the type lookup and argument copy of
# object.__setattr__.
set_key = Record._key.__set__
