"""Immutable value records: equality, hash and repr over a class's fields.

A subclass declares __slots__ and a _fields tuple.  Its __init__ sets each
field through set_field and then _key, the tuple of the field values in
_fields order, through set_key.  Records of one class are equal when their
keys are; a record never equals one of another class.  The hash is that of
the key, which is the hash of the tuple of fields, and the repr reads
`Name(field=value, ...)`.  A slot left out of the key (a cached depth, say)
takes no part in any of the three.
"""

# The one way to write a slot of a record; assignment otherwise raises.
set_field = object.__setattr__


class Record:
    __slots__ = ("_key",)
    _fields = ()

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
