"""Shared exception types, and the base of the records that check their fields."""


class Checked:
    """Base of a ``NamedTuple`` subclass whose ``__new__`` checks or
    normalizes its fields.  ``NamedTuple._make``, which ``_replace`` builds
    through, skips ``__new__``; this one builds the record again from its
    fields as ``copy`` passes them (``__getnewargs__``).  ``MonodromyWord.raw``
    is the one deliberate unchecked path."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable).__getnewargs__())


class ContactCalcError(Exception):
    """Base class for all library errors."""


class ChartMismatchError(ContactCalcError):
    """A form/field was evaluated at a point of a different chart."""


class DomainError(ContactCalcError):
    """A point lies outside the declared domain of a chart or form."""


class IllConditionedError(ContactCalcError):
    """A linear solve was refused because the system is too ill-conditioned."""

    def __init__(self, message: str, condition_number: float):
        super().__init__(message)
        self.condition_number = condition_number


class DegenerateSystemError(ContactCalcError):
    """A defining linear system has no solution within tolerance."""
