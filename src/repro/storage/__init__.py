"""Storage substrate: global entities, the database, and local copies."""

from .copies import CopyCell, RetainedCopy, StackElement, ValueStack
from .database import Database
from .entity import Entity

__all__ = [
    "CopyCell",
    "Database",
    "Entity",
    "RetainedCopy",
    "StackElement",
    "ValueStack",
]
