"""What every layer shares: the record base class, the canonical edge, the
residue class of a difference and the rule for distinct classes.

A leaf with no imports, so that a layer needing only these, as hampack
does, runs without core.  :mod:`diamforge.core` re-exports the record and
edge names, :mod:`diamforge.genseq` the residue class.
"""

Edge = tuple[int, int]

__all__ = ["Edge", "Record", "canonical_residue", "distinct_classes", "edge"]


def edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) form of the edge {u, v}."""
    if u == v:
        raise ValueError(f"degenerate edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def canonical_residue(value: int, n: int) -> int:
    """Map a difference mod n to its residue class in {1..(n-1)/2}."""
    r = value % n
    return min(r, n - r)


def distinct_classes(diffs: list[int], n: int) -> bool:
    """Whether ``diffs`` lie in distinct non-zero +- classes mod n: the
    2 * len(diffs) signed values +-d are pairwise distinct mod n.  A
    difference 0, or n/2 for even n, is its own negative and fails."""
    return len({d % n for d in diffs} | {-d % n for d in diffs}) == 2 * len(diffs)


class Record:
    """Base of the package's records: field-wise ``==`` and a readable repr
    over ``__slots__``.  Records are mutable and not hashable."""

    __slots__ = ()

    @classmethod
    def _of(cls, *fields):
        """A record holding ``fields`` in ``__slots__`` order, built without
        ``__init__`` and so without its checks: only for values that are
        valid by construction."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(self, name, value)
        return self

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"
