"""Planar binary trees and their grafting combinatorics.

A planar binary tree is either a single leaf or an ordered pair of planar
binary trees joined under a new root.  These trees index the perturbative
expansion evaluated in :mod:`kgcharge.series`; this module is the pure
combinatorial layer: construction, enumeration, the leaf-replacement
("growing") operation, the Dyck-word encoding, and the signed sums over
cherry prunings whose cancellation makes the expansion telescope order by
order.  The root decomposition, the pruning of every cherry at once and
the Dyck-word parser live in tests/oracles.py, since only the tests call
them.

Size conventions: ``internal_count(b)`` counts vertices with two children,
``leaf_count(b)`` counts leaves, and every tree satisfies
``leaf_count(b) == internal_count(b) + 1``.  Trees are immutable values
with structural equality, so they can be shared, hashed, and memoized
freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_ENUMERATION_CAP = 10


class DegenerateTree(ValueError):
    """Raised when a bare leaf is passed where an internal tree is required."""


class CapExceeded(ValueError):
    """Raised when an enumeration request exceeds the configured order cap."""


class LengthMismatch(ValueError):
    """Raised when a grow spec does not provide exactly one entry per leaf."""


@dataclass(frozen=True)
class Tree:
    """Immutable planar binary tree: a leaf, or two ordered subtrees."""

    left: "Tree | None" = None
    right: "Tree | None" = None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise ValueError("a tree has either zero or exactly two children")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        return f"Tree({to_dyck(self)!r})"


def leaf() -> Tree:
    """The unique tree with one leaf and no internal vertex."""
    return Tree()


def graft(b1: Tree, b2: Tree) -> Tree:
    """Join two trees under a new root, with b1 on the left."""
    return Tree(b1, b2)


@lru_cache(maxsize=None)
def internal_count(b: Tree) -> int:
    """Number of internal vertices of ``b``."""
    if b.is_leaf:
        return 0
    return internal_count(b.left) + internal_count(b.right) + 1


def leaf_count(b: Tree) -> int:
    """Number of leaves of ``b``, always ``internal_count(b) + 1``."""
    return internal_count(b) + 1


# The two admissible grow entries: keep a leaf, or sprout a cherry.
_LEAF = Tree()
_CHERRY = Tree(Tree(), Tree())


@lru_cache(maxsize=None)
def _forest(order: int) -> tuple[Tree, ...]:
    if order == 0:
        return (_LEAF,)
    out: list[Tree] = []
    for i in range(order):
        for left in _forest(i):
            for right in _forest(order - 1 - i):
                out.append(Tree(left, right))
    return tuple(out)


def enumerate_trees(order: int) -> list[Tree]:
    """All trees with ``internal_count == order``.

    The result is deterministic: trees are listed by the internal count of
    the left subtree, ascending, then recursively in the same order on both
    sides.  The length of the list is the Catalan number of ``order``.

    Raises ``CapExceeded`` when ``order`` is past DEFAULT_ENUMERATION_CAP
    (10, i.e. at most 16796 trees), which bounds memory use.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(f"enumeration order {order} exceeds the cap {DEFAULT_ENUMERATION_CAP}")
    return list(_forest(order))


@dataclass(frozen=True)
class GrowSpec:
    """Per-leaf replacement plan: each entry is a leaf or the two-leaf tree."""

    entries: tuple[Tree, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for e in entries:
            if e != _LEAF and e != _CHERRY:
                raise ValueError("grow entries must be the leaf or the two-leaf tree")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def n_y(self) -> int:
        """Number of entries that sprout a cherry."""
        return sum(1 for e in self.entries if e == _CHERRY)


def grow(spec: GrowSpec, b: Tree) -> Tree:
    """Replace the i-th leaf of ``b`` (left to right) by the i-th entry.

    Growing with ``n`` cherry entries adds ``n`` leaves:
    ``leaf_count(grow(spec, b)) == leaf_count(b) + spec.n_y``.
    """
    if not isinstance(spec, GrowSpec):
        spec = GrowSpec(tuple(spec))
    if len(spec) != leaf_count(b):
        raise LengthMismatch(
            f"grow spec has {len(spec)} entries but the tree has {leaf_count(b)} leaves"
        )
    entries = iter(spec)

    def rec(t: Tree) -> Tree:
        if t.is_leaf:
            return next(entries)
        return Tree(rec(t.left), rec(t.right))

    return rec(b)


def _cherry_paths(b: Tree, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    # A cherry is an internal vertex whose two children are both leaves.
    if b.is_leaf:
        return []
    if b.left.is_leaf and b.right.is_leaf:
        return [prefix]
    return _cherry_paths(b.left, prefix + (0,)) + _cherry_paths(b.right, prefix + (1,))


def _prune(b: Tree, selected: frozenset[tuple[int, ...]]) -> tuple[Tree, list[Tree]]:
    """Collapse the selected cherries of ``b`` in one pass.

    Returns the collapsed tree and, per remaining leaf (left to right), the
    entry that regrows ``b``: a cherry where a vertex was collapsed, a leaf
    where the original leaf survived.
    """

    def rec(t: Tree, path: tuple[int, ...]) -> tuple[Tree, list[Tree]]:
        if t.is_leaf:
            return t, [_LEAF]
        if path in selected:
            return _LEAF, [_CHERRY]
        la, le = rec(t.left, path + (0,))
        ra, re = rec(t.right, path + (1,))
        return Tree(la, ra), le + re

    return rec(b, ())


def signed_grow_sum(b: Tree, *, min_growth: int = 0) -> int:
    """Signed count of the ways to obtain ``b`` by growing a smaller tree.

    Sums ``(-1) ** internal_count(a)`` over every pair ``(a, spec)`` with
    ``grow(spec, a) == b``.  Such pairs correspond exactly to subsets of the
    cherry set of ``b`` (the cherries that the spec sprouts), which is how
    they are enumerated here.  Every tree with at least two leaves has at
    least one cherry, so the full sum vanishes.  With ``min_growth=1`` the
    identity-growing term is excluded and the sum is
    ``-(-1) ** internal_count(b)``.
    """
    if leaf_count(b) < 2:
        raise DegenerateTree("the signed grow sum needs a tree with at least two leaves")
    paths = _cherry_paths(b)
    total = 0
    for size in range(min_growth, len(paths) + 1):
        for subset in itertools.combinations(paths, size):
            a, _ = _prune(b, frozenset(subset))
            total += (-1) ** internal_count(a)
    return total


def to_dyck(b: Tree) -> str:
    """Preorder encoding: ``L`` for a leaf, ``N`` followed by both subtrees."""
    if b.is_leaf:
        return "L"
    return "N" + to_dyck(b.left) + to_dyck(b.right)
