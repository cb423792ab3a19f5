"""An in-memory B+-tree.

Keys are tuples (one element per indexed column) and values are integer
row ids.  Duplicate keys are allowed — the tree stores one entry per row,
like a secondary index.  Supports bulk loading from sorted entries,
incremental insertion, exact lookups and range scans, and exposes its
structural invariants for the property-based test suite.

The executor probes the sorted arrays kept in
:class:`repro.index.data.IndexData`; this tree is the reference structure
the tests check those arrays against.
"""

import bisect

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf):
        self.is_leaf = is_leaf
        self.keys = []
        self.children = []   # internal nodes only
        self.values = []     # leaf nodes only
        self.next_leaf = None


class BPlusTree:
    """B+-tree over ``(key_tuple, row_id)`` entries."""

    def __init__(self, order=DEFAULT_ORDER):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def bulk_load(cls, entries, order=DEFAULT_ORDER):
        """Build a tree from entries sorted by key (stable on row id).

        Leaves are packed to ~100% fill, matching how the engine's index
        builder creates indexes from a sort.
        """
        tree = cls(order=order)
        entries = list(entries)
        if any(
            entries[i][0] > entries[i + 1][0] for i in range(len(entries) - 1)
        ):
            raise ValueError("bulk_load requires entries sorted by key")
        if not entries:
            return tree

        leaf_capacity = order - 1
        leaves = []
        for start in range(0, len(entries), leaf_capacity):
            chunk = entries[start:start + leaf_capacity]
            leaf = _Node(is_leaf=True)
            leaf.keys = [key for key, _ in chunk]
            leaf.values = [value for _, value in chunk]
            leaves.append(leaf)
        for left, right in zip(leaves, leaves[1:]):
            left.next_leaf = right

        level = leaves
        fanout = order
        while len(level) > 1:
            # Distribute children evenly so no parent ends up with a lone
            # child (which would put leaves at different depths).
            n_parents = max(1, -(-len(level) // fanout))
            parents = []
            base = len(level) // n_parents
            extra = len(level) % n_parents
            start = 0
            for i in range(n_parents):
                size = base + (1 if i < extra else 0)
                group = level[start:start + size]
                start += size
                parent = _Node(is_leaf=False)
                parent.children = group
                parent.keys = [_smallest_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
        tree._root = level[0]
        tree._size = len(entries)
        return tree

    # ------------------------------------------------------------------
    # Queries

    def __len__(self):
        return self._size

    @property
    def height(self):
        """Number of levels (a lone leaf has height 1)."""
        levels = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    def search(self, key):
        """Row ids for an exact key match, in insertion order."""
        key = tuple(key)
        leaf = self._find_leaf(key, first=True)
        results = []
        while leaf is not None:
            idx = bisect.bisect_left(leaf.keys, key)
            if idx == len(leaf.keys):
                leaf = leaf.next_leaf
                continue
            while idx < len(leaf.keys) and leaf.keys[idx] == key:
                results.append(leaf.values[idx])
                idx += 1
            if idx < len(leaf.keys):
                break
            leaf = leaf.next_leaf
        return results

    def range_scan(self, low=None, high=None):
        """Yield ``(key, row_id)`` for ``low <= key <= high`` in key order."""
        leaf = (
            self._find_leaf(low, first=True)
            if low is not None else self._leftmost_leaf()
        )
        low_key = tuple(low) if low is not None else None
        high_key = tuple(high) if high is not None else None
        while leaf is not None:
            for key, value in zip(leaf.keys, leaf.values):
                if low_key is not None and key < low_key:
                    continue
                if high_key is not None and key > high_key:
                    return
                yield key, value
            leaf = leaf.next_leaf

    def items(self):
        """All entries in key order."""
        return self.range_scan()

    # ------------------------------------------------------------------
    # Mutation

    def insert(self, key, value):
        """Insert one entry, splitting nodes as needed."""
        key = tuple(key)
        split = self._insert_into(self._root, key, value)
        if split is not None:
            sep_key, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    # ------------------------------------------------------------------
    # Invariants (exercised by the hypothesis tests)

    def check_invariants(self):
        """Raise AssertionError if any B+-tree invariant is violated."""
        leaf_depths = set()
        self._check_node(self._root, None, None, 1, leaf_depths, is_root=True)
        assert len(leaf_depths) == 1, "leaves are not all at the same depth"
        keys = [key for key, _ in self.items()]
        assert keys == sorted(keys), "leaf chain is not sorted"
        assert len(keys) == self._size, "size does not match entry count"

    # ------------------------------------------------------------------
    # Internals

    def _leftmost_leaf(self):
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def _find_leaf(self, key, first=False):
        """The leaf where ``key`` lives.

        With ``first=True`` descend toward the *first* occurrence of a
        duplicated key (separators equal to the key may have copies in
        the subtree to their left); otherwise descend to the insertion
        point after all duplicates.
        """
        key = tuple(key)
        chooser = bisect.bisect_left if first else bisect.bisect_right
        node = self._root
        while not node.is_leaf:
            idx = chooser(node.keys, key)
            node = node.children[idx]
        return node

    def _insert_into(self, node, key, value):
        if node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            if len(node.keys) < self.order:
                return None
            return self._split_leaf(node)
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right)
        if len(node.children) <= self.order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, node):
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node):
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep_key, right

    def _check_node(self, node, low, high, depth, leaf_depths, is_root=False):
        assert node.keys == sorted(node.keys), "node keys unsorted"
        for key in node.keys:
            if low is not None:
                assert key >= low, "key below subtree lower bound"
            if high is not None:
                assert key <= high, "key above subtree upper bound"
        if node.is_leaf:
            leaf_depths.add(depth)
            assert len(node.keys) == len(node.values)
            assert len(node.keys) <= self.order - 1 or is_root
            return
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            assert len(node.children) >= 2
        bounds = [low] + node.keys + [high]
        for child, (lo, hi) in zip(
            node.children, zip(bounds[:-1], bounds[1:])
        ):
            self._check_node(child, lo, hi, depth + 1, leaf_depths)


def _smallest_key(node):
    while not node.is_leaf:
        node = node.children[0]
    return node.keys[0]
