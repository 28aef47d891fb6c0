"""C4.5-style decision trees: gain-ratio splits and pessimistic pruning.

This is the tree machinery underneath the PART rule learner (Frank &
Witten 1998): entropy/gain-ratio split selection over categorical
(multiway) and numeric (binary threshold) attributes, C4.5's
average-gain pre-filter, and the pessimistic error estimate
(Wilson-style upper confidence bound, the ``addErrs`` of C4.5) used for
subtree replacement.

Splits are chosen on an :class:`EncodedInstances` matrix, not on
instance objects: every categorical attribute is interned once into
int codes by :class:`~repro.core.columnar.FeatureCodec` (values compare
by ``str()``, as ``Condition.matches`` does), the class becomes a 0/1
vector, and a tree node is an array of row indices.  Per-branch class
counts come from one ``np.bincount(code * 2 + class)`` per node and
attribute.  The floating-point arithmetic is the textbook one, done in
the same order as a value-by-value implementation would do it, so the
chosen splits do not depend on the representation:

* entropies use ``math.log2`` (memoized on the two class counts), never
  ``np.log2``, which is not guaranteed bit-equal to libm;
* the conditional entropy and the split information are summed over the
  branches in the order the branches first occur in the node's rows;
* numeric thresholds scan the value-sorted rows boundary by boundary.

``tests/core/part_oracle.py`` keeps the instance-by-instance selector as
the reference, and ``tests/core/test_part_equivalence.py`` holds the two
to identical results.

A standalone :class:`DecisionTree` classifier is exposed as well -- it is
useful on its own and lets the test suite exercise the split/prune
machinery independently of PART.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .columnar import FeatureCodec
from .dataset import (
    BENIGN_CLASS,
    MALICIOUS_CLASS,
    AttributeKind,
    AttributeSpec,
    Instance,
)

#: C4.5's default pruning confidence factor.
DEFAULT_CF = 0.25

#: C4.5's default minimum instances per branch.
DEFAULT_MIN_INSTANCES = 2


def entropy(counts: Counter) -> float:
    """Shannon entropy (bits) of a class distribution."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts.values():
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


@functools.lru_cache(maxsize=1 << 16)
def binary_entropy(benign: int, malicious: int) -> float:
    """:func:`entropy` of a two-class distribution, memoized.

    Bit-equal to ``entropy(Counter(...))`` whichever class comes first:
    a sum of two terms does not depend on their order.
    """
    total = benign + malicious
    result = 0.0
    for count in (benign, malicious):
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


@functools.lru_cache(maxsize=1 << 16)
def _weight_log(size: int, total: int) -> float:
    """One branch's ``weight * log2(weight)`` term of the split information."""
    weight = size / total
    return weight * math.log2(weight)


def class_counts(instances: Sequence[Instance]) -> Counter:
    """Counter of instance class labels."""
    return Counter(instance.label for instance in instances)


def pessimistic_added_errors(
    coverage: float, errors: float, cf: float = DEFAULT_CF
) -> float:
    """C4.5's ``addErrs``: extra errors added by the pessimistic estimate.

    The estimated error of a leaf covering ``coverage`` instances with
    ``errors`` training errors is ``errors + pessimistic_added_errors``.
    """
    if coverage <= 0:
        return 0.0
    if errors >= coverage:
        return 0.0
    if errors < 1e-9:
        # Upper bound when no errors were observed.
        return coverage * (1.0 - math.exp(math.log(cf) / coverage))
    if errors + 0.5 >= coverage:
        return max(coverage - errors, 0.0)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (errors + 0.5) / coverage
    upper = (
        f
        + z * z / (2.0 * coverage)
        + z * math.sqrt(f / coverage - f * f / coverage
                        + z * z / (4.0 * coverage * coverage))
    ) / (1.0 + z * z / coverage)
    return upper * coverage - errors


#: :func:`pessimistic_added_errors` memoized for integer leaf statistics.
added_errors = functools.lru_cache(maxsize=1 << 16)(pessimistic_added_errors)


def leaf_errors(benign: int, malicious: int) -> int:
    """Training errors of a leaf predicting its majority class."""
    return benign if malicious > benign else malicious


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Leaf:
    """A terminal node predicting its majority class."""

    prediction: str
    counts: Counter
    developed: bool = True

    @property
    def coverage(self) -> int:
        return sum(self.counts.values())

    @property
    def errors(self) -> int:
        return self.coverage - self.counts.get(self.prediction, 0)

    @property
    def is_leaf(self) -> bool:
        return True


@dataclasses.dataclass(frozen=True)
class Split:
    """A chosen split of one attribute."""

    attribute: int
    kind: AttributeKind
    threshold: Optional[float] = None

    def branch_key(self, value) -> str:
        """Branch identifier for one attribute value."""
        if self.kind == AttributeKind.CATEGORICAL:
            return str(value)
        return "<=" if float(value) <= self.threshold else ">"


@dataclasses.dataclass
class InnerNode:
    """A test node with one child per branch."""

    split: Split
    children: Dict[str, Union["InnerNode", Leaf]]
    counts: Counter

    @property
    def prediction(self) -> str:
        return max(sorted(self.counts), key=lambda c: self.counts[c])

    @property
    def coverage(self) -> int:
        return sum(self.counts.values())

    @property
    def is_leaf(self) -> bool:
        return False


Node = Union[InnerNode, Leaf]


# ----------------------------------------------------------------------
# The coded training matrix
# ----------------------------------------------------------------------


class EncodedInstances:
    """A training set as int codes: the input of split selection.

    ``columns[a]`` holds attribute ``a``'s codes (interned by ``str()``
    through a :class:`~repro.core.columnar.FeatureCodec`), ``values[a]``
    the string behind each code and ``key_rank[a]`` each code's rank in
    string order.  NUMERIC attributes also get a float64 column in
    ``numeric``.  ``malicious`` is the 0/1 class vector.
    """

    def __init__(
        self, schema: Sequence[AttributeSpec], instances: Sequence[Instance]
    ) -> None:
        width = len(schema)
        rows = [instance.values for instance in instances]
        self.size = len(rows)
        codec = FeatureCodec(width)
        # (width, n): one contiguous code array per attribute.
        self.columns = codec.encode_rows(rows).T.copy()
        self.values = [codec.vocabulary(a).values for a in range(width)]
        self.key_rank = [_string_ranks(values) for values in self.values]
        self.numeric: Dict[int, np.ndarray] = {
            a: np.array([float(row[a]) for row in rows], dtype=np.float64)
            for a, spec in enumerate(schema)
            if spec.kind == AttributeKind.NUMERIC
        }
        self.malicious = np.fromiter(
            (instance.label == MALICIOUS_CLASS for instance in instances),
            dtype=np.int8,
            count=self.size,
        )

    def branch_key(self, split: Split, branch: int) -> str:
        """The branch key (``Split.branch_key``) of one coded branch."""
        if split.kind == AttributeKind.CATEGORICAL:
            return self.values[split.attribute][branch]
        return "<=" if branch == 0 else ">"

    def branch_mask(self, split: Split, branch: int) -> np.ndarray:
        """Bool over all rows: the row falls into ``branch`` of ``split``."""
        if split.kind == AttributeKind.CATEGORICAL:
            return self.columns[split.attribute] == branch
        column = self.numeric[split.attribute]
        if branch:
            return column > split.threshold
        return column <= split.threshold


def _string_ranks(values: Sequence[str]) -> np.ndarray:
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[sorted(range(len(values)), key=values.__getitem__)] = np.arange(
        len(values)
    )
    return ranks


@dataclasses.dataclass
class SplitChoice:
    """An admissible split of one node, with its branches.

    ``assign`` gives each of the node's rows its branch id (a code for a
    categorical split, 0 for ``<=`` and 1 for ``>`` for a numeric one);
    ``branches``, ``benign`` and ``malicious`` list the branch ids and
    their class counts in first-seen order.
    """

    gain: float
    ratio: float
    split: Split
    assign: np.ndarray
    branches: np.ndarray
    benign: np.ndarray
    malicious: np.ndarray


# ----------------------------------------------------------------------
# Split selection
# ----------------------------------------------------------------------


class SplitSelector:
    """Chooses the best gain-ratio split, C4.5-style."""

    def __init__(
        self,
        schema: Sequence[AttributeSpec],
        min_instances: int = DEFAULT_MIN_INSTANCES,
    ) -> None:
        self.schema = tuple(schema)
        self.min_instances = min_instances

    def best_split(self, instances: Sequence[Instance]) -> Optional[Split]:
        """The best admissible split of ``instances``, or ``None``."""
        data = EncodedInstances(self.schema, instances)
        malicious = int(data.malicious.sum())
        choice = self.choose(
            data, np.arange(data.size), data.size - malicious, malicious
        )
        return None if choice is None else choice.split

    def choose(
        self,
        data: EncodedInstances,
        rows: np.ndarray,
        benign: int,
        malicious: int,
    ) -> Optional[SplitChoice]:
        """The best admissible split of ``rows``, or ``None`` if none helps.

        Implements C4.5's heuristic: among candidate splits with
        information gain at least the average gain of all positive-gain
        candidates, pick the one with the highest gain ratio.
        """
        base_entropy = binary_entropy(benign, malicious)
        total = benign + malicious
        if base_entropy == 0.0 or total < 2 * self.min_instances:
            return None
        labels = data.malicious[rows]
        candidates: List[SplitChoice] = []
        for index, spec in enumerate(self.schema):
            if spec.kind == AttributeKind.CATEGORICAL:
                candidate = self._categorical_candidate(
                    data, rows, labels, index, base_entropy
                )
            else:
                candidate = self._numeric_candidate(
                    data, rows, labels, malicious, index, base_entropy
                )
            if candidate is not None:
                candidates.append(candidate)
        if not candidates:
            return None
        average_gain = sum(c.gain for c in candidates) / len(candidates)
        admissible = [
            c for c in candidates if c.gain >= average_gain - 1e-12
        ]
        if not admissible:
            return None
        admissible.sort(
            key=lambda c: (-c.ratio, -c.gain, c.split.attribute)
        )
        return admissible[0]

    def _categorical_candidate(
        self,
        data: EncodedInstances,
        rows: np.ndarray,
        labels: np.ndarray,
        index: int,
        base_entropy: float,
    ) -> Optional[SplitChoice]:
        codes = data.columns[index][rows]
        cardinality = len(data.values[index])
        counts = np.bincount(
            codes * 2 + labels, minlength=2 * cardinality
        ).reshape(cardinality, 2)
        sizes = counts[:, 0] + counts[:, 1]
        present = sizes.nonzero()[0]
        if present.shape[0] < 2:
            return None
        if np.count_nonzero(sizes[present] >= self.min_instances) < 2:
            return None
        total = rows.shape[0]
        first = np.full(cardinality, total, dtype=np.intp)
        np.minimum.at(first, codes, np.arange(total))
        branches = present[first[present].argsort()]
        branch_counts = counts[branches]
        # The scalar sums, branch by branch in first-seen order; a pure
        # branch adds exactly 0.0 to the conditional entropy.
        conditional = 0.0
        split_info = 0.0
        for b, m in branch_counts.tolist():
            if b and m:
                conditional += ((b + m) / total) * binary_entropy(b, m)
            split_info -= _weight_log(b + m, total)
        gain = base_entropy - conditional
        if gain <= 1e-12 or split_info <= 1e-12:
            return None
        return SplitChoice(
            gain=gain,
            ratio=gain / split_info,
            split=Split(index, AttributeKind.CATEGORICAL),
            assign=codes,
            branches=branches,
            benign=branch_counts[:, 0],
            malicious=branch_counts[:, 1],
        )

    def _numeric_candidate(
        self,
        data: EncodedInstances,
        rows: np.ndarray,
        labels: np.ndarray,
        malicious: int,
        index: int,
        base_entropy: float,
    ) -> Optional[SplitChoice]:
        values = data.numeric[index][rows]
        order = np.lexsort((labels, values))
        ordered = values[order].tolist()
        left_malicious = np.cumsum(labels[order]).tolist()
        total = len(ordered)
        best: Optional[Tuple[float, float, float]] = None  # gain, ratio, thr
        for position in range(total - 1):
            value = ordered[position]
            if ordered[position + 1] == value:
                continue
            left_total = position + 1
            right_total = total - left_total
            if left_total < self.min_instances or right_total < self.min_instances:
                continue
            left_mal = left_malicious[position]
            right_mal = malicious - left_mal
            weight_left = left_total / total
            weight_right = right_total / total
            conditional = (
                weight_left * binary_entropy(left_total - left_mal, left_mal)
                + weight_right
                * binary_entropy(right_total - right_mal, right_mal)
            )
            gain = base_entropy - conditional
            if gain <= 1e-12:
                continue
            split_info = -(
                weight_left * math.log2(weight_left)
                + weight_right * math.log2(weight_right)
            )
            if split_info <= 1e-12:
                continue
            ratio = gain / split_info
            if best is None or ratio > best[1]:
                threshold = (value + ordered[position + 1]) / 2.0
                best = (gain, ratio, threshold)
        if best is None:
            return None
        gain, ratio, threshold = best
        assign = (~(values <= threshold)).astype(np.intp)
        counts = np.bincount(assign * 2 + labels, minlength=4)
        branches = np.array([assign[0], 1 - assign[0]])
        return SplitChoice(
            gain=gain,
            ratio=ratio,
            split=Split(index, AttributeKind.NUMERIC, threshold),
            assign=assign,
            branches=branches,
            benign=counts[2 * branches],
            malicious=counts[2 * branches + 1],
        )


# ----------------------------------------------------------------------
# Full tree with subtree-replacement pruning
# ----------------------------------------------------------------------


def make_leaf(instances: Sequence[Instance], developed: bool = True) -> Leaf:
    """A leaf predicting the majority class (ties broken alphabetically)."""
    counts = class_counts(instances)
    prediction = max(sorted(counts), key=lambda label: counts[label])
    return Leaf(prediction=prediction, counts=counts, developed=developed)


def _counts(benign: int, malicious: int) -> Counter:
    counts: Counter = Counter()
    if benign:
        counts[BENIGN_CLASS] = benign
    if malicious:
        counts[MALICIOUS_CLASS] = malicious
    return counts


def _leaf(benign: int, malicious: int) -> Leaf:
    prediction = MALICIOUS_CLASS if malicious > benign else BENIGN_CLASS
    return Leaf(prediction=prediction, counts=_counts(benign, malicious))


def subtree_errors(node: Node, cf: float = DEFAULT_CF) -> float:
    """Pessimistic error estimate of a (sub)tree."""
    if node.is_leaf:
        return node.errors + pessimistic_added_errors(
            node.coverage, node.errors, cf
        )
    return sum(subtree_errors(child, cf) for child in node.children.values())


class DecisionTree:
    """A C4.5-style classifier: build fully, prune by subtree replacement."""

    def __init__(
        self,
        schema: Sequence[AttributeSpec],
        min_instances: int = DEFAULT_MIN_INSTANCES,
        cf: float = DEFAULT_CF,
        max_depth: int = 40,
    ) -> None:
        self.schema = tuple(schema)
        self.cf = cf
        self.max_depth = max_depth
        self._selector = SplitSelector(schema, min_instances)
        self.root: Optional[Node] = None

    def fit(self, instances: Sequence[Instance]) -> "DecisionTree":
        """Build and prune the tree."""
        if not instances:
            raise ValueError("cannot fit a tree on zero instances")
        data = EncodedInstances(self.schema, instances)
        malicious = int(data.malicious.sum())
        self.root = self._build(
            data, np.arange(data.size), data.size - malicious, malicious, 0
        )
        return self

    def _build(
        self,
        data: EncodedInstances,
        rows: np.ndarray,
        benign: int,
        malicious: int,
        depth: int,
    ) -> Node:
        if depth >= self.max_depth:
            return _leaf(benign, malicious)
        choice = self._selector.choose(data, rows, benign, malicious)
        if choice is None:
            return _leaf(benign, malicious)
        children = {
            data.branch_key(choice.split, branch): self._build(
                data, rows[choice.assign == branch], b, m, depth + 1
            )
            for branch, b, m in zip(
                choice.branches.tolist(),
                choice.benign.tolist(),
                choice.malicious.tolist(),
            )
        }
        node = InnerNode(
            split=choice.split,
            children=children,
            counts=_counts(benign, malicious),
        )
        # Subtree replacement: keep the subtree only if it beats a leaf.
        leaf = _leaf(benign, malicious)
        leaf_errors = leaf.errors + pessimistic_added_errors(
            leaf.coverage, leaf.errors, self.cf
        )
        if leaf_errors <= subtree_errors(node, self.cf) + 0.1:
            return leaf
        return node

    def predict(self, values: Sequence) -> str:
        """Classify one feature-value tuple."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        node = self.root
        while not node.is_leaf:
            key = node.split.branch_key(values[node.split.attribute])
            child = node.children.get(key)
            if child is None:
                # Unseen categorical value: fall back to the node majority.
                return node.prediction
            node = child
        return node.prediction

    def leaf_count(self) -> int:
        """Number of leaves in the fitted tree."""

        def count(node: Node) -> int:
            if node.is_leaf:
                return 1
            return sum(count(child) for child in node.children.values())

        if self.root is None:
            return 0
        return count(self.root)

    def depth(self) -> int:
        """Depth of the fitted tree (a lone leaf has depth 0)."""

        def measure(node: Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(measure(child) for child in node.children.values())

        if self.root is None:
            return 0
        return measure(self.root)
