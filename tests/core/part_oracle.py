"""The scalar PART learner: the reference the coded learner must match.

This is the object-walking implementation of Frank & Witten's PART that
:mod:`repro.core.part` replaced: Counter-based gain-ratio candidates,
list partitions, per-instance ``Rule.matches`` coverage removal and a
rescan to restate every rule on the full training set.  It is slow, and
it is kept here only as the oracle of ``test_part_equivalence.py``: the
coded learner must return the same rule list -- same rendering, same
order, same prediction, coverage and errors -- on every input.

It shares the leaf, entropy and pessimistic-error helpers with
:mod:`repro.core.decision_tree`, so only the search itself is duplicated.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import AttributeKind, AttributeSpec, Instance
from repro.core.decision_tree import (
    DEFAULT_CF,
    DEFAULT_MIN_INSTANCES,
    InnerNode,
    Leaf,
    Node,
    Split,
    class_counts,
    entropy,
    make_leaf,
    pessimistic_added_errors,
    subtree_errors,
)
from repro.core.rules import Condition, Rule, RuleSet


def partition(
    split: Split, instances: Sequence[Instance]
) -> Dict[str, List[Instance]]:
    """Split instances into branches, in first-seen branch order."""
    branches: Dict[str, List[Instance]] = defaultdict(list)
    for instance in instances:
        branches[split.branch_key(instance.values[split.attribute])].append(
            instance
        )
    return dict(branches)


class ScalarSplitSelector:
    """Chooses the best gain-ratio split, C4.5-style, one instance at a time."""

    def __init__(
        self,
        schema: Sequence[AttributeSpec],
        min_instances: int = DEFAULT_MIN_INSTANCES,
    ) -> None:
        self.schema = tuple(schema)
        self.min_instances = min_instances

    def best_split(self, instances: Sequence[Instance]) -> Optional[Split]:
        base_entropy = entropy(class_counts(instances))
        if base_entropy == 0.0 or len(instances) < 2 * self.min_instances:
            return None
        candidates: List[Tuple[float, float, Split]] = []
        for index, spec in enumerate(self.schema):
            if spec.kind == AttributeKind.CATEGORICAL:
                candidate = self._categorical_candidate(
                    instances, index, base_entropy
                )
            else:
                candidate = self._numeric_candidate(
                    instances, index, base_entropy
                )
            if candidate is not None:
                candidates.append(candidate)
        if not candidates:
            return None
        average_gain = sum(gain for gain, _, _ in candidates) / len(candidates)
        admissible = [
            (ratio, -gain, split)
            for gain, ratio, split in candidates
            if gain >= average_gain - 1e-12
        ]
        if not admissible:
            return None
        admissible.sort(key=lambda item: (-item[0], item[1], item[2].attribute))
        return admissible[0][2]

    def _categorical_candidate(
        self,
        instances: Sequence[Instance],
        index: int,
        base_entropy: float,
    ) -> Optional[Tuple[float, float, Split]]:
        branch_counts: Dict[str, Counter] = defaultdict(Counter)
        for instance in instances:
            branch_counts[str(instance.values[index])][instance.label] += 1
        if len(branch_counts) < 2:
            return None
        total = len(instances)
        big_enough = sum(
            1 for counts in branch_counts.values()
            if sum(counts.values()) >= self.min_instances
        )
        if big_enough < 2:
            return None
        conditional = 0.0
        split_info = 0.0
        for counts in branch_counts.values():
            weight = sum(counts.values()) / total
            conditional += weight * entropy(counts)
            split_info -= weight * math.log2(weight)
        gain = base_entropy - conditional
        if gain <= 1e-12 or split_info <= 1e-12:
            return None
        return gain, gain / split_info, Split(index, AttributeKind.CATEGORICAL)

    def _numeric_candidate(
        self,
        instances: Sequence[Instance],
        index: int,
        base_entropy: float,
    ) -> Optional[Tuple[float, float, Split]]:
        pairs = sorted(
            (float(instance.values[index]), instance.label)
            for instance in instances
        )
        total = len(pairs)
        left: Counter = Counter()
        right = Counter(label for _, label in pairs)
        best: Optional[Tuple[float, float, float]] = None
        for position in range(total - 1):
            value, label = pairs[position]
            left[label] += 1
            right[label] -= 1
            if pairs[position + 1][0] == value:
                continue
            left_total = position + 1
            right_total = total - left_total
            if left_total < self.min_instances or right_total < self.min_instances:
                continue
            weight_left = left_total / total
            weight_right = right_total / total
            conditional = (
                weight_left * entropy(left) + weight_right * entropy(right)
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
            threshold = (value + pairs[position + 1][0]) / 2.0
            if best is None or ratio > best[1]:
                best = (gain, ratio, threshold)
        if best is None:
            return None
        gain, ratio, threshold = best
        return gain, ratio, Split(index, AttributeKind.NUMERIC, threshold)


@dataclasses.dataclass(frozen=True)
class _LeafPath:
    leaf: Leaf
    conditions: Tuple[Condition, ...]


class ScalarPartLearner:
    """PART over instance lists; same constructor as ``PartLearner``."""

    def __init__(
        self,
        schema: Sequence[AttributeSpec],
        min_instances: int = DEFAULT_MIN_INSTANCES,
        cf: float = DEFAULT_CF,
        max_depth: int = 30,
        max_rules: int = 10_000,
        prune: bool = False,
    ) -> None:
        self.schema = tuple(schema)
        self.cf = cf
        self.max_depth = max_depth
        self.max_rules = max_rules
        self.prune = prune
        self._selector = ScalarSplitSelector(schema, min_instances)

    def fit(self, instances: Sequence[Instance]) -> RuleSet:
        remaining = list(instances)
        rules: List[Rule] = []
        while remaining and len(rules) < self.max_rules:
            root = self._expand(remaining, depth=0)
            best = self._best_developed_leaf(root)
            rule = Rule(
                conditions=best.conditions,
                prediction=best.leaf.prediction,
                coverage=best.leaf.coverage,
                errors=best.leaf.errors,
            )
            rules.append(rule)
            before = len(remaining)
            remaining = [
                instance
                for instance in remaining
                if not rule.matches(instance.values)
            ]
            assert len(remaining) < before, "rule covers no instance"
        return RuleSet([self._restate(rule, instances) for rule in rules])

    @staticmethod
    def _restate(rule: Rule, instances: Sequence[Instance]) -> Rule:
        coverage = 0
        errors = 0
        for instance in instances:
            if rule.matches(instance.values):
                coverage += 1
                if instance.label != rule.prediction:
                    errors += 1
        return Rule(
            conditions=rule.conditions,
            prediction=rule.prediction,
            coverage=coverage,
            errors=errors,
        )

    def _expand(self, instances: List[Instance], depth: int) -> Node:
        if depth >= self.max_depth:
            return make_leaf(instances)
        split = self._selector.best_split(instances)
        if split is None:
            return make_leaf(instances)
        branches = partition(split, instances)
        if len(branches) < 2:
            return make_leaf(instances)
        ordered = sorted(
            branches.items(),
            key=lambda item: (entropy(class_counts(item[1])), item[0]),
        )
        children = {}
        node_counts = class_counts(instances)
        for position, (key, subset) in enumerate(ordered):
            child = self._expand(subset, depth + 1)
            children[key] = child
            if not child.is_leaf:
                for other_key, other_subset in ordered[position + 1:]:
                    children[other_key] = make_leaf(
                        other_subset, developed=False
                    )
                return InnerNode(split=split, children=children,
                                 counts=node_counts)
        node = InnerNode(split=split, children=children, counts=node_counts)
        if not self.prune:
            return node
        collapsed = make_leaf(instances)
        collapsed_errors = collapsed.errors + pessimistic_added_errors(
            collapsed.coverage, collapsed.errors, self.cf
        )
        if collapsed_errors <= subtree_errors(node, self.cf) + 0.1:
            return collapsed
        return node

    def _best_developed_leaf(self, root: Node) -> _LeafPath:
        paths = list(self._developed_leaves(root, ()))

        def sort_key(path: _LeafPath):
            return (
                -path.leaf.coverage,
                path.leaf.errors / max(1, path.leaf.coverage),
                len(path.conditions),
                tuple(c.render() for c in path.conditions),
            )

        return min(paths, key=sort_key)

    def _developed_leaves(self, node: Node, conditions: Tuple[Condition, ...]):
        if node.is_leaf:
            if node.developed:
                yield _LeafPath(leaf=node, conditions=conditions)
            return
        for key, child in node.children.items():
            yield from self._developed_leaves(
                child, conditions + (self._condition_for(node, key),)
            )

    def _condition_for(self, node: InnerNode, key: str) -> Condition:
        split = node.split
        spec = self.schema[split.attribute]
        if split.kind == AttributeKind.CATEGORICAL:
            return Condition(
                feature=spec.name,
                attribute=split.attribute,
                kind=AttributeKind.CATEGORICAL,
                operator="==",
                value=key,
            )
        return Condition(
            feature=spec.name,
            attribute=split.attribute,
            kind=AttributeKind.NUMERIC,
            operator="<=" if key == "<=" else ">",
            value=split.threshold,
        )


def scalar_tree(
    schema: Sequence[AttributeSpec],
    instances: Sequence[Instance],
    min_instances: int = DEFAULT_MIN_INSTANCES,
    cf: float = DEFAULT_CF,
    max_depth: int = 40,
) -> Node:
    """The C4.5 tree ``DecisionTree.fit`` builds, grown from instance lists."""
    selector = ScalarSplitSelector(schema, min_instances)

    def build(subset: List[Instance], depth: int) -> Node:
        if depth >= max_depth:
            return make_leaf(subset)
        split = selector.best_split(subset)
        if split is None:
            return make_leaf(subset)
        branches = partition(split, subset)
        if len(branches) < 2:
            return make_leaf(subset)
        children = {
            key: build(part, depth + 1) for key, part in branches.items()
        }
        node = InnerNode(
            split=split, children=children, counts=class_counts(subset)
        )
        leaf = make_leaf(subset)
        leaf_errors = leaf.errors + pessimistic_added_errors(
            leaf.coverage, leaf.errors, cf
        )
        if leaf_errors <= subtree_errors(node, cf) + 0.1:
            return leaf
        return node

    return build(list(instances), 0)
