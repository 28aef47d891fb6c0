"""The coded PART learner returns the scalar learner's rule list exactly.

``repro.core.part`` learns on int codes and index arrays; the oracle in
``part_oracle.py`` walks instance objects.  For every input the two must
emit the same rules in the same order -- same rendering, prediction,
coverage and errors -- which pins down split choice, tie-breaks, the
branch expansion order and the pessimistic-pruning arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import (
    TABLE_XV_SCHEMA,
    AttributeKind,
    AttributeSpec,
    Instance,
    TrainingSet,
)
from repro.core.decision_tree import (
    DecisionTree,
    EncodedInstances,
    SplitSelector,
    class_counts,
    entropy,
)
from repro.core.part import PartLearner
from repro.pipeline import build_session
from repro.synth.world import WorldConfig

from .part_oracle import ScalarPartLearner, ScalarSplitSelector, scalar_tree


def _rule_rows(rules):
    return [
        (rule.render(), rule.prediction, rule.coverage, rule.errors)
        for rule in rules
    ]


def _shape(node):
    """A tree as nested tuples, children in dict order."""
    if node.is_leaf:
        return ("leaf", node.prediction, node.coverage, node.errors)
    return (
        "node", node.split, dict(node.counts),
        tuple((key, _shape(child)) for key, child in node.children.items()),
    )


#: Two Table XV names (sentinel renderings), a free-form categorical, and
#: a numeric attribute: few distinct values each, so ties are everywhere.
MIXED_SCHEMA = (
    AttributeSpec("file_signer"),
    AttributeSpec("proc_type"),
    AttributeSpec("packer"),
    AttributeSpec("size", AttributeKind.NUMERIC),
)


def _random_instances(seed: int, count: int):
    rng = np.random.default_rng(seed)
    signers = ["<unsigned>", "Somoto", "Firseria", "Google", "TeamViewer"]
    types = ["browser", "java", "windows", "unknown-process"]
    # From a handful of packers up to dozens: many-branch splits, where
    # the order of the entropy sums shows in the last bits.
    packers = [f"packer{i}" for i in range(3 + 5 * (seed % 6))]
    instances = []
    for _ in range(count):
        signer = int(rng.integers(len(signers)))
        kind = int(rng.integers(len(types)))
        size = float(rng.integers(6)) / 2.0
        noisy = rng.random() < 0.25
        malicious = (signer in (1, 2) or (signer == 0 and kind == 3)) != noisy
        instances.append(Instance(
            values=(
                signers[signer],
                types[kind],
                packers[int(rng.integers(len(packers)))],
                size,
            ),
            label="malicious" if malicious else "benign",
        ))
    return instances


SETTINGS = [
    dict(),
    dict(prune=True),
    dict(max_depth=1),
    dict(max_depth=2, prune=True),
    dict(max_rules=3),
    dict(min_instances=1),
    dict(min_instances=4, max_depth=3),
]


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("options", SETTINGS)
    def test_rule_lists_identical(self, seed, options):
        instances = _random_instances(seed, count=40 + 37 * seed)
        expected = ScalarPartLearner(MIXED_SCHEMA, **options).fit(instances)
        learned = PartLearner(MIXED_SCHEMA, **options).fit(instances)
        assert _rule_rows(learned) == _rule_rows(expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_split_choice_identical(self, seed):
        instances = _random_instances(100 + seed, count=30 + 11 * seed)
        for min_instances in (1, 2, 5):
            assert SplitSelector(MIXED_SCHEMA, min_instances).best_split(
                instances
            ) == ScalarSplitSelector(MIXED_SCHEMA, min_instances).best_split(
                instances
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_gains_bit_equal(self, seed):
        # Subsets of a coded set see their branches in another order than
        # the codes were assigned in: the sums must still follow the
        # subset's first-seen order, down to the last bit.
        instances = _random_instances(300 + seed, count=400)
        data = EncodedInstances(MIXED_SCHEMA, instances)
        coded = SplitSelector(MIXED_SCHEMA)
        scalar = ScalarSplitSelector(MIXED_SCHEMA)
        rng = np.random.default_rng(seed)
        compared = 0
        for _ in range(20):
            rows = np.flatnonzero(rng.random(len(instances)) < 0.5)
            subset = [instances[i] for i in rows]
            base = entropy(class_counts(subset))
            labels = data.malicious[rows]
            for index in range(3):
                expected = scalar._categorical_candidate(subset, index, base)
                got = coded._categorical_candidate(
                    data, rows, labels, index, base
                )
                assert (got is None) == (expected is None)
                if got is not None:
                    assert (got.gain, got.ratio) == expected[:2]
                    compared += 1
        assert compared > 20

    @pytest.mark.parametrize("seed", range(4))
    def test_decision_tree_identical(self, seed):
        instances = _random_instances(200 + seed, count=60 + 50 * seed)
        tree = DecisionTree(MIXED_SCHEMA).fit(instances)
        assert _shape(tree.root) == _shape(scalar_tree(MIXED_SCHEMA, instances))

    def test_numeric_only_schema(self):
        schema = (AttributeSpec("x", AttributeKind.NUMERIC),)
        instances = [
            Instance(values=(float(v % 7),),
                     label="malicious" if v % 3 else "benign")
            for v in range(50)
        ]
        for prune in (False, True):
            assert _rule_rows(PartLearner(schema, prune=prune).fit(
                instances
            )) == _rule_rows(ScalarPartLearner(schema, prune=prune).fit(
                instances
            ))


class TestSessionMonths:
    """The six training months of a scale-0.02 session."""

    def test_rule_lists_identical(self):
        session = build_session(WorldConfig(seed=7, scale=0.02), cache=False)
        for month in range(6):
            training = TrainingSet.from_labeled(
                session.labeled.month_slice(month), session.alexa
            )
            expected = ScalarPartLearner(training.schema).fit(
                training.instances
            )
            learned = PartLearner(TABLE_XV_SCHEMA).fit(training.instances)
            assert len(learned) > 100
            assert _rule_rows(learned) == _rule_rows(expected), month
            if month == 0:
                tree = DecisionTree(TABLE_XV_SCHEMA).fit(training.instances)
                assert _shape(tree.root) == _shape(
                    scalar_tree(TABLE_XV_SCHEMA, training.instances)
                )
