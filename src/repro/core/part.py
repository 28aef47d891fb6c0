"""The PART rule learner (Frank & Witten, ICML 1998).

PART combines separate-and-conquer rule learning with partial C4.5
decision trees:

1. build a *partial* tree on the remaining instances -- subsets of each
   split are expanded in order of increasing entropy, expansion stops as
   soon as an expanded subtree cannot be replaced by a leaf, and subtree
   replacement uses C4.5's pessimistic error estimate;
2. the developed leaf covering the most instances becomes a rule (the
   conjunction of the tests on its path);
3. instances covered by the rule are removed and the process repeats.

The result is an ordered rule list ending in a default rule.  The paper
uses the learned rules as an *unordered* set with conflict rejection
(Section VI-D); that policy lives in :mod:`repro.core.classifier`.

The learner works on the int-coded matrix of
:class:`~repro.core.decision_tree.EncodedInstances`, built once per
:meth:`PartLearner.fit`.  A tree node is an array of row indices and its
branch statistics come from the split selector's bincounts; a branch
that is pure, smaller than ``2 * min_instances`` or at ``max_depth``
becomes a leaf without its rows ever being sliced out.  A partial tree
is never materialised: expansion keeps only the developed leaves that
could still be the best one.  Coverage removal and the restatement of
every rule on the full training set are boolean masks.  The rule list is
the one the instance-by-instance learner in ``tests/core/part_oracle.py``
returns, rule for rule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace
from .dataset import (
    BENIGN_CLASS,
    MALICIOUS_CLASS,
    AttributeKind,
    AttributeSpec,
    Instance,
)
from .decision_tree import (
    DEFAULT_CF,
    DEFAULT_MIN_INSTANCES,
    EncodedInstances,
    Split,
    SplitSelector,
    added_errors,
    binary_entropy,
    leaf_errors,
)
from .rules import Condition, Rule, RuleSet

#: One branch taken on the way to a leaf: the split and the branch id.
Step = Tuple[Split, int]


class _BestLeaves:
    """The developed leaves of a subtree that rank first so far.

    Leaves rank by (larger coverage, lower error rate, shorter path); the
    ``entries`` tied on that key are kept in tree order as
    ``(path, branch step, predicts malicious)`` for the final tie-break
    on the rendered conditions.
    """

    __slots__ = ("key", "entries")

    def __init__(self) -> None:
        self.key: Optional[Tuple[int, float, int]] = None
        self.entries: List[Tuple[Tuple[Step, ...], Step, bool]] = []

    def offer(self, key: Tuple[int, float, int], entries) -> None:
        if self.key is None or key < self.key:
            self.key = key
            self.entries = list(entries)
        elif key == self.key:
            self.entries.extend(entries)


class PartLearner:
    """Learns an ordered rule list from labeled instances."""

    def __init__(
        self,
        schema: Sequence[AttributeSpec],
        min_instances: int = DEFAULT_MIN_INSTANCES,
        cf: float = DEFAULT_CF,
        max_depth: int = 30,
        max_rules: int = 10_000,
        prune: bool = False,
    ) -> None:
        """``prune`` enables C4.5 subtree replacement inside the partial
        trees.  The paper's deployment keeps the fine-grained per-signer
        leaves and filters rules afterwards by training error (the tau
        threshold of Section VI-D), which corresponds to ``prune=False``;
        pessimistic replacement is available for ablation."""
        self.schema = tuple(schema)
        self.min_instances = min_instances
        self.cf = cf
        self.max_depth = max_depth
        self.max_rules = max_rules
        self.prune = prune
        self._selector = SplitSelector(schema, min_instances)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def fit(self, instances: Sequence[Instance]) -> RuleSet:
        """Learn rules until every instance is covered.

        The separate-and-conquer loop extracts each rule from the
        *remaining* instances, but the returned rules carry coverage and
        error statistics re-measured on the **full** training set: a rule
        extracted late (e.g. "file is not signed -> malicious" after all
        signed files were removed) would otherwise look spuriously clean,
        and the Section VI-D tau filter would keep broad, error-prone
        rules.
        """
        with trace.span("core.part_fit", instances=len(instances)) as span:
            rules: List[Rule] = []
            data = EncodedInstances(self.schema, instances)
            labels = data.malicious.astype(bool)
            remaining = np.arange(data.size)
            while remaining.shape[0] and len(rules) < self.max_rules:
                malicious = int(np.count_nonzero(labels[remaining]))
                benign = remaining.shape[0] - malicious
                best = self._expand(
                    data, remaining, benign, malicious, 0, ()
                )
                if best is None:
                    path: Tuple[Step, ...] = ()
                    predicts_malicious = malicious > benign
                else:
                    path, predicts_malicious = self._pick(data, best)
                covered = np.ones(data.size, dtype=bool)
                for split, branch in path:
                    covered &= data.branch_mask(split, branch)
                wrong = labels != predicts_malicious
                rules.append(Rule(
                    conditions=self._conditions(data, path),
                    prediction=(
                        MALICIOUS_CLASS if predicts_malicious
                        else BENIGN_CLASS
                    ),
                    coverage=int(np.count_nonzero(covered)),
                    errors=int(np.count_nonzero(covered & wrong)),
                ))
                before = remaining.shape[0]
                remaining = remaining[~covered[remaining]]
                if remaining.shape[0] == before:
                    raise AssertionError(
                        "PART extracted a rule covering no instances; "
                        "this indicates a partition/condition mismatch"
                    )
            span.set_attribute("rules", len(rules))
        obs_metrics.counter(
            "rules.learned", "PART rules extracted across all fits"
        ).inc(len(rules))
        return RuleSet(rules)

    # ------------------------------------------------------------------
    # Partial tree expansion
    # ------------------------------------------------------------------

    def _expand(
        self,
        data: EncodedInstances,
        rows: np.ndarray,
        benign: int,
        malicious: int,
        depth: int,
        path: Tuple[Step, ...],
    ) -> Optional[_BestLeaves]:
        """Expand a partial tree: entropy-ordered subset expansion with
        stop-on-unreplaceable-subtree, per Frank & Witten.

        Returns ``None`` when the node ends up a developed leaf, else the
        best developed leaves of its subtree.
        """
        if depth >= self.max_depth:
            return None
        choice = self._selector.choose(data, rows, benign, malicious)
        if choice is None:
            return None
        split = choice.split
        ben = choice.benign
        mal = choice.malicious
        entropies = np.zeros(ben.shape[0])
        mixed = np.flatnonzero((ben > 0) & (mal > 0))
        entropies[mixed] = [
            binary_entropy(b, m)
            for b, m in zip(ben[mixed].tolist(), mal[mixed].tolist())
        ]
        if split.kind == AttributeKind.CATEGORICAL:
            key_rank = data.key_rank[split.attribute][choice.branches]
        else:
            key_rank = choice.branches  # "<=" (0) sorts before ">" (1)
        order = np.lexsort((key_rank, entropies))
        branches = choice.branches[order]
        ben = ben[order]
        mal = mal[order]
        size = ben + mal
        errors = np.where(mal > ben, ben, mal)
        rate = errors / size
        best = _BestLeaves()
        length = depth + 1
        if length >= self.max_depth:
            expandable: List[int] = []
        else:
            expandable = np.flatnonzero(
                (ben > 0) & (mal > 0) & (size >= 2 * self.min_instances)
            ).tolist()

        def offer_leaves(start: int, stop: int) -> None:
            # Siblings share the path length: rank by coverage, then rate.
            if start >= stop:
                return
            top = int(size[start:stop].max())
            if best.key is not None and -top > best.key[0]:
                return
            widest = np.flatnonzero(size[start:stop] == top) + start
            low = float(rate[widest].min())
            tied = widest[rate[widest] == low].tolist()
            best.offer(
                (-top, low, length),
                [
                    (path, (split, int(branches[p])), bool(mal[p] > ben[p]))
                    for p in tied
                ],
            )

        start = 0
        for position in expandable:
            offer_leaves(start, position)
            step = (split, int(branches[position]))
            child = self._expand(
                data,
                rows[choice.assign == branches[position]],
                int(ben[position]),
                int(mal[position]),
                length,
                path + (step,),
            )
            if child is not None:
                # An expanded subtree survived replacement: stop here and
                # leave the remaining subsets undeveloped.
                best.offer(child.key, child.entries)
                return best
            start = position  # the child is a leaf: it joins the next run
        offer_leaves(start, branches.shape[0])
        if not self.prune:
            return best
        cf = self.cf
        subtree = sum([
            e + added_errors(s, e, cf)
            for s, e in zip(size.tolist(), errors.tolist())
        ])
        node_errors = leaf_errors(benign, malicious)
        collapsed = node_errors + added_errors(
            benign + malicious, node_errors, cf
        )
        if collapsed <= subtree + 0.1:
            return None
        return best

    # ------------------------------------------------------------------
    # Rule extraction
    # ------------------------------------------------------------------

    def _pick(
        self, data: EncodedInstances, best: _BestLeaves
    ) -> Tuple[Tuple[Step, ...], bool]:
        """The best developed leaf's path and class.

        Ties on (coverage, error rate, path length) go to the
        lexicographically smallest condition rendering, then to the
        leaf met first in the tree (determinism).
        """
        candidates = [
            (path + (step,), predicts_malicious)
            for path, step, predicts_malicious in best.entries
        ]
        if len(candidates) == 1:
            return candidates[0]
        return min(
            candidates,
            key=lambda candidate: tuple(
                condition.render()
                for condition in self._conditions(data, candidate[0])
            ),
        )

    def _conditions(
        self, data: EncodedInstances, path: Tuple[Step, ...]
    ) -> Tuple[Condition, ...]:
        conditions = []
        for split, branch in path:
            key = data.branch_key(split, branch)
            categorical = split.kind == AttributeKind.CATEGORICAL
            conditions.append(Condition(
                feature=self.schema[split.attribute].name,
                attribute=split.attribute,
                kind=split.kind,
                operator="==" if categorical else key,
                value=key if categorical else split.threshold,
            ))
        return tuple(conditions)
