"""Helpers that more than one test module uses."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from ctiv import estimate_leaf, export_json, trim_by_propensity


def _unadjusted_tree_payload(tree, ds, trim=(0.1, 0.9)):
    """The ``"tree"`` payload of an iv-unconfounded fit of ``ds``, with each
    leaf's estimate rebuilt by ``estimate_leaf`` on that leaf's rows of the
    fit's pooled (trimmed) sample, its TSLS unadjusted.

    Each leaf's covariate-adjusted rebuild must first equal the fitted
    leaf bit for bit, so the rows and probabilities are the fit's own.
    """
    e = tree.propensity.predict_many(ds.covariates)
    pooled, kept = trim_by_propensity(ds, e, *trim)
    e = e[kept]
    ids = tree.assign_leaves(pooled.covariates)
    fitted = tree.leaf_map
    payload = json.loads(export_json(tree))["tree"]
    stack = [payload]
    while stack:
        node = stack.pop()
        if "estimate" not in node:
            stack += [node["left"], node["right"]]
            continue
        leaf = node["node_id"]
        rows = np.flatnonzero(ids == leaf)
        args = (leaf, pooled.y[rows], pooled.z[rows], pooled.w[rows],
                tree.regime_kind, e[rows])
        assert estimate_leaf(*args, pooled.covariates[rows]) == fitted[leaf]
        node["estimate"] = asdict(estimate_leaf(*args))
    return payload


@pytest.fixture
def unadjusted_tree_payload():
    return _unadjusted_tree_payload
