import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from probcell import (
    CoordSet,
    FeatureSpec,
    classify_proposals,
    load_model,
    predict_proba,
    save_coords,
    save_model,
    save_volume,
    train_forest,
    train_mlp,
)
from probcell.classifier import ForestModel, Tree, _build_tree, init_mlp, mlp_loss_and_grads
from probcell.cli import main
from probcell.errors import (
    DimensionMismatch,
    InvalidModel,
    NonFiniteInput,
    NonFiniteLoss,
    SingleClass,
)

from conftest import vol
from oracles import (
    central_difference_gradient,
    exhaustive_best_split,
    loop_build_tree,
    reference_train_mlp,
)


def separable_1d(rng, n=60):
    neg = rng.uniform(-2.0, -0.2, size=(n // 2, 1))
    pos = rng.uniform(0.2, 2.0, size=(n // 2, 1))
    X = np.vstack([neg, pos])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return X, y


class TestForestTraining:
    def test_separable_data_memorized(self, rng):
        X, y = separable_1d(rng)
        model = train_forest(X, y, seed=7, n_trees=32)
        p = model.predict_proba(X)
        assert np.array_equal(p >= 0.5, y == 1)
        assert np.all((p <= 0.05) | (p >= 0.95))

    def test_contradictory_duplicates_predict_half(self, rng):
        base = rng.random((25, 3))
        X = np.vstack([base, base])
        y = np.concatenate([np.zeros(25), np.ones(25)])
        model = train_forest(X, y, seed=3)
        p = model.predict_proba(base)
        assert np.all(np.abs(p - 0.5) <= 0.1)

    def test_single_class_rejected(self, rng):
        with pytest.raises(SingleClass):
            train_forest(rng.random((10, 2)), np.ones(10), seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"n_trees": 0}, {"n_trees": -1},
        {"n_trees": True},  # trained one tree
        {"seed": 1.5},  # failed in numpy with a TypeError that named no setting
    ], ids=["0", "-1", "True", "seed=1.5"])
    def test_no_trees_rejected(self, rng, kwargs):
        X, y = separable_1d(rng)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            train_forest(X, y, **{"seed": 0, **kwargs})

    def test_deterministic_given_seed(self, rng):
        X = rng.random((40, 6))
        y = (X[:, 0] + 0.3 * rng.random(40) > 0.5).astype(int)
        p1 = train_forest(X, y, seed=11, n_trees=16).predict_proba(X)
        p2 = train_forest(X, y, seed=11, n_trees=16).predict_proba(X)
        assert np.array_equal(p1, p2)


def _assert_tree_matches_oracle(tree, X, y, node=0, idx=None):
    idx = np.arange(len(y)) if idx is None else idx
    labels = y[idx]
    if tree.feature[node] < 0:
        # leaf is legitimate when pure, too small, or unsplittable
        pure = labels.min() == labels.max()
        assert pure or idx.size < 2 or exhaustive_best_split(X[idx], labels) is None
        assert tree.n_total[node] == idx.size
        return
    best = exhaustive_best_split(X[idx], labels)
    assert best is not None
    _, want_f, want_thr = best
    assert tree.feature[node] == want_f
    assert tree.threshold[node] == pytest.approx(want_thr, rel=1e-12)
    go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
    _assert_tree_matches_oracle(tree, X, y, tree.left[node], idx[go_left])
    _assert_tree_matches_oracle(tree, X, y, tree.right[node], idx[~go_left])


class TestGiniOracle:
    def test_single_tree_matches_exhaustive_splits(self, rng):
        for trial in range(25):
            n = int(rng.integers(4, 9))
            X = rng.random((n, 2))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # one tree on the data as given: no bootstrap resample
            tree = _build_tree(X, y, np.random.default_rng(trial), 2)
            _assert_tree_matches_oracle(tree, X, y.astype(np.float64))


def _assert_trees_equal(got, want):
    for f in fields(Tree):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


def _loop_forest_trees(X, y, seed, n_trees):
    """The forest's trees grown with the per-feature split loop."""
    n_sub = math.ceil(math.sqrt(X.shape[1]))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(loop_build_tree(X[idx], y[idx], rng, n_sub))
    return trees


class TestOnePassSplitSearch:
    """Each node searches all its candidate features in one pass; the trees
    equal those of the per-feature loop it replaced, field by field."""

    def test_heavy_ties_equal_feature_loop(self):
        for case in range(200):
            rng = np.random.default_rng(case)
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 10))
            levels = int(rng.integers(1, 5))  # few distinct values: many ties
            X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
            if case % 4 == 0:  # adjacent floats, whose midpoint rounds up to the larger
                a = np.nextafter(1.0, 2.0)
                X[:, 0] = np.where(X[:, 0] > 0, np.nextafter(a, 2.0), a)
            y = rng.integers(0, 2, size=n)
            n_sub = int(rng.integers(1, d + 1))
            got = _build_tree(X, y, np.random.default_rng(case), n_sub)
            _assert_trees_equal(got, loop_build_tree(X, y, np.random.default_rng(case), n_sub))

    def test_pipeline_training_matrix_equals_feature_loop(self):
        from probcell.detect import NmsConfig
        from probcell.pipeline import _scene, _tiling_config, label_proposals, merge_config
        from probcell.synth import SynthSpec

        cfg = merge_config(None)
        spec = SynthSpec(seed=1000, **dict(cfg["train_scene"], shape=[48, 48, 48], n_cells=14))
        gt, proposals, X = _scene(spec, _tiling_config(cfg["tiling"]), NmsConfig(), True)
        y = label_proposals(proposals, gt, cfg["t_match_um"])
        assert X.shape[1] == 168 and 0 < y.sum() < y.size
        model = train_forest(X, y, seed=4, n_trees=6)  # forked: trees 0-2 in the child
        for got, want in zip(model.trees, _loop_forest_trees(X, y, 4, 6), strict=True):
            _assert_trees_equal(got, want)

    def test_forked_forest_equals_serial(self, rng, monkeypatch, tmp_path):
        X = rng.random((40, 6))
        y = (X[:, 0] + 0.3 * rng.random(40) > 0.5).astype(int)
        save_model(train_forest(X, y, seed=11, n_trees=9), tmp_path / "forked.json")
        monkeypatch.delattr(os, "fork")  # fork_join runs both halves here
        save_model(train_forest(X, y, seed=11, n_trees=9), tmp_path / "serial.json")
        assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


class TestForestPrediction:
    def test_single_tree_leaf_fraction(self, rng):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = ForestModel(1, [_build_tree(X, y, np.random.default_rng(1), 1)], seed=1)
        p = model.predict_proba(np.array([[0.5], [2.5]]))
        assert np.array_equal(p, [0.0, 1.0])

    def test_unanimous_trees_give_exact_one(self, rng):
        X, y = separable_1d(rng)
        model = train_forest(X, y, seed=5, n_trees=16)
        p = model.predict_proba(np.array([[5.0]]))  # deep in the positive region
        assert p[0] == 1.0

    def test_dimension_mismatch(self, rng):
        X, y = separable_1d(rng)
        model = train_forest(X, y, seed=0, n_trees=4)
        with pytest.raises(DimensionMismatch):
            model.predict_proba(rng.random((3, 2)))

    def test_monotone_feature_transform_invariance(self, rng):
        X = rng.random((30, 3))
        y = (X[:, 1] > 0.5).astype(int)
        X2 = X.copy()
        X2[:, 1] = np.exp(3.0 * X2[:, 1])  # strictly monotone
        test = rng.random((10, 3))
        test2 = test.copy()
        test2[:, 1] = np.exp(3.0 * test2[:, 1])
        p1 = train_forest(X, y, seed=2, n_trees=8).predict_proba(test)
        p2 = train_forest(X2, y, seed=2, n_trees=8).predict_proba(test2)
        assert np.allclose(p1, p2)


class TestMlp:
    def test_separable_clusters_perfect_heldout(self, rng):
        n = 80
        X = np.vstack([
            rng.normal(-2.0, 0.3, size=(n, 2)),
            rng.normal(2.0, 0.3, size=(n, 2)),
        ])
        y = np.concatenate([np.zeros(n), np.ones(n)])
        model = train_mlp(X, y, seed=0, epochs=40, hidden=(16, 8))
        holdout = np.vstack([
            rng.normal(-2.0, 0.3, size=(20, 2)),
            rng.normal(2.0, 0.3, size=(20, 2)),
        ])
        want = np.concatenate([np.zeros(20), np.ones(20)])
        acc = np.mean((model.predict_proba(holdout) >= 0.5) == (want == 1))
        assert acc == 1.0

    def test_zero_epochs_returns_initialized_model(self, rng):
        X = rng.random((50, 4))
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        means = []
        for seed in range(10):
            model = train_mlp(X, y, seed=seed, epochs=0)
            means.append(model.predict_proba(X).mean())
        assert abs(np.mean(means) - 0.5) < 0.1  # untrained logistic output
        model = train_mlp(X, y, seed=9, epochs=0)
        ref = init_mlp(4, seed=9)
        for a, b in zip(model.weights, ref.weights):
            assert np.array_equal(a, b)

    def test_gradients_match_finite_differences(self, rng):
        worst = 0.0
        for seed in range(20):
            g = np.random.default_rng(seed)
            model = init_mlp(3, seed=seed, hidden=(5, 4))
            X = g.normal(size=(6, 3))
            y = g.integers(0, 2, size=6).astype(float)
            _, grad_w, grad_b = mlp_loss_and_grads(model, X, y)
            for k in range(len(model.weights)):
                def f_w(v, k=k):
                    model.weights[k] = v
                    return mlp_loss_and_grads(model, X, y)[0]
                w0 = model.weights[k].copy()
                fd = central_difference_gradient(f_w, w0.copy(), h=1e-6)
                model.weights[k] = w0
                rel = np.linalg.norm(fd - grad_w[k]) / max(np.linalg.norm(grad_w[k]), 1e-12)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_nonfinite_loss_guard(self, rng):
        X = rng.random((20, 2))
        X[3, 1] = np.nan
        y = np.concatenate([np.zeros(10), np.ones(10)])
        with pytest.raises(NonFiniteLoss):
            train_mlp(X, y, seed=0, epochs=2, hidden=(4,))

    def test_single_class_rejected(self, rng):
        with pytest.raises(SingleClass):
            train_mlp(rng.random((10, 2)), np.zeros(10), seed=0)

    def test_negative_epochs_rejected(self, rng):
        X = rng.random((20, 2))
        y = np.arange(20) % 2
        for epochs in (-1, 1.5):  # 1.5 failed in numpy, naming no setting
            with pytest.raises(ValueError, match="epochs"):
                train_mlp(X, y, seed=0, epochs=epochs)

    @pytest.mark.parametrize("n, hidden", [
        (50, (6,)),         # 40 training rows: one full batch and a remainder of 8
        (85, (8, 5)),       # 68 rows: two full batches and a remainder of 4
        (80, (7, 6, 3)),    # 64 rows: two full batches, no remainder
        (30, (50, 50, 20, 20)),  # 24 rows: one short batch
    ])
    def test_weights_equal_layer_by_layer_loop(self, n, hidden):
        g = np.random.default_rng(n)
        X = g.normal(size=(n, 3))
        y = (X[:, 0] + 0.5 * g.normal(size=n) > 0).astype(float)
        model = train_mlp(X, y, seed=3, epochs=5, hidden=hidden)
        weights, biases = reference_train_mlp(X, y, seed=3, epochs=5, hidden=hidden)
        for got, want in zip(model.weights + model.biases, weights + biases, strict=True):
            assert got.tobytes() == want.tobytes()


class TestSerialization:
    def test_forest_round_trip_bit_identical(self, rng, tmp_path):
        X = rng.random((40, 5))
        y = (X[:, 2] > 0.4).astype(int)
        model = train_forest(X, y, seed=4, n_trees=8)
        save_model(model, tmp_path / "forest.json")
        back = load_model(tmp_path / "forest.json")
        test = rng.random((25, 5))
        assert np.array_equal(model.predict_proba(test), back.predict_proba(test))
        payload = json.loads((tmp_path / "forest.json").read_text())
        assert payload["format"] == "probcell-forest" and payload["version"] == 1

    def test_mlp_round_trip_bit_identical(self, rng, tmp_path):
        X = rng.random((30, 3))
        y = (X[:, 0] > 0.5).astype(int)
        model = train_mlp(X, y, seed=4, epochs=3, hidden=(6, 4))
        save_model(model, tmp_path / "mlp.json")
        back = load_model(tmp_path / "mlp.json")
        test = rng.random((12, 3))
        assert np.array_equal(model.predict_proba(test), back.predict_proba(test))


def _stump(**changes):
    """A one-split forest on feature 0 of 2, with some node arrays replaced."""
    tree = {
        "feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
        "left": [1, -1, -1], "right": [2, -1, -1],
        "n_pos": [0.0, 0.0, 1.0], "n_total": [2.0, 1.0, 1.0],
    }
    tree.update(changes)
    return {"format": "probcell-forest", "version": 1, "n_features": 2, "seed": 0,
            "trees": [tree]}


MALFORMED_FORESTS = {
    "two_node_cycle": _stump(feature=[0, 0, -1], left=[1, 0, -1], right=[1, 0, -1]),
    "child_out_of_range": _stump(right=[5, -1, -1]),
    "bad_feature_index": _stump(feature=[2, -1, -1]),
    "zero_leaf_count": _stump(n_total=[2.0, 0.0, 1.0], n_pos=[0.0, 0.0, 1.0]),
    "unequal_lengths": _stump(threshold=[0.5, 0.0]),
    "leaf_fraction_above_one": _stump(n_pos=[0.0, 0.0, 2.0]),
    # each of these used to load as a valid stump: 1.5 -> 1, 0.5 -> 0, true -> 1
    "float_child_index": _stump(left=[1.5, -1, -1]),
    "float_feature_index": _stump(feature=[0.5, -1, -1]),
    "boolean_child_index": _stump(right=[True, -1, -1]),
    # and these as n_features 4 and seed 1
    "float_n_features": {**_stump(), "n_features": 4.9},
    "boolean_seed": {**_stump(), "seed": True},
}


class TestModelValidation:
    def test_valid_stump_loads_and_predicts(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps(_stump()))
        model = load_model(tmp_path / "m.json")
        assert np.array_equal(model.predict_proba(np.array([[0.0, 9.0], [1.0, 9.0]])), [0.0, 1.0])

    @pytest.mark.parametrize("case", sorted(MALFORMED_FORESTS))
    def test_malformed_forest_rejected_on_load(self, case, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps(MALFORMED_FORESTS[case]))
        with pytest.raises(InvalidModel):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("case", ["two_node_cycle", "child_out_of_range",
                                      "bad_feature_index", "zero_leaf_count",
                                      "float_child_index", "float_feature_index",
                                      "boolean_child_index"])
    def test_classify_cli_exit_1_with_json(self, case, tmp_path, capsys):
        (tmp_path / "m.json").write_text(json.dumps(MALFORMED_FORESTS[case]))
        save_volume(vol(np.ones((8, 8, 8))), tmp_path / "dm")
        save_coords(CoordSet(np.array([[4.5, 4.5, 4.5]])), tmp_path / "p.csv")
        rc = main([
            "classify", "--model", str(tmp_path / "m.json"), "--dm", str(tmp_path / "dm"),
            "--proposals", str(tmp_path / "p.csv"), "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "InvalidModel"
        assert not (tmp_path / "c.csv").exists()

    def test_mlp_layers_must_chain(self, rng, tmp_path):
        model = train_mlp(rng.random((30, 3)), np.arange(30) % 2, seed=0, epochs=1, hidden=(4,))
        save_model(model, tmp_path / "mlp.json")
        payload = json.loads((tmp_path / "mlp.json").read_text())
        payload["layers"][1] = [2, 2]
        payload["weights"][1] = payload["weights"][1][:4]
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(InvalidModel):
            load_model(tmp_path / "bad.json")

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    def test_mlp_seed_must_be_json_integer(self, rng, tmp_path, seed):
        model = train_mlp(rng.random((30, 3)), np.arange(30) % 2, seed=0, epochs=1, hidden=(4,))
        save_model(model, tmp_path / "mlp.json")
        payload = json.loads((tmp_path / "mlp.json").read_text())
        payload["seed"] = seed
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(InvalidModel):
            load_model(tmp_path / "bad.json")

    @pytest.mark.parametrize("version", [None, 2, 7, True, 1.0, "1"])
    @pytest.mark.parametrize("kind", ["forest", "mlp"])
    def test_version_must_be_json_integer_one(self, rng, tmp_path, kind, version):
        # the version was never read: a forest of version 7 loaded and predicted
        if kind == "forest":
            payload = _stump()
        else:
            model = train_mlp(rng.random((30, 3)), np.arange(30) % 2, seed=0, epochs=1)
            save_model(model, tmp_path / "mlp.json")
            payload = json.loads((tmp_path / "mlp.json").read_text())
        (tmp_path / "good.json").write_text(json.dumps(payload))
        load_model(tmp_path / "good.json")
        payload["version"] = version
        if version is None:
            del payload["version"]
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(InvalidModel, match="version"):
            load_model(tmp_path / "bad.json")

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"format": "other"}',
                                      '{"format": "probcell-forest"}'])
    def test_unreadable_payload_rejected(self, text, tmp_path):
        (tmp_path / "m.json").write_text(text)
        with pytest.raises(InvalidModel):
            load_model(tmp_path / "m.json")


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_forest_rejects_non_finite_row(self, rng, bad):
        X, y = separable_1d(rng)
        model = train_forest(X, y, seed=0, n_trees=4)
        rows = np.array([[0.5], [bad], [-0.5]])
        with pytest.raises(NonFiniteInput):
            predict_proba(model, rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mlp_rejects_non_finite_row(self, rng, bad):
        X, y = separable_1d(rng)
        model = train_mlp(X, y, seed=0, epochs=1)
        with pytest.raises(NonFiniteInput):
            predict_proba(model, np.array([[bad]]))


class TestClassifyProposals:
    def test_empty_proposals(self, rng):
        model = train_forest(rng.random((30, 56)), np.array([0, 1] * 15), seed=0, n_trees=4)
        empty = CoordSet(np.zeros((0, 3)), dm_value=np.zeros(0))
        out = classify_proposals(model, [("dm", vol(rng.random((8, 8, 8))))], empty)
        assert len(out) == 0
        for column in (out.p, out.dm_value):
            assert column.dtype == np.float64 and column.shape == (0,)

    def test_feature_width_contract(self, rng):
        maps3 = [
            ("dm", vol(rng.random((12, 12, 12)))),
            ("u_a", vol(rng.random((12, 12, 12)))),
            ("u_e", vol(rng.random((12, 12, 12)))),
        ]
        proposals = CoordSet(rng.random((6, 3)) * 8 + 2)
        from probcell import extract_features

        X = extract_features([maps3[0]], proposals, FeatureSpec())  # dm-only, d = 56
        y = np.array([0, 1] * 3)
        model = train_forest(X, y, seed=0, n_trees=4)
        with pytest.raises(DimensionMismatch):
            classify_proposals(model, maps3, proposals)  # d = 168 vs 56

    def test_probabilities_attached(self, rng):
        maps = [("dm", vol(rng.random((12, 12, 12))))]
        proposals = CoordSet(rng.random((6, 3)) * 8 + 2, dm_value=rng.random(6))
        X_train = rng.random((30, 56))
        y_train = np.array([0, 1] * 15)
        model = train_forest(X_train, y_train, seed=0, n_trees=4)
        out = classify_proposals(model, maps, proposals)
        assert len(out) == 6
        assert out.p is not None and np.all((out.p >= 0) & (out.p <= 1))
        assert np.array_equal(out.dm_value, proposals.dm_value)


class TestMoreDataHelps:
    def test_brier_does_not_degrade_with_more_data(self):
        briers = {100: [], 2000: []}
        for seed in range(10):
            g = np.random.default_rng(1000 + seed)

            def make(n):
                y = g.integers(0, 2, size=n)
                X = g.normal(0, 1, size=(n, 4))
                X[:, 0] += 1.2 * (2 * y - 1)  # overlapping informative feature
                return X, y

            X_test, y_test = make(1500)
            for n in (100, 2000):
                X, y = make(n)
                model = train_forest(X, y, seed=seed, n_trees=24)
                p = model.predict_proba(X_test)
                briers[n].append(float(np.mean((p - y_test) ** 2)))
        assert np.median(briers[2000]) <= np.median(briers[100]) + 0.02
