"""Probabilistic binary classifiers over proposal features.

The default model is a bagged forest of binary decision trees: each tree
trains on a bootstrap resample of the same size, split search considers a
random subset of ceil(sqrt(d)) features per node and picks the split with
the best gini impurity decrease (candidate thresholds are midpoints of
consecutive sorted unique values; ties resolve to the lowest feature index,
then the lowest threshold). Nodes split until pure or below 2 samples, with
no depth limit. A leaf predicts its positive fraction and the forest
predicts the mean over trees, so outputs live in [0, 1].

The comparison model is a small rectifier MLP (hidden widths 50, 50, 20, 20,
logistic output) trained with minibatch adaptive-moment updates (step
1e-3, betas 0.9/0.999, batches of 32) on the binary cross-entropy; the
returned weights are those of the epoch with the best accuracy on a
stratified 20% held out of the training data.

Everything is deterministic given the seed: tree t uses seed + t, so trees
could be built in parallel without changing the result.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .coords import CoordSet
from .errors import (
    DimensionMismatch,
    InvalidModel,
    NonFiniteInput,
    NonFiniteLoss,
    SingleClass,
)
from .features import FeatureSpec, extract_features

FOREST_FORMAT = "probcell-forest"
MLP_FORMAT = "probcell-mlp"


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

@dataclass
class Tree:
    feature: np.ndarray    # int, -1 marks a leaf
    threshold: np.ndarray  # float
    left: np.ndarray       # int child index
    right: np.ndarray      # int child index
    n_pos: np.ndarray      # label counts reaching the node
    n_total: np.ndarray


@dataclass
class ForestModel:
    n_features: int
    trees: list[Tree]
    seed: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = _feature_rows(X, self.n_features)
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            acc += _tree_predict(tree, X)
        return acc / len(self.trees)


def _feature_rows(X, n_features: int) -> np.ndarray:
    """X as a finite float64 (n, n_features) matrix, or the matching error."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatch(
            f"expected {n_features} feature columns, got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = np.nonzero(~finite)[0]
        raise NonFiniteInput(f"feature rows {bad[:5].tolist()} hold NaN or infinite values")
    return X


def _gini_best_split(values: np.ndarray, labels: np.ndarray):
    """Best split along one feature as an exact rational impurity, or None.

    The weighted child gini equals 2/n * (posL*negL/nL + posR*negR/nR), so
    splits are compared through the integer fraction (num, den) of the
    bracketed term; exact arithmetic keeps the documented tie-break (lowest
    threshold, then lowest feature index at the caller) independent of float
    rounding. Thresholds are midpoints between consecutive distinct sorted
    values. Returns (num, den, threshold).
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = labels[order].astype(np.int64)
    boundary = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundary.size == 0:
        return None
    n = sv.size
    pos_prefix = np.cumsum(sy)
    n_left = boundary.astype(np.int64) + 1
    n_right = n - n_left
    pos_left = pos_prefix[boundary]
    pos_right = pos_prefix[-1] - pos_left
    neg_left = n_left - pos_left
    neg_right = n_right - pos_right
    num = pos_left * neg_left * n_right + pos_right * neg_right * n_left
    den = n_left * n_right
    score = num / den
    near = np.nonzero(score <= score.min() + 1e-9 * (1.0 + abs(score.min())))[0]
    best_k = None
    for k in near:  # exact fraction comparison over the float near-minimum set
        if best_k is None or int(num[k]) * int(den[best_k]) < int(num[best_k]) * int(den[k]):
            best_k = k
    b = boundary[best_k]
    thr = 0.5 * (sv[b] + sv[b + 1])
    if thr >= sv[b + 1]:  # adjacent floats: keep the split between the two values
        thr = sv[b]
    return int(num[best_k]), int(den[best_k]), float(thr)


def _build_tree(X, y, rng, n_sub):
    feature, threshold, left, right, n_pos, n_total = [], [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        n_pos.append(0.0)
        n_total.append(0.0)
        return len(feature) - 1

    d = X.shape[1]
    stack = [(new_node(), np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        labels = y[idx]
        pos = float(labels.sum())
        tot = float(idx.size)
        n_pos[node] = pos
        n_total[node] = tot
        if tot < 2 or pos == 0.0 or pos == tot:
            continue
        feats = np.sort(rng.choice(d, size=min(n_sub, d), replace=False))
        best = None
        for f in feats:
            found = _gini_best_split(X[idx, f], labels)
            if found is None:
                continue
            num, den, thr = found
            if best is None or num * best[1] < best[0] * den:
                best = (num, den, int(f), thr)
        if best is None:
            continue
        _, _, f, thr = best
        go_left = X[idx, f] <= thr
        li, ri = new_node(), new_node()
        feature[node] = f
        threshold[node] = thr
        left[node] = li
        right[node] = ri
        # push right first so the left branch is processed next (stable RNG order)
        stack.append((ri, idx[~go_left]))
        stack.append((li, idx[go_left]))
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        n_pos=np.asarray(n_pos, dtype=np.float64),
        n_total=np.asarray(n_total, dtype=np.float64),
    )


def _tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature[node] >= 0
    while active.any():
        idx = np.nonzero(active)[0]
        nd = node[idx]
        go_left = X[idx, tree.feature[nd]] <= tree.threshold[nd]
        node[idx] = np.where(go_left, tree.left[nd], tree.right[nd])
        active[idx] = tree.feature[node[idx]] >= 0
    return tree.n_pos[node] / tree.n_total[node]


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")


def train_forest(X, labels, seed: int, n_trees: int = 128) -> ForestModel:
    """Train the bagged gini forest; each split searches ceil(sqrt(d)) features."""
    _check_seed(seed)
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if np.unique(y).size < 2:
        raise SingleClass("need at least one example of each class")
    d = X.shape[1]
    n_sub = math.ceil(math.sqrt(d))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        idx = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(_build_tree(X[idx], y[idx], rng, n_sub))
    return ForestModel(n_features=d, trees=trees, seed=seed)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

DEFAULT_HIDDEN = (50, 50, 20, 20)
MLP_EPOCHS = 200
LEARNING_RATE = 1e-3
BETAS = (0.9, 0.999)
BATCH_SIZE = 32
VALIDATION_FRACTION = 0.2


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def logits(self, X: np.ndarray) -> np.ndarray:
        return _forward(self, _feature_rows(X, self.n_features))[1]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logits(X))


def _forward(model: MlpModel, X: np.ndarray):
    """The rectified activations, input first, and the output logits."""
    acts = [X]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    return acts, (acts[-1] @ model.weights[-1] + model.biases[-1]).ravel()


def _sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_mlp(n_features: int, seed: int, hidden=DEFAULT_HIDDEN) -> MlpModel:
    rng = np.random.default_rng(seed)
    sizes = [n_features, *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, seed=seed)


def mlp_loss_and_grads(model: MlpModel, X, y):
    """Mean binary cross-entropy and its gradients for every weight and bias."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    acts, z = _forward(model, X)
    # stable BCE on logits
    loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
    n = X.shape[0]
    delta = ((_sigmoid(z) - y) / n)[:, None]
    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    grad_w[-1] = acts[-1].T @ delta
    grad_b[-1] = delta.sum(axis=0)
    back = delta @ model.weights[-1].T
    for layer in range(len(model.weights) - 2, -1, -1):
        back = back * (acts[layer + 1] > 0)
        grad_w[layer] = acts[layer].T @ back
        grad_b[layer] = back.sum(axis=0)
        if layer > 0:
            back = back @ model.weights[layer].T
    return loss, grad_w, grad_b


def train_mlp(X, labels, seed: int, epochs: int = MLP_EPOCHS, hidden=DEFAULT_HIDDEN) -> MlpModel:
    """Minibatch adaptive-moment training, returning the best-validation epoch.

    A stratified VALIDATION_FRACTION of the training data is held out for
    epoch selection. epochs=0 returns the freshly initialized model.
    """
    _check_seed(seed)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if np.unique(y).size < 2:
        raise SingleClass("need at least one example of each class")
    model = init_mlp(X.shape[1], seed, hidden)
    if epochs == 0:
        return model
    rng = np.random.default_rng(seed)
    val_idx = []
    for cls in (0, 1):
        cls_idx = np.nonzero(y == cls)[0]
        cls_idx = cls_idx[rng.permutation(cls_idx.size)]
        take = int(round(VALIDATION_FRACTION * cls_idx.size))
        if cls_idx.size >= 2:
            take = max(take, 1)
        val_idx.extend(cls_idx[:take].tolist())
    val_mask = np.zeros(y.size, dtype=bool)
    val_mask[val_idx] = True
    if val_mask.all() or np.unique(y[~val_mask]).size < 2:
        raise SingleClass("not enough data to carve a validation split")
    X_tr, y_tr = X[~val_mask], y[~val_mask]
    X_val, y_val = X[val_mask], y[val_mask]

    b1, b2 = BETAS
    eps = 1e-8
    params = model.weights + model.biases  # each updated in place
    moments = [(np.zeros_like(q), np.zeros_like(q)) for q in params]
    step = 0
    best_acc = -1.0
    best = None
    n = X_tr.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            loss, grad_w, grad_b = mlp_loss_and_grads(model, X_tr[batch], y_tr[batch])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"training loss became {loss}")
            step += 1
            corr1 = 1.0 - b1**step
            corr2 = 1.0 - b2**step
            for q, (m, v), g in zip(params, moments, grad_w + grad_b):
                m[...] = b1 * m + (1 - b1) * g
                v[...] = b2 * v + (1 - b2) * g**2
                q -= LEARNING_RATE * (m / corr1) / (np.sqrt(v / corr2) + eps)
        acc = float(np.mean((model.predict_proba(X_val) >= 0.5) == (y_val == 1)))
        if acc > best_acc:
            best_acc = acc
            best = ([W.copy() for W in model.weights], [b.copy() for b in model.biases])
    model.weights, model.biases = best
    return model


# ---------------------------------------------------------------------------
# shared surface
# ---------------------------------------------------------------------------

def predict_proba(model, X) -> np.ndarray:
    """Probability per row from either model type; values in [0, 1]."""
    return model.predict_proba(np.asarray(X, dtype=np.float64))


def classify_proposals(
    model,
    maps,
    proposals: CoordSet,
    spec: FeatureSpec = FeatureSpec(),
) -> CoordSet:
    """Attach cell probabilities to proposals (positives are p >= 0.5)."""
    p = predict_proba(model, extract_features(maps, proposals, spec))
    return CoordSet(proposals.coords, p, proposals.dm_value)


def save_model(model, path) -> None:
    path = Path(path)
    if isinstance(model, ForestModel):
        payload = {
            "format": FOREST_FORMAT,
            "version": 1,
            "n_features": model.n_features,
            "seed": model.seed,
            "trees": [{f.name: getattr(t, f.name).tolist() for f in fields(Tree)}
                      for t in model.trees],
        }
    elif isinstance(model, MlpModel):
        payload = {
            "format": MLP_FORMAT,
            "version": 1,
            "seed": model.seed,
            "layers": [[int(W.shape[0]), int(W.shape[1])] for W in model.weights],
            "weights": [W.ravel().tolist() for W in model.weights],
            "biases": [b.tolist() for b in model.biases],
        }
    else:
        raise TypeError(f"unknown model type {type(model)!r}")
    path.write_text(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def load_model(path):
    """Read a saved model; malformed or inconsistent files raise InvalidModel."""
    try:
        payload = json.loads(Path(path).read_text())
        fmt = payload["format"]
        if fmt == FOREST_FORMAT:
            model = ForestModel(
                n_features=_json_int(payload["n_features"]),
                trees=[
                    Tree(
                        feature=_node_indices(t["feature"]),
                        threshold=np.asarray(t["threshold"], dtype=np.float64),
                        left=_node_indices(t["left"]),
                        right=_node_indices(t["right"]),
                        n_pos=np.asarray(t["n_pos"], dtype=np.float64),
                        n_total=np.asarray(t["n_total"], dtype=np.float64),
                    )
                    for t in payload["trees"]
                ],
                seed=_json_int(payload["seed"]),
            )
        elif fmt == MLP_FORMAT:
            model = MlpModel(
                weights=[
                    np.asarray(w, dtype=np.float64).reshape(shape)
                    for w, shape in zip(payload["weights"], payload["layers"], strict=True)
                ],
                biases=[np.asarray(b, dtype=np.float64) for b in payload["biases"]],
                seed=_json_int(payload["seed"]),
            )
        else:
            model = None
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModel(f"malformed model file: {exc!r}") from exc
    if isinstance(model, ForestModel):
        _check_forest(model)
    elif isinstance(model, MlpModel):
        _check_mlp(model)
    else:
        raise InvalidModel(f"unknown model format {fmt!r}")
    return model


def _json_int(value) -> int:
    """A JSON integer as it was written: int() would turn 4.9 into 4 and true into 1."""
    if type(value) is not int:
        raise TypeError(f"{value!r} must be a JSON integer")
    return value


def _node_indices(values) -> np.ndarray:
    """A JSON list of feature or child indices. A fixed int64 dtype would turn
    1.5 into 1, and numpy promotes true to 1 in a list of integers, so
    anything but plain integers is malformed."""
    arr = np.asarray(values)
    if arr.dtype.kind != "i" or any(isinstance(v, bool) for v in values):
        raise TypeError("feature and child indices must be integers")
    return arr


def _check_forest(model: ForestModel) -> None:
    """Trees that prediction can walk: forward in-range children, known
    features, finite thresholds and leaf fractions in [0, 1]."""
    if model.n_features < 1 or not model.trees:
        raise InvalidModel("a forest needs at least one feature and one tree")
    for k, t in enumerate(model.trees):
        n = t.feature.size
        arrays = (t.feature, t.threshold, t.left, t.right, t.n_pos, t.n_total)
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise InvalidModel(f"tree {k}: node arrays must be non-empty and of equal length")
        if np.any((t.feature < -1) | (t.feature >= model.n_features)):
            raise InvalidModel(f"tree {k}: feature index outside [-1, {model.n_features})")
        inner = t.feature >= 0
        node = np.arange(n)
        for child in (t.left, t.right):
            if np.any(inner & ((child <= node) | (child >= n))):
                raise InvalidModel(f"tree {k}: children must point forward and stay in range")
        if not np.isfinite(t.threshold[inner]).all():
            raise InvalidModel(f"tree {k}: thresholds must be finite")
        pos, total = t.n_pos[~inner], t.n_total[~inner]
        if not np.all((total > 0) & np.isfinite(total) & (pos >= 0) & (pos <= total)):
            raise InvalidModel(f"tree {k}: leaves need 0 <= n_pos <= n_total and n_total > 0")


def _check_mlp(model: MlpModel) -> None:
    """Layers that chain into one logit, with finite weights and biases."""
    if not model.weights or len(model.biases) != len(model.weights):
        raise InvalidModel("an MLP needs one bias vector per weight matrix")
    for k, (W, b) in enumerate(zip(model.weights, model.biases)):
        if k + 1 < len(model.weights) and W.shape[1] != model.weights[k + 1].shape[0]:
            raise InvalidModel(f"layer {k} output width does not match layer {k + 1} input")
        if b.shape != (W.shape[1],):
            raise InvalidModel(f"layer {k} bias length does not match its width")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise InvalidModel(f"layer {k} holds non-finite weights")
    if model.weights[-1].shape[1] != 1:
        raise InvalidModel("the last layer must have one output")
