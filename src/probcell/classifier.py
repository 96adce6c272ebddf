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

Everything is deterministic given the seed: tree t uses seed + t, so the
two halves of the forest are built in two processes with the same result.
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
    check_int,
)
from .features import FeatureSpec, extract_features
from .cores import on_two_processes

FOREST_FORMAT = "probcell-forest"
MLP_FORMAT = "probcell-mlp"
# the least tree and epoch counts (epochs=0 returns the initialized MLP)
MIN_TREES = 1
MIN_EPOCHS = 0


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


# Tree's column types in its field order; the integer columns are node indices
TREE_DTYPES = (np.int64, np.float64, np.int64, np.int64, np.float64, np.float64)


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


def _best_split(values: np.ndarray, labels: np.ndarray):
    """Best gini split over the columns of values, as (column, threshold), or None.

    The weighted child gini is 2/n * (posL*negL/nL + posR*negR/nR). All
    columns are sorted and counted at once; float scores pick each column's
    near-minimum set, and the exact integer fractions num/den of the bracket
    decide, so the tie-break (lowest column, then lowest threshold) does not
    depend on rounding. Thresholds are midpoints of consecutive distinct values.
    """
    m = values.shape[0]
    order = np.argsort(values, axis=0, kind="stable")
    sv = np.take_along_axis(values, order, axis=0)
    pos_left = np.cumsum(labels[order], axis=0)[:-1]  # (m - 1, k) int64
    n_left = np.arange(1, m, dtype=np.int64)[:, None]
    n_right = m - n_left
    pos_right = int(labels.sum()) - pos_left
    num = pos_left * (n_left - pos_left) * n_right + pos_right * (n_right - pos_right) * n_left
    den = np.broadcast_to(n_left * n_right, num.shape)
    boundary = sv[:-1] < sv[1:]
    score = np.where(boundary, num / den, np.inf)
    low = score.min(axis=0)
    near = boundary & (score <= low + 1e-9 * (1.0 + np.abs(low)))
    best = None
    for c, b in zip(*np.nonzero(near.T)):  # column-major: the tie-break order
        frac = int(num[b, c]), int(den[b, c])
        if best is None or frac[0] * best[1] < best[0] * frac[1]:
            best = (*frac, c, b)
    if best is None:
        return None
    _, _, c, b = best
    thr = 0.5 * (sv[b, c] + sv[b + 1, c])
    if thr >= sv[b + 1, c]:  # adjacent floats: keep the split between the two values
        thr = sv[b, c]
    return c, float(thr)


def _build_tree(X, y, rng, n_sub):
    # one row per node, in Tree's field order; feature -1 marks a leaf
    leaf = [-1, 0.0, -1, -1, 0.0, 0.0]
    nodes = [leaf.copy()]
    d = X.shape[1]
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        labels = y[idx]
        pos = float(labels.sum())
        tot = float(idx.size)
        nodes[node][4:] = pos, tot
        if tot < 2 or pos == 0.0 or pos == tot:
            continue
        feats = np.sort(rng.choice(d, size=min(n_sub, d), replace=False))
        found = _best_split(X[np.ix_(idx, feats)], labels)
        if found is None:
            continue
        f, thr = int(feats[found[0]]), found[1]
        go_left = X[idx, f] <= thr
        li, ri = len(nodes), len(nodes) + 1
        nodes[node][:4] = f, thr, li, ri
        nodes += [leaf.copy(), leaf.copy()]
        # push right first so the left branch is processed next (stable RNG order)
        stack.append((ri, idx[~go_left]))
        stack.append((li, idx[go_left]))
    return Tree(*(np.asarray(column, dtype=kind) for column, kind in zip(zip(*nodes), TREE_DTYPES)))


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


def train_forest(X, labels, seed: int, n_trees: int = 128) -> ForestModel:
    """Train the bagged gini forest; each split searches ceil(sqrt(d)) features."""
    seed = check_int(seed, "seed")
    n_trees = check_int(n_trees, "n_trees", MIN_TREES)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if np.unique(y).size < 2:
        raise SingleClass("need at least one example of each class")
    d = X.shape[1]
    n_sub = math.ceil(math.sqrt(d))

    def build(first: int, stop: int) -> list[Tree]:
        trees = []
        for t in range(first, stop):
            rng = np.random.default_rng(seed + t)
            idx = rng.integers(0, X.shape[0], size=X.shape[0])
            trees.append(_build_tree(X[idx], y[idx], rng, n_sub))
        return trees

    first, second = on_two_processes(build, n_trees)
    return ForestModel(n_features=d, trees=first + second, seed=seed)


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

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(_forward(self, _feature_rows(X, self.n_features))[1])


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
    seed = check_int(seed, "seed")
    epochs = check_int(epochs, "epochs", MIN_EPOCHS)
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
        if type(payload["version"]) is not int or payload["version"] != 1:  # not true, 1.0, "1"
            raise ValueError(f"model version {payload['version']!r} is not the integer 1")
        if fmt == FOREST_FORMAT:
            model = ForestModel(
                n_features=check_int(payload["n_features"], "n_features", 1),
                trees=[
                    Tree(*(
                        _node_indices(t[f.name]) if kind is np.int64
                        else np.asarray(t[f.name], dtype=kind)
                        for f, kind in zip(fields(Tree), TREE_DTYPES)
                    ))
                    for t in payload["trees"]
                ],
                seed=check_int(payload["seed"], "seed"),
            )
        elif fmt == MLP_FORMAT:
            model = MlpModel(
                weights=[
                    np.asarray(w, dtype=np.float64).reshape(shape)
                    for w, shape in zip(payload["weights"], payload["layers"], strict=True)
                ],
                biases=[np.asarray(b, dtype=np.float64) for b in payload["biases"]],
                seed=check_int(payload["seed"], "seed"),
            )
        else:
            model = None
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InvalidModel(f"malformed model file: {exc!r}") from exc
    if isinstance(model, ForestModel):
        _check_forest(model)
    elif isinstance(model, MlpModel):
        _check_mlp(model)
    else:
        raise InvalidModel(f"unknown model format {fmt!r}")
    return model


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
    if not model.trees:
        raise InvalidModel("a forest needs at least one tree")
    for k, t in enumerate(model.trees):
        n = t.feature.size
        if n == 0 or any(getattr(t, f.name).shape != (n,) for f in fields(Tree)):
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
