import itertools
import json
import math
import re
import threading
import warnings

import numpy as np
import pytest
from scipy import special

from xdiff import benchmarks as bm
from xdiff import mlp
from xdiff.autodiff import GELU, CrossDual
from xdiff.mlp import (
    Dataset,
    Mlp,
    MlpConfig,
    TrainConfig,
    TrainingError,
    activation_table,
    forward,
    forward_lattice,
    gelu,
    init_mlp,
    load_csv,
    load_model,
    normalize,
    parse_rows,
    save_csv,
    save_model,
    train,
)


def _toy(n=64, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    y = x @ np.array([[2.0], [-1.0], [0.5]])
    return Dataset(x, y)


# --- normalization

def test_normalize_scales_by_population_std():
    data = Dataset(np.array([[2.0], [4.0], [6.0]]), np.zeros((3, 1)))
    out = normalize(data)
    np.testing.assert_allclose(
        out.features[:, 0], [1.2247, 2.4495, 3.6742], atol=5e-5
    )
    assert out.normalized and not out.normalizer.centered
    # mean recorded but not subtracted
    assert out.normalizer.mean[0] == pytest.approx(4.0)


def test_normalize_constant_column_warns():
    data = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros((3, 1)))
    with pytest.warns(UserWarning, match="constant"):
        out = normalize(data)
    np.testing.assert_array_equal(out.features[:, 0], [5.0, 5.0, 5.0])
    assert out.feature_std[0] == 1.0


def test_normalize_unit_std_is_noop():
    data = Dataset(np.array([[0.0], [2.0]]), np.zeros((2, 1)))  # population std 1
    out = normalize(data)
    np.testing.assert_allclose(out.features, data.features, rtol=1e-12)


@pytest.mark.parametrize("center", [False, True])
def test_normalizer_reproduces_the_normalized_features(center):
    data = _toy(n=50, seed=3)
    out = normalize(data, center=center)
    assert out.normalizer.centered is center
    np.testing.assert_array_equal(out.normalizer.apply(data.features), out.features)


def test_normalize_twice_rejected():
    out = normalize(_toy())
    with pytest.raises(ValueError, match="already normalized"):
        normalize(out)


# --- gelu

def test_gelu_values():
    assert gelu(0.0) == 0.0
    assert float(gelu(10.0)) == pytest.approx(10.0, abs=1e-8)
    assert float(gelu(-10.0)) == pytest.approx(0.0, abs=1e-8)


def test_gelu_is_the_exact_erf_expression():
    # train's activations and the lattice value slot both read this, bit for bit
    xs = np.linspace(-4.0, 4.0, 101)
    np.testing.assert_array_equal(gelu(xs), 0.5 * xs * (1.0 + special.erf(xs / math.sqrt(2.0))))


def test_gelu_derivative_at_zero_is_half():
    x = CrossDual.variable(0.0, 0, 1)
    assert gelu(x).partial((0,)) == pytest.approx(0.5, rel=1e-12)
    assert GELU.series(1, np.array(0.0))[1] == pytest.approx(0.5)


def test_gelu_grad_matches_fd():
    xs = np.linspace(-2.5, 2.5, 11)
    h = 1e-6
    fd = (gelu(xs + h) - gelu(xs - h)) / (2 * h)
    np.testing.assert_allclose(GELU.series(1, xs)[1], fd, rtol=1e-8, atol=1e-9)


def test_train_slopes_are_the_hand_derived_expressions():
    # train reads each hidden activation and its slope from the model's
    # table; both must keep the bits of the hand-written backward pass
    z = np.linspace(-8.0, 8.0, 1001)
    value, slope = activation_table(MlpConfig(input_dim=1)).series(1, z)
    phi = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    cdf = 0.5 * (1.0 + special.erf(z / math.sqrt(2.0)))
    np.testing.assert_array_equal(value, 0.5 * z * (1.0 + special.erf(z / math.sqrt(2.0))))
    np.testing.assert_array_equal(slope, cdf + z * phi)
    value, slope = activation_table(MlpConfig(input_dim=1, activation="relu")).series(1, z)
    np.testing.assert_array_equal(value, np.maximum(z, 0.0))
    np.testing.assert_array_equal(slope, (z > 0).astype(np.float64))


# --- forward

def test_forward_zero_network():
    cfg = MlpConfig(input_dim=4, hidden=(3,), output_dim=2)
    model = Mlp([np.zeros((3, 4)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)], cfg)
    out = forward(model, np.ones(4))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_forward_identity_linear_network():
    """A single linear layer (no hidden) is exactly affine."""
    cfg = MlpConfig(input_dim=3, hidden=(), output_dim=3)
    model = Mlp([np.eye(3)], [np.zeros(3)], cfg)
    x = np.array([0.3, -1.2, 4.0])
    np.testing.assert_array_equal(forward(model, x), x)
    # and exactly linear: f(2x) = 2 f(x)
    np.testing.assert_array_equal(forward(model, 2 * x), 2 * x)


def test_forward_batch_matches_single():
    model = init_mlp(MlpConfig(input_dim=5, hidden=(7, 4), seed=1))
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(6, 5))
    batch = forward(model, xs)
    for i in range(6):
        # dgemm vs dgemv round differently, so ulp-level slack
        np.testing.assert_allclose(batch[i], forward(model, xs[i]), rtol=1e-12)


def _lattice_point(model, x, i):
    """One batch row of one-tag lattice coefficients through the model:
    the point x, with the tag's direction along input i."""
    return forward_lattice(model, [[i]], 1, value=x, bank=np.eye(len(x)))


def test_forward_dual_value_slice_is_plain_forward():
    model = init_mlp(MlpConfig(input_dim=4, hidden=(6, 3), seed=5))
    x = np.array([0.2, -0.4, 1.1, 0.7])
    out = _lattice_point(model, x, 0)
    plain = forward(model, x)
    # same math, but the lattice pass sums its affine maps in another order
    assert out[0, 0, 0] == pytest.approx(plain[0], rel=1e-12)


def test_forward_gradient_matches_fd():
    """First-order lattice derivative vs central difference, 50 draws."""
    rng = np.random.default_rng(11)
    h = 1e-5
    for draw in range(50):
        cfg = MlpConfig(input_dim=4, hidden=(8, 5), seed=draw)
        model = init_mlp(cfg)
        x = rng.uniform(-2, 2, size=4)
        i = int(rng.integers(0, 4))
        exact = _lattice_point(model, x, i)[0, 0, 1]
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (forward(model, xp)[0] - forward(model, xm)[0]) / (2 * h)
        assert exact == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_forward_shape_errors():
    model = init_mlp(MlpConfig(input_dim=3, hidden=(2,)))
    with pytest.raises(ValueError):
        forward(model, np.ones(4))
    with pytest.raises(ValueError):
        forward_lattice(model, [[0]], 1, value=np.zeros(4), bank=np.eye(4))


def _layer_by_layer(model, x):
    """The plain pass as one gemm per layer into a new array, plus
    ``into`` between new arrays: the bytes oracle of ``_forward_into``."""
    h = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(h, w.T)
        z += b
        if i == len(model.weights) - 1:
            return z
        h = np.empty_like(z)
        activation_table(model.config).into(z, h)


@pytest.mark.parametrize(
    "rows, hidden, activation",
    [(300, (140, 100, 60, 20), "gelu"), (1, (140, 100, 60, 20), "gelu"),
     (300, (), "gelu"), (300, (9, 130, 7), "relu"), (129, (3,), "gelu")],
    ids=["300-rows", "one-row", "no-hidden-layer", "relu", "one-row-past-a-block"],
)
def test_plain_pass_has_the_bytes_of_one_gemm_and_activation_per_layer(rows, hidden, activation):
    """The validation pass and ``forward`` apply the activation in place,
    in row blocks of ``_ACT_ROWS`` (300 rows end in a ragged block), and
    alternate two buffers; every layer keeps the bytes of its own gemm
    and activation."""
    model = init_mlp(MlpConfig(input_dim=10, hidden=hidden, output_dim=2,
                               activation=activation, seed=rows))
    x = np.random.default_rng(rows).normal(scale=2.0, size=(rows, 10))
    want = _layer_by_layer(model, x).tobytes()
    buffers = mlp._forward_buffers(rows, model.config)
    assert mlp._forward_into(model, x, buffers).tobytes() == want
    assert forward(model, x).tobytes() == want
    if rows == 1:
        assert forward(model, x[0]).tobytes() == want


# --- training

def test_train_learns_linear_map():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1000, 1))
    data = normalize(Dataset(x, 2.0 * x))
    model, report = train(
        data,
        MlpConfig(input_dim=1, hidden=(16,), seed=0),
        TrainConfig(max_epochs=250, patience=60, seed=0),
    )
    assert report.best_val_loss < 1e-3
    assert report.best_val_loss == min(report.val_losses)


def test_classification_train_reports_its_best_validation_loss():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 2))
    labels = (x[:, 0] * x[:, 1] > 0).astype(int)
    data = normalize(Dataset(x, np.eye(2)[labels]))
    _, report = train(
        data,
        MlpConfig(input_dim=2, hidden=(8,), output_dim=2, seed=5),
        TrainConfig(max_epochs=8, patience=8, seed=5),
    )
    assert report.best_val_loss == min(report.val_losses)


def test_train_is_deterministic():
    data = normalize(_toy(n=200))
    mcfg = MlpConfig(input_dim=3, hidden=(8,), seed=4)
    tcfg = TrainConfig(max_epochs=5, patience=5, seed=4)
    m1, r1 = train(data, mcfg, tcfg)
    m2, r2 = train(data, mcfg, tcfg)
    for w1, w2 in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(w1, w2)
    assert r1.val_losses == r2.val_losses


@pytest.mark.parametrize("hidden", [(8, 4), ()])
def test_trained_model_owns_its_arrays(hidden):
    """Training updates views into one flat vector; the returned model
    holds copies, so it shares no memory with any other array."""
    data = normalize(_toy(n=100, seed=3))
    model, _ = train(data, MlpConfig(input_dim=3, hidden=hidden, seed=3),
                     TrainConfig(max_epochs=3, patience=3, batch_size=30, seed=3))
    assert all(a.flags.owndata for a in model.weights + model.biases)


def test_returned_model_reproduces_best_val_loss():
    data = normalize(_toy(n=300, seed=9))
    tcfg = TrainConfig(max_epochs=30, patience=30, seed=7)
    model, report = train(data, MlpConfig(input_dim=3, hidden=(10,), seed=7), tcfg)
    # reconstruct the split exactly as the loop drew it
    perm = np.random.default_rng(7).permutation(data.n)
    n_val = max(1, int(round(tcfg.val_fraction * data.n)))
    val_idx = perm[:n_val]
    pred = forward(model, data.features[val_idx])
    got = float(np.mean((pred - data.targets[val_idx]) ** 2))
    assert got == pytest.approx(report.best_val_loss, rel=1e-9)


def _diverge():
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train(
            normalize(_toy(n=120, seed=2)),
            MlpConfig(input_dim=3, hidden=(8,), seed=0),
            TrainConfig(learning_rate=1e12, optimizer="sgd", max_epochs=20,
                        patience=20, seed=0),
        )


def test_training_divergence_raises():
    with pytest.raises(TrainingError, match=r"non-finite loss\) at epoch 3$"):
        _diverge()


def _noise_run(**tcfg):
    """Train on targets with nothing to learn, so patience 3 stops early;
    returns the weight bytes and the report."""
    data = _toy(n=120, seed=11)
    data = Dataset(data.features, np.random.default_rng(12).normal(size=(120, 1)))
    model, report = train(
        normalize(data),
        MlpConfig(input_dim=3, hidden=(6,), seed=11),
        TrainConfig(**{"max_epochs": 60, "patience": 3, "batch_size": 16, "seed": 11, **tcfg}),
    )
    return [a.tobytes() for a in model.weights + model.biases], report


def test_train_starts_no_thread(monkeypatch):
    """train validates each epoch on the calling thread."""

    def refuse(self):
        raise AssertionError(f"train started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    _weights, report = _noise_run()
    assert report.stopped_epoch < 60


def test_non_finite_validation_loss_names_its_epoch(monkeypatch):
    forward_into, calls = mlp._forward_into, []

    def nan_on_third_call(*args):
        out = forward_into(*args)
        calls.append(None)
        if len(calls) == 3:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(mlp, "_forward_into", nan_on_third_call)
    with pytest.raises(TrainingError, match=r"non-finite loss\) at epoch 3$"):
        _noise_run(patience=60)


def test_train_peak_memory_holds_no_copied_training_split(traced_peak):
    """Default net, 10,000 F8 rows, 2 epochs: the validation pass's
    buffers are sized per layer parity (2,000 x 140 and 2,000 x 100, not
    two of 2,000 x 140), the batches are gathered from the dataset, and
    the initial weights die once flattened.  6.77 MiB measured; 8.09 MiB
    with the copied 8,000-row split and two full-width buffers."""
    data = normalize(bm.sample_dataset("F8", 10_000, 0))
    peak = traced_peak(train, data, MlpConfig(input_dim=10), TrainConfig(max_epochs=2, patience=1))
    assert peak <= 7.4 * (1 << 20), f"peak {peak / (1 << 20):.2f} MiB"


def test_train_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        train(_toy(), MlpConfig(input_dim=3), TrainConfig())


def test_train_rejects_shape_mismatch():
    data = normalize(_toy())
    with pytest.raises(ValueError):
        train(data, MlpConfig(input_dim=7), TrainConfig())


def early_stop_epoch(val_losses, patience):
    """(best_epoch, stop_epoch), 1-based: the rule train applies, written
    over a finished loss list.  Training halts after the first epoch that
    trails the best one by ``patience`` epochs; ties keep the earlier best.
    """
    best, best_loss = 1, float(val_losses[0])
    for e, v in enumerate(val_losses, start=1):
        if v < best_loss:
            best, best_loss = e, float(v)
        if e - best >= patience:
            return best, e
    return best, len(val_losses)


def test_early_stop_epoch_contract():
    # best at epoch 5, strictly worsening afterwards, patience 10
    losses = [0.9, 0.8, 0.7, 0.6, 0.5] + [0.5 + 0.1 * k for k in range(1, 11)]
    assert early_stop_epoch(losses, 10) == (5, 15)
    # never triggering: runs to the end
    assert early_stop_epoch([3.0, 2.0, 1.0], 10) == (3, 3)
    # ties keep the earlier epoch
    assert early_stop_epoch([1.0, 1.0, 1.0, 1.0], 3) == (1, 4)


@pytest.mark.parametrize("noise,max_epochs,patience", [(True, 60, 3), (False, 6, 6)])
def test_train_stops_where_the_oracle_says(noise, max_epochs, patience):
    data = _toy(n=120, seed=11)
    if noise:  # nothing to learn: validation loss stalls and training stops early
        data = Dataset(data.features, np.random.default_rng(12).normal(size=(120, 1)))
    tcfg = TrainConfig(max_epochs=max_epochs, patience=patience, seed=11)
    _, report = train(normalize(data), MlpConfig(input_dim=3, hidden=(6,), seed=11), tcfg)
    assert (report.stopped_epoch < max_epochs) == noise
    assert len(report.val_losses) == report.stopped_epoch
    assert early_stop_epoch(report.val_losses, patience) == (
        report.best_epoch,
        report.stopped_epoch,
    )


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=50, max_epochs=20)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(max_epochs=0, patience=0), "max_epochs must be at least 1, got 0"),
        (dict(max_epochs=-2, patience=-5), "max_epochs must be at least 1, got -2"),
        (dict(batch_size=0), "batch_size must be at least 1, got 0"),
        (dict(batch_size=-1), "batch_size must be at least 1, got -1"),
        (dict(max_epochs=20, patience=0), "patience must be at least 1, got 0"),
        (dict(max_epochs=20, patience=-3), "patience must be at least 1, got -3"),
    ],
)
def test_train_config_rejects_counts_below_one(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_train_config_rejects_a_learning_rate_that_is_not_finite_and_positive(rate):
    message = f"learning_rate must be finite and positive, got {rate!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("make, field", [
    (lambda: TrainConfig(batch_size=2.5), "batch_size"),
    (lambda: TrainConfig(max_epochs=2.5), "max_epochs"),
    (lambda: TrainConfig(patience=1.5), "patience"),
    (lambda: MlpConfig(input_dim=10.0), "input_dim"),
    (lambda: MlpConfig(input_dim=10, output_dim="1"), "output_dim"),
    (lambda: MlpConfig(input_dim=10, hidden=(8.9,)), "all hidden widths"),
], ids=["batch_size", "max_epochs", "patience", "input_dim", "output_dim", "hidden"])
def test_configs_reject_counts_that_are_not_whole_numbers(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be a whole number, got "):
        make()


def test_configs_store_numpy_integer_counts_as_ints():
    tcfg = TrainConfig(max_epochs=np.int64(20), patience=np.int32(5), batch_size=np.uint8(50))
    mcfg = MlpConfig(input_dim=np.int64(4), hidden=[np.int16(8), 3], output_dim=np.int8(2))
    got = (tcfg.max_epochs, tcfg.patience, tcfg.batch_size, mcfg.input_dim, *mcfg.hidden,
           mcfg.output_dim)
    assert got == (20, 5, 50, 4, 8, 3, 2)
    assert {type(v) for v in got} == {int}


def test_mlp_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(input_dim=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, hidden=(0,))
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, activation="swish")


# --- persistence

def test_checkpoint_roundtrip(tmp_path):
    model = init_mlp(MlpConfig(input_dim=3, hidden=(5, 2), seed=13))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded, norm = load_model(path)
    assert norm is None
    assert loaded.config == model.config
    for w1, w2 in zip(loaded.weights, model.weights):
        np.testing.assert_array_equal(w1, w2)


def test_checkpoint_carries_normalizer(tmp_path):
    data = normalize(_toy(seed=6), center=True)
    model = init_mlp(MlpConfig(input_dim=3, hidden=(4,), seed=6))
    norm = data.normalizer
    path = tmp_path / "model.json"
    save_model(model, path, normalizer=norm)
    _, loaded = load_model(path)
    assert loaded is not None and loaded.centered
    np.testing.assert_array_equal(loaded.std, norm.std)
    np.testing.assert_array_equal(loaded.mean, norm.mean)
    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "layers", "normalizer"}


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_mlp(MlpConfig(input_dim=2, hidden=(3,))), path)
    doc = json.loads(path.read_text())
    doc["config"]["dropout"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(TypeError, match="dropout"):
        load_model(path)


def test_checkpoint_with_missing_layers_names_both_counts(tmp_path):
    model = init_mlp(MlpConfig(input_dim=3, hidden=(5, 2), seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["layers"] = doc["layers"][:2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="config has 3 layers, got 2 weight and 2 bias arrays"):
        load_model(path)
    with pytest.raises(ValueError, match="got 3 weight and 2 bias arrays"):
        Mlp(model.weights, model.biases[:2], model.config)


@pytest.mark.parametrize("cut", [RuntimeError, KeyboardInterrupt])
def test_a_write_that_raises_leaves_the_old_file_or_none(tmp_path, cut):
    """write_csv and write_json write a temporary file beside the target
    and move it onto the target: a write that raises partway leaves the
    old file whole, or no file, and no temporary file either way."""
    def rows():
        yield (0.25, "a")
        raise cut("cut")

    path, doc = tmp_path / "t.csv", tmp_path / "d.json"
    with pytest.raises(cut):
        mlp.write_csv(path, ("x", "y"), rows())
    assert list(tmp_path.iterdir()) == []
    mlp.write_csv(path, ("x", "y"), [(0.5, "b")])
    mlp.write_json(doc, {"k": 1})
    with pytest.raises(cut):
        mlp.write_csv(path, ("x", "y"), rows())
    with pytest.raises(TypeError, match="not JSON serializable"):
        mlp.write_json(doc, {"k": object()})
    assert path.read_text() == "x,y\n0.5,b\n"
    assert doc.read_text() == '{\n  "k": 1\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json", "t.csv"]


def _checkpoint_doc(path):
    save_model(init_mlp(MlpConfig(input_dim=3, hidden=(4,), seed=2)), path,
               normalizer=normalize(_toy(seed=2)).normalizer)
    return json.loads(path.read_text())


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc.pop("config"), "config"),
    (lambda doc: doc.update(config=[3, 4]), "config"),
    (lambda doc: doc.pop("layers"), "layers"),
    (lambda doc: doc["layers"][1].pop("weights"), "layers[1].weights"),
    (lambda doc: doc["layers"][0].update(bias="zeros"), "layers[0].bias"),
    (lambda doc: doc["layers"].__setitem__(1, [1.0]), "layers[1].weights"),
    (lambda doc: doc["normalizer"].pop("std"), "normalizer"),
    (lambda doc: doc.update(normalizer=None), "normalizer"),
], ids=["no-config", "config-list", "no-layers", "no-weights", "bias-str", "layer-list",
        "normalizer-no-std", "normalizer-null"])
def test_malformed_checkpoint_names_its_path_and_field(tmp_path, edit, field):
    path = tmp_path / "model.json"
    doc = _checkpoint_doc(path)
    edit(doc)
    path.write_text(json.dumps(doc))
    want = f"{path}: checkpoint field {field} is missing or ill-typed"
    with pytest.raises(ValueError, match=re.escape(want) + "$"):
        load_model(path)


def test_checkpoint_that_is_not_json_names_its_path(tmp_path):
    path = tmp_path / "model.json"
    for raw in (b"", b"{\"config\": ", b"\xff\xfe"):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a JSON checkpoint")):
            load_model(path)


def test_checkpoint_config_and_shape_errors_name_the_path(tmp_path):
    path = tmp_path / "model.json"
    doc = _checkpoint_doc(path)
    doc["config"]["hidden"] = [0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: config: all hidden widths")):
        load_model(path)
    doc = _checkpoint_doc(path)
    doc["layers"][0]["bias"] = [0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: layer 0 has shape")):
        load_model(path)


def test_csv_roundtrip(tmp_path):
    data = _toy(n=17, seed=21)
    path = tmp_path / "d.csv"
    save_csv(data, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,y"
    back = load_csv(path)
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(back.targets, data.targets)


def test_csv_multi_target_naming(tmp_path):
    data = Dataset(np.ones((4, 2)), np.zeros((4, 3)))
    path = tmp_path / "m.csv"
    save_csv(data, path)
    assert path.read_text().splitlines()[0] == "x1,x2,y1,y2,y3"
    back = load_csv(path)
    assert back.targets.shape == (4, 3)


def test_csv_rejects_missing_or_misplaced_targets(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="no target columns"):
        load_csv(p)
    p.write_text("x1,y,x2\n1,2,3\n")
    with pytest.raises(ValueError, match="trailing"):
        load_csv(p)


def test_csv_with_a_short_row_names_its_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("x1,x2,y\n1,2,3\n\n4,5\n")
    with pytest.raises(ValueError, match="line 4 has 2 cells, expected 3"):
        load_csv(p)


def _csv_lines(n, bad=None, blank_after_header=0):
    """A 3-column CSV of n data rows as text; ``bad`` maps a 0-based data
    row to the text written in its place."""
    rows = [f"{i}.5,{-i},{i * 0.25}" for i in range(n)]
    for i, text in (bad or {}).items():
        rows[i] = text
    return "x1,x2,y\n" + "\n" * blank_after_header + "\n".join(rows) + "\n"


@pytest.mark.parametrize("bad, blanks, line, message", [
    # the first row of the second block: header on line 1, rows from line 2
    ({mlp._BLOCK_ROWS: "1,abc,3"}, 0, mlp._BLOCK_ROWS + 2, "could not convert string to float: 'abc'"),
    # a short last row, two blocks on
    ({2 * mlp._BLOCK_ROWS + 9: "4,5"}, 0, 2 * mlp._BLOCK_ROWS + 11, "has 2 cells, expected 3"),
    # blank lines count as lines, not as rows
    ({mlp._BLOCK_ROWS: "1,,3"}, 3, mlp._BLOCK_ROWS + 5, "could not convert string to float: ''"),
])
def test_csv_errors_name_their_line_across_blocks(tmp_path, bad, blanks, line, message):
    p = tmp_path / "blocks.csv"
    p.write_text(_csv_lines(2 * mlp._BLOCK_ROWS + 10, bad, blanks))
    with pytest.raises(ValueError, match=re.escape(f"line {line}") + r"\b.*" + re.escape(message)):
        load_csv(p)


def test_csv_header_only_gives_an_empty_dataset(tmp_path):
    p = tmp_path / "head.csv"
    p.write_text("x1,x2,y1,y2\n\n")
    back = load_csv(p)
    assert back.features.shape == (0, 2) and back.targets.shape == (0, 2)


def test_csv_file_is_closed_when_parsing_raises(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(mlp, "open", recording_open, raising=False)
    p = tmp_path / "bad.csv"
    p.write_text(_csv_lines(mlp._BLOCK_ROWS + 5, {mlp._BLOCK_ROWS + 1: "1,2,x"}))
    with pytest.raises(ValueError, match="could not convert") as info:
        load_csv(p)
    assert info.traceback  # the traceback, and the frames it holds, are alive here
    assert len(opened) == 1 and opened[0].closed
    p.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(p)
    assert len(opened) == 2 and opened[1].closed


def test_csv_memory_is_one_block_beside_the_matrix(tmp_path, traced_peak):
    """A 50,000-row, 11-column save holds one block of Python floats
    beside the dataset, and a load one block of strings beside the parsed
    blocks and the matrix they are joined into."""
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(50_000, 10)), rng.normal(size=50_000))
    matrix_bytes = data.features.nbytes + data.targets.nbytes
    path = tmp_path / "big.csv"
    mib = 1 << 20
    assert traced_peak(save_csv, data, path) <= matrix_bytes + 4 * mib
    assert traced_peak(load_csv, path) <= 2 * matrix_bytes + 4 * mib
    back = load_csv(path)
    assert back.features.tobytes() == data.features.tobytes()
    assert back.targets.tobytes() == data.targets.tobytes()


@pytest.mark.parametrize("width, t", [(10, 7), (140, 2), (200, 3), (5000, 8)])
def test_row_chunks_fit_and_a_chunk_given_back_is_one_chunk(width, t):
    """Even, contiguous chunks, each within CHUNK_BYTES unless one row or
    the CHUNK_MIN_COLUMNS floor makes it larger, and a chunk given back
    is one chunk (a chunk one row past CHUNK_BYTES would be split in two
    again).  An Mlp's
    chunks are sized by its layers, a callable's by its seeded input."""
    net = init_mlp(MlpConfig(input_dim=width, hidden=(64, 32), seed=0))
    for model, widest in ((net, 64), (lambda z: z[0], width)):
        for rows in range(1, 600):
            chunks = mlp.row_chunks(model, rows, width, t)
            sizes = [hi - lo for lo, hi in chunks]
            assert chunks[0][0] == 0 and chunks[-1][1] == rows
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
            floor = len(chunks) == max(1, rows * widest // mlp.CHUNK_MIN_COLUMNS)
            assert floor or max(sizes) == 1 or max(sizes) * widest << (t + 3) <= mlp.CHUNK_BYTES
            assert all(mlp.row_chunks(model, n, width, t) == [(0, n)] for n in set(sizes))


def test_order7_lattice_pass_holds_at_most_2_5_layer_arrays(traced_peak):
    """30 seeded order-7 candidates through the default 10-140-100-60-20-1
    net, one row chunk: the first layer is built from its parts, and each
    later layer's input dies once its pre-activation z is formed and the
    chain rule writes its level 0 into z, so a layer holds z's row copies
    and two levels.  Keeping the layer input and z alive beside them took
    about 3.5 of the widest (30, 140, 128) arrays."""
    net = init_mlp(MlpConfig(input_dim=10, seed=0))
    tags = np.array(list(itertools.combinations(range(10), 7))[:30])
    parts = {"value": np.random.default_rng(41).normal(size=10), "bank": np.eye(10)}
    assert mlp.row_chunks(net, 30, 10, 7) == [(0, 30)]
    forward_lattice(net, tags, 7, **parts)  # fill the memo of live pairs first
    widest = 30 * 140 * 128 * 8
    peak = traced_peak(forward_lattice, net, tags, 7, **parts)
    assert peak <= 2.5 * widest, f"peak {peak / widest:.2f}x the widest layer array"


def test_csv_cells_parse_as_float_does():
    cells = [" 1.5", "1_0", "nan", "1e400", "4.9e-324", "-0", "+3", ".5", "infinity"]
    got = parse_rows("p.csv", [(2, cells), (3, cells[::-1])])
    assert got.tobytes() == np.array([[float(c) for c in cells],
                                      [float(c) for c in cells[::-1]]]).tobytes()
    with pytest.raises(ValueError, match="line 3: could not convert string to float: ''"):
        parse_rows("p.csv", [(2, ["1", "2"]), (3, ["1", ""])])


@pytest.mark.parametrize("features, targets", [
    (np.zeros((10, 3)), np.zeros(8)),
    (np.zeros(5), np.zeros(5)),
    (np.zeros((2, 3, 4)), np.zeros(2)),
    (np.zeros((4, 2)), np.zeros((4, 1, 1))),
    (np.zeros((4, 2)), np.zeros(())),
])
def test_dataset_rejects_shapes_it_cannot_use(features, targets):
    with pytest.raises(ValueError, match=re.escape(f"{features.shape} and {targets.shape}")):
        Dataset(features, targets)


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([[1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_naming_the_cell(bad):
    feats = np.ones((3, 4))
    feats[2, 1] = bad
    with pytest.raises(ValueError, match=r"features .* at row 2, column 1"):
        Dataset(feats, np.zeros(3))
    targets = np.zeros((3, 2))
    targets[1, 0] = bad
    with pytest.raises(ValueError, match=r"targets .* at row 1, column 0"):
        Dataset(np.ones((3, 4)), targets)


def test_csv_with_inf_is_rejected_at_load(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("x1,x2,y\n1.0,2.0,0.5\n3.0,inf,0.1\n")
    with pytest.raises(ValueError, match=r"non-finite value, inf, at row 1, column 1"):
        load_csv(path)
