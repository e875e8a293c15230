"""Binary model files: lossless round trips and corruption detection."""
import json
import struct

import numpy as np
import pytest

from concealab.attacks import full, train_generator, unconstrained
from concealab.dataset import TimeSeries
from concealab.detector import build_detector, detect_series
from concealab.cli import main
from concealab.errors import DataError
from concealab.model_io import (VERSION, load_detector, load_generator, save_detector,
                                save_generator)
from concealab.nn import TrainConfig, param_layout


def _normal(rows=300, n=3, seed=0):
    rng = np.random.default_rng(seed)
    base = 2.0 + np.sin(np.linspace(0, 15, rows))[:, None] * np.arange(1, n + 1)
    return TimeSeries([f"c{i}" for i in range(n)],
                      base + rng.normal(scale=0.05, size=(rows, n)))


def _size_error(det, off):
    """The error for a file of det whose payload is off bytes longer than it needs."""
    need = 8 * (sum(v.size for v in det.params.values()) + 2 * det.spec.channels)
    return (f"payload holds {need + off} bytes, the {det.spec.kind} network and its "
            f"normalizer need {need}$")


def _payload(path):
    raw = path.read_bytes()
    return raw[12 + struct.unpack("<I", raw[8:12])[0]:]


def test_detector_round_trip_is_bit_exact(tmp_path):
    normal = _normal()
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=10, seed=0), W=4)
    path = tmp_path / "d.model"
    save_detector(det, path)
    back = load_detector(path)
    assert back.theta == det.theta
    assert back.window == det.window
    assert back.names == det.names
    assert back.spec == det.spec
    for k in det.params:
        np.testing.assert_array_equal(back.params[k], det.params[k])
    np.testing.assert_array_equal(back.normalizer.vmin, det.normalizer.vmin)
    np.testing.assert_array_equal(back.normalizer.vmax, det.normalizer.vmax)
    # identical detection trace on fresh data
    t1 = detect_series(det, normal)
    t2 = detect_series(back, normal)
    np.testing.assert_array_equal(t1.epsilon, t2.epsilon)


def test_lstm_and_conv_detectors_round_trip(tmp_path):
    normal = _normal(n=17)
    for kind in ("lstm", "conv"):
        det, _ = build_detector(kind, normal, TrainConfig(max_epochs=3, seed=0), W=2)
        path = tmp_path / f"{kind}.model"
        save_detector(det, path)
        back = load_detector(path)
        t1 = detect_series(det, normal)
        t2 = detect_series(back, normal)
        np.testing.assert_array_equal(t1.epsilon, t2.epsilon)
    # the conv file holds the live taps only, and 2 x 17 normalization stats
    raw = (tmp_path / "conv.model").read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    assert len(raw) - 12 - hlen == 8 * (47_953 + 34)


def test_generator_round_trip(tmp_path):
    normal = _normal(n=4)
    c = unconstrained(4)
    gen, _ = train_generator(normal, c, TrainConfig(max_epochs=5, seed=1))
    path = tmp_path / "g.model"
    save_generator(gen, path)
    back = load_generator(path)
    assert back.read == gen.read
    assert back.names == gen.names
    for k in gen.params:
        np.testing.assert_array_equal(back.params[k], gen.params[k])


@pytest.mark.parametrize("kind", ["dense", "lstm", "conv"])
def test_payload_is_the_spec_layout_then_vmin_then_vmax(tmp_path, kind):
    """After the header come the parameters in param_layout order, then
    the normalizer's vmin and vmax, each as little-endian float64."""
    det, _ = build_detector(kind, _normal(), TrainConfig(max_epochs=1, seed=0), W=2)
    path = tmp_path / "d.model"
    save_detector(det, path)
    arrays = [det.params[name] for name, _ in param_layout(det.spec)]
    arrays += [det.normalizer.vmin, det.normalizer.vmax]
    assert _payload(path) == b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


def test_params_in_another_key_order_save_the_same_bytes(tmp_path):
    normal = _normal(n=4)
    gen, _ = train_generator(normal, unconstrained(4), TrainConfig(max_epochs=1, seed=1))
    save_generator(gen, tmp_path / "a.model")
    gen.params = dict(reversed(gen.params.items()))
    save_generator(gen, tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.model"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_detector(path)


def test_truncated_payload_rejected(tmp_path):
    normal = _normal()
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=2, seed=0))
    path = tmp_path / "d.model"
    save_detector(det, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(DataError, match=_size_error(det, -16)):
        load_detector(path)


def test_trailing_garbage_rejected(tmp_path):
    normal = _normal()
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=2, seed=0))
    path = tmp_path / "d.model"
    save_detector(det, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataError, match=_size_error(det, 4)):
        load_detector(path)


def test_role_mixup_rejected(tmp_path):
    normal = _normal()
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=2, seed=0))
    path = tmp_path / "d.model"
    save_detector(det, path)
    with pytest.raises(DataError):
        load_generator(path)


def _write_raw(path, header, payload=b""):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(b"CLAB" + struct.pack("<II", VERSION, len(blob)) + blob + payload)


def _set_version(path, version):
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])


def test_version_1_file_is_refused_naming_the_version(tmp_path):
    normal = _normal()
    det, _ = build_detector("conv", normal, TrainConfig(max_epochs=1, seed=0))
    path = tmp_path / "d.model"
    save_detector(det, path)
    _set_version(path, 1)
    with pytest.raises(DataError, match="model format version 1 is not supported"):
        load_detector(path)


def test_version_1_detector_in_a_run_fails_the_cli_cleanly(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"steps": 400, "attack_steps": 300},
                               "detector": {"kind": "conv", "train": {"max_epochs": 1}},
                               "attack": {"kind": "replay", "offset": 60}}))
    args = ["--config", str(cfg), "--out", str(tmp_path / "runs")]
    assert main(["train-detector", *args]) == 0
    model = next((tmp_path / "runs").rglob("detector.model"))
    _set_version(model, 1)
    capsys.readouterr()
    assert main(["attack", *args]) == 2
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: DataError:")
    assert "version 1" in err_lines[0]


def test_version_2_file_is_refused_by_the_loader_and_the_cli(tmp_path, capsys):
    """Format 2 held an array manifest in its header; its payload is not read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"steps": 400, "attack_steps": 300},
                               "detector": {"train": {"max_epochs": 1}},
                               "attack": {"kind": "replay", "offset": 60}}))
    args = ["--config", str(cfg), "--out", str(tmp_path / "runs")]
    assert main(["train-detector", *args]) == 0
    model = next((tmp_path / "runs").rglob("detector.model"))
    _set_version(model, 2)
    with pytest.raises(DataError, match="model format version 2 is not supported"):
        load_detector(model)
    capsys.readouterr()
    assert main(["attack", *args]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: DataError: {model}: model format version 2 is not supported, "
        f"this build reads version {VERSION}"]


def test_json_list_header_rejected(tmp_path):
    path = tmp_path / "m.model"
    _write_raw(path, [{"name": "W0", "shape": [1]}])
    with pytest.raises(DataError, match="header must be a JSON object"):
        load_detector(path)


def test_array_shape_off_the_spec_layout_rejected(tmp_path):
    normal = _normal()
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=2, seed=0))
    # a W0 one column short still saves, and its bytes are all there
    error = _size_error(det, -8 * det.params["W0"].shape[0])
    det.params = dict(det.params, W0=det.params["W0"][:, :-1])
    path = tmp_path / "d.model"
    save_detector(det, path)
    with pytest.raises(DataError, match=error):
        load_detector(path)


def test_loaded_params_are_views_of_one_buffer(tmp_path):
    normal = _normal()
    det, _ = build_detector("lstm", normal, TrainConfig(max_epochs=1, seed=0), W=2)
    path = tmp_path / "d.model"
    save_detector(det, path)
    params = load_detector(path).params
    assert list(params) == [name for name, _ in param_layout(det.spec)]
    base = params["Wx"].base
    assert base is not None and all(v.base is base for v in params.values())


@pytest.mark.parametrize("field,value", [
    ("names", 5), ("names", [1, 2, 3]), ("window", float("inf")), ("theta", None),
    ("spec", None), ("spec", {"kind": "dense", "channels": "x", "hidden": [2]}),
    ("spec", {"kind": "dense", "channels": 3.0, "hidden": [3, 2, 3]}),
    # a layout far larger than the file must be refused, not allocated
    ("spec", {"kind": "dense", "channels": 3, "window": 1, "hidden": [10**5] * 3,
              "hidden_activation": "relu", "output_activation": "sigmoid"}),
    ("spec", {"kind": "dense", "channels": 3, "window": 1, "hidden": [10**12] * 3,
              "hidden_activation": "relu", "output_activation": "sigmoid"}),
])
def test_bad_header_fields_rejected(tmp_path, field, value):
    normal = _normal()
    det, _ = build_detector("dense", normal, TrainConfig(max_epochs=1, seed=0))
    path = tmp_path / "d.model"
    save_detector(det, path)
    _set_header(path, field, value)
    with pytest.raises(DataError):
        load_detector(path)


def _set_header(path, field, value):
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + hlen])
    header[field] = value
    _write_raw(path, header, raw[12 + hlen:])


def test_dense_header_with_dropout_fails_as_a_bad_spec(tmp_path):
    det, _ = build_detector("dense", _normal(), TrainConfig(max_epochs=1, seed=0))
    path = tmp_path / "d.model"
    save_detector(det, path)
    _set_header(path, "spec", {**det.spec.to_dict(), "dropout": 0.2})
    with pytest.raises(DataError, match="bad network spec: dropout applies to conv"):
        load_detector(path)


def test_header_naming_the_linear_activation_fails_as_a_bad_spec(tmp_path):
    det, _ = build_detector("dense", _normal(), TrainConfig(max_epochs=1, seed=0))
    path = tmp_path / "d.model"
    save_detector(det, path)
    _set_header(path, "spec", {**det.spec.to_dict(), "output_activation": "linear"})
    with pytest.raises(DataError, match="bad network spec: unknown activation"):
        load_detector(path)


@pytest.mark.parametrize("field,value", [
    ("theta", float("nan")), ("theta", "0.5"), ("window", 3.9), ("window", 0), ("window", "2"),
    ("read", [1.5]), ("read", [True]),
])
def test_header_values_are_refused_naming_the_file_and_the_key(tmp_path, field, value):
    """Values that a cast once let through: a NaN threshold (a detector that
    never alarms), a window of 3.9 read as 3, a read index of 1.5 read as 1."""
    normal = _normal()
    path = tmp_path / "m.model"
    if field == "read":
        gen, _ = train_generator(normal, full(3, [0]), TrainConfig(max_epochs=1, seed=0))
        save_generator(gen, path)
        load = load_generator
    else:
        det, _ = build_detector("dense", normal, TrainConfig(max_epochs=1, seed=0))
        save_detector(det, path)
        load = load_detector
    load(path)
    _set_header(path, field, value)
    with pytest.raises(DataError) as refused:
        load(path)
    assert str(refused.value).startswith(f"{path}: header.{field}")
