"""Bundle serialization: manifests, checksummed blobs, and float weight import."""
import json
import struct
import zlib

import numpy as np
import pytest

from conftest import random_input, tree_bytes

from diracdelta import bundle as bundle_module
from diracdelta.bundle import (
    load_bundle,
    quantize_bundle,
    random_bundle,
    read_float_weights,
    save_bundle,
)
from diracdelta.errors import BundleError, ChecksumError, ConstructionError, GraphError
from diracdelta.net import conv_steps, forward
from diracdelta.quant import LayerQuantParams, build_threshold_table


# =========================================================================
# save / load round trip
# =========================================================================

def test_round_trip_preserves_everything(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    loaded = load_bundle(root)
    assert loaded.spec == tiny_bundle.spec
    assert loaded.net == tiny_bundle.net
    assert loaded.fc_scale == tiny_bundle.fc_scale
    np.testing.assert_array_equal(loaded.fc_weights.codes, tiny_bundle.fc_weights.codes)
    for name in tiny_bundle.weights:
        np.testing.assert_array_equal(
            loaded.weights[name].codes, tiny_bundle.weights[name].codes
        )
        assert loaded.tables[name].thresholds == tiny_bundle.tables[name].thresholds
        assert loaded.layer_params[name] == tiny_bundle.layer_params[name]


def test_round_trip_forward_is_bit_identical(tmp_path, tiny_bundle):
    loaded = load_bundle(save_bundle(tiny_bundle, tmp_path / "b"))
    fm = random_input(tiny_bundle.spec, seed=9)
    np.testing.assert_array_equal(
        forward(tiny_bundle, fm).int_logits, forward(loaded, fm).int_logits
    )


def test_same_seed_saves_byte_identical_trees(tmp_path, tiny_spec, quant_params):
    a = save_bundle(random_bundle(tiny_spec, quant_params, seed=3), tmp_path / "a")
    b = save_bundle(random_bundle(tiny_spec, quant_params, seed=3), tmp_path / "b")
    assert tree_bytes(a) == tree_bytes(b)


def test_different_seeds_differ(tmp_path, tiny_spec, quant_params):
    a = save_bundle(random_bundle(tiny_spec, quant_params, seed=3), tmp_path / "a")
    b = save_bundle(random_bundle(tiny_spec, quant_params, seed=4), tmp_path / "b")
    assert tree_bytes(a) != tree_bytes(b)


def test_manifest_shape(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    text = (root / "manifest.json").read_text()
    manifest = json.loads(text)
    assert manifest["format_version"] == 2
    assert manifest["quant"] == {"k_a": 4, "k_w": 4, "s": 1.0}
    assert manifest["layers"] == [
        {"alpha": p.alpha, "name": step.name, "weight_scale": p.weight_scale}
        for step in conv_steps(tiny_bundle.spec)
        for p in [tiny_bundle.layer_params[step.name]]
    ]
    assert manifest["fc"] == {"scale": tiny_bundle.fc_scale}
    # stable serialization: sorted keys, two-space indent, trailing newline
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def test_blob_framing(tmp_path, tiny_bundle):
    import zlib

    root = save_bundle(tiny_bundle, tmp_path / "b")
    blob = (root / "conv1.w").read_bytes()
    payload, tail = blob[:-4], blob[-4:]
    assert payload == tiny_bundle.weights["conv1"].packed()
    assert int.from_bytes(tail, "little") == zlib.crc32(payload)


def test_bundle_directory_holds_the_manifest_and_weight_blobs_only(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    want = {"manifest.json", "fc.w"} | {f"{s.name}.w" for s in conv_steps(tiny_bundle.spec)}
    assert {p.name for p in root.iterdir()} == want


def test_saving_over_a_bundle_leaves_no_stale_blobs(tmp_path, tiny_spec, quant_params):
    root = save_bundle(random_bundle(tiny_spec, quant_params, seed=3), tmp_path / "b")
    (root / "conv1.t").write_bytes(b"a threshold blob of an older format")
    newer = random_bundle(tiny_spec, quant_params, seed=4)
    save_bundle(newer, root)
    fresh = save_bundle(newer, tmp_path / "fresh")
    assert tree_bytes(root) == tree_bytes(fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "fresh"]


def test_saving_through_a_symlink_replaces_the_linked_bundle(tmp_path, tiny_spec,
                                                              quant_params):
    real = save_bundle(random_bundle(tiny_spec, quant_params, seed=3), tmp_path / "real")
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    newer = random_bundle(tiny_spec, quant_params, seed=4)
    assert save_bundle(newer, link) == link
    assert link.is_symlink()
    assert tree_bytes(real) == tree_bytes(save_bundle(newer, tmp_path / "fresh"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "link", "real"]


def test_a_failed_save_leaves_the_previous_bundle_in_place(tmp_path, tiny_spec,
                                                           quant_params, monkeypatch):
    root = save_bundle(random_bundle(tiny_spec, quant_params, seed=3), tmp_path / "b")
    before = tree_bytes(root)
    frame = bundle_module._frame
    calls = []

    def failing_frame(payload):
        calls.append(payload)
        if len(calls) == 3:
            raise OSError("disk full")
        return frame(payload)

    monkeypatch.setattr("diracdelta.bundle._frame", failing_frame)
    with pytest.raises(OSError, match="disk full"):
        save_bundle(random_bundle(tiny_spec, quant_params, seed=4), root)
    monkeypatch.undo()
    assert len(calls) == 3
    assert tree_bytes(root) == before
    assert [p.name for p in tmp_path.iterdir()] == ["b"]
    load_bundle(root)


def test_save_refuses_a_non_empty_directory_without_a_manifest(tmp_path, tiny_bundle):
    root = tmp_path / "notes"
    root.mkdir()
    (root / "todo.txt").write_text("keep me")
    with pytest.raises(BundleError, match="non-empty directory without manifest.json"):
        save_bundle(tiny_bundle, root)
    assert tree_bytes(root) == {"todo.txt": b"keep me"}
    assert [p.name for p in tmp_path.iterdir()] == ["notes"]
    # an empty directory is a fine target
    (root / "todo.txt").unlink()
    load_bundle(save_bundle(tiny_bundle, root))


# =========================================================================
# corruption and tamper detection
# =========================================================================

def test_flipped_weight_byte_is_caught(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    p = root / "conv2.w"
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError, match="layer conv2 weights: checksum mismatch"):
        load_bundle(root)




def test_truncated_weight_blob_is_caught(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    p = root / "conv1.w"
    p.write_bytes(p.read_bytes()[:2])
    with pytest.raises(ChecksumError, match="shorter than its own checksum"):
        load_bundle(root)


def _write_framed(path, payload: bytes) -> None:
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


def test_over_long_weight_blobs_with_valid_crc_are_rejected(tmp_path, tiny_bundle):
    # conv2 is (8, 4): 16 payload bytes; fc is (10, 32): 160
    for name, what, size in (("conv2.w", "layer conv2 weights", 16), ("fc.w", "fc weights", 160)):
        root = save_bundle(tiny_bundle, tmp_path / name)
        payload = (root / name).read_bytes()[:-4]
        assert len(payload) == size
        _write_framed(root / name, payload + b"\x00")
        with pytest.raises(BundleError, match=f"{what}: payload is {size + 1} bytes, "
                                              f"expected {size}"):
            load_bundle(root)


def test_missing_blob(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    (root / "fc.w").unlink()
    with pytest.raises(BundleError, match="fc weights: missing blob file fc.w"):
        load_bundle(root)


def test_missing_manifest(tmp_path):
    with pytest.raises(BundleError, match="no manifest.json"):
        load_bundle(tmp_path / "nope")


def test_malformed_manifest_json(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    (root / "manifest.json").write_text("{not json")
    with pytest.raises(BundleError, match="not valid JSON"):
        load_bundle(root)


def test_unsupported_format_version(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    mf = json.loads((root / "manifest.json").read_text())
    mf["format_version"] = 99
    (root / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(BundleError, match="unsupported bundle format_version 99"):
        load_bundle(root)


def test_missing_manifest_field(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    mf = json.loads((root / "manifest.json").read_text())
    del mf["quant"]
    (root / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(BundleError, match="missing required field"):
        load_bundle(root)


def test_manifest_row_out_of_step_with_graph(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    mf = json.loads((root / "manifest.json").read_text())
    mf["layers"][1]["name"] = "conv3"
    (root / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(GraphError, match="layers\\[1\\] is 'conv3', but the graph's conv "
                                         "step 1 is 'conv2'"):
        load_bundle(root)


def test_manifest_dropped_row(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    mf = json.loads((root / "manifest.json").read_text())
    mf["layers"] = mf["layers"][:-1]
    (root / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(GraphError, match="manifest lists 7 layers but the graph has 8"):
        load_bundle(root)


# =========================================================================
# threshold tables are rebuilt from the manifest
# =========================================================================

def test_editing_alpha_rebuilds_the_table(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    mf = json.loads((root / "manifest.json").read_text())
    mf["layers"][1]["alpha"] = 0.6
    (root / "manifest.json").write_text(json.dumps(mf))
    loaded = load_bundle(root)
    p = loaded.layer_params["conv2"]
    assert p == LayerQuantParams(alpha=0.6, weight_scale=tiny_bundle.layer_params["conv2"].weight_scale)
    assert loaded.tables["conv2"] == build_threshold_table(p, tiny_bundle.net)
    assert loaded.tables["conv2"] != tiny_bundle.tables["conv2"]
    assert loaded.tables["conv1"] == tiny_bundle.tables["conv1"]


def test_alpha_without_a_table_fails_to_load_naming_the_layer(tmp_path, tiny_bundle):
    root = save_bundle(tiny_bundle, tmp_path / "b")
    mf = json.loads((root / "manifest.json").read_text())
    mf["layers"][2]["alpha"] = 1e9
    (root / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(ConstructionError, match="layer s2d_skip_conv: top code unreachable"):
        load_bundle(root)


# =========================================================================
# random and quantized bundle construction
# =========================================================================

def test_random_bundle_parameters(tiny_spec, quant_params):
    b = random_bundle(tiny_spec, quant_params, seed=5)
    b.validate()
    for name, p in b.layer_params.items():
        assert p.weight_scale == 1 / 15
        assert 0.5 <= p.alpha <= 1.5
    assert b.fc_scale == pytest.approx((1 / 15) * quant_params.s / 15)


def test_quantize_bundle_runs_and_round_trips(tmp_path, tiny_spec, quant_params):
    rng = np.random.default_rng(50)
    floats = {s.name: rng.normal(size=(s.out_channels, s.in_channels))
              for s in conv_steps(tiny_spec)}
    floats["fc"] = rng.normal(size=(tiny_spec.num_classes, tiny_spec.conv5_channels))
    b = quantize_bundle(tiny_spec, quant_params, floats)
    b.validate()
    loaded = load_bundle(save_bundle(b, tmp_path / "q"))
    assert loaded.tables == b.tables
    fm = random_input(tiny_spec, seed=51)
    np.testing.assert_array_equal(forward(b, fm).int_logits, forward(loaded, fm).int_logits)


def test_quantize_bundle_respects_alpha_overrides(tiny_spec, quant_params):
    rng = np.random.default_rng(52)
    floats = {s.name: rng.normal(size=(s.out_channels, s.in_channels))
              for s in conv_steps(tiny_spec)}
    floats["fc"] = rng.normal(size=(tiny_spec.num_classes, tiny_spec.conv5_channels))
    b = quantize_bundle(tiny_spec, quant_params, floats, alphas={"conv1": 0.75})
    assert b.layer_params["conv1"].alpha == 0.75
    assert b.layer_params["conv2"].alpha == quant_params.s


def test_quantize_bundle_input_errors(tiny_spec, quant_params):
    with pytest.raises(BundleError, match="no float weights supplied for layer conv1"):
        quantize_bundle(tiny_spec, quant_params, {})
    rng = np.random.default_rng(53)
    floats = {s.name: rng.normal(size=(s.out_channels, s.in_channels))
              for s in conv_steps(tiny_spec)}
    floats["fc"] = rng.normal(size=(tiny_spec.num_classes, tiny_spec.conv5_channels))
    floats["conv5"] = np.zeros((2, 2))
    with pytest.raises(BundleError, match="layer conv5: float weights have shape"):
        quantize_bundle(tiny_spec, quant_params, floats)
    floats["conv2"][0, 0] = np.inf
    with pytest.raises(BundleError, match="layer conv2: float weights must be finite"):
        quantize_bundle(tiny_spec, quant_params, floats)


def test_read_float_weights(tmp_path, tiny_spec):
    rng = np.random.default_rng(54)
    want = {}
    for step in conv_steps(tiny_spec):
        w = rng.normal(size=(step.out_channels, step.in_channels)).astype("<f4")
        (tmp_path / f"{step.name}.bin").write_bytes(w.tobytes())
        want[step.name] = w
    fcw = rng.normal(size=(tiny_spec.num_classes, tiny_spec.conv5_channels)).astype("<f4")
    (tmp_path / "fc.bin").write_bytes(fcw.tobytes())
    want["fc"] = fcw
    got = read_float_weights(tmp_path, tiny_spec)
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name].astype(np.float64))


def test_read_float_weights_errors(tmp_path, tiny_spec):
    with pytest.raises(BundleError, match="missing weight file conv1.bin"):
        read_float_weights(tmp_path, tiny_spec)
    for step in conv_steps(tiny_spec):
        (tmp_path / f"{step.name}.bin").write_bytes(
            b"\x00" * (step.out_channels * step.in_channels * 4)
        )
    (tmp_path / "fc.bin").write_bytes(b"\x00" * 3)
    with pytest.raises(BundleError, match=r"fc.bin: 3 bytes, expected 1280"):
        read_float_weights(tmp_path, tiny_spec)
