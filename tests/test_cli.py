"""End-to-end command-line flows: build, validate, infer, quantize, simulate, report.

Commands run in-process through `main` so exit codes and printed lines are
asserted exactly; two subprocess tests check the module entry point.
"""
import contextlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracdelta import cli
from diracdelta.accel.perf import CostModelParams
from diracdelta.tensor import FeatureMap, write_tensor_blob


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "bundle"
    assert cli.main(["build", "--out", str(d), "--seed", "7"]) == 0
    return d


@pytest.fixture(scope="module")
def input_blob(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli_in") / "img.bin"
    rng = np.random.default_rng(3)
    fm = FeatureMap.from_array(rng.integers(0, 16, size=(224, 224, 3), dtype=np.uint8))
    write_tensor_blob(p, fm)
    return p


# =========================================================================
# build / validate
# =========================================================================

def test_build_prints_structure_and_writes_bundle(tmp_path, capsys):
    out = tmp_path / "b"
    assert cli.main(["build", "--out", str(out), "--seed", "1"]) == 0
    stdout = capsys.readouterr().out
    assert f"bundle written to {out}" in stdout
    assert "conv layers: 38, plus the classifier" in stdout
    assert "first stage params 2144, macs 30507008" in stdout
    assert "total params 3274848, macs 330178560" in stdout
    assert "quant C_{4,4}, s=1.0, seed 1" in stdout
    assert (out / "manifest.json").is_file()
    assert (out / "conv1.w").is_file() and not (out / "conv1.t").exists()


def test_build_is_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["build", "--out", str(a), "--seed", "5"]) == 0
    assert cli.main(["build", "--out", str(b), "--seed", "5"]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_validate_reports_the_bundle_summary(bundle_dir, capsys):
    assert cli.main(["validate", "--bundle", str(bundle_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "bundle OK: 38 conv layers, C_{4,4}, s=1.0, params 3274848" in stdout


def test_validate_missing_bundle_is_an_io_error(tmp_path, capsys):
    rc = cli.main(["validate", "--bundle", str(tmp_path / "nope")])
    assert rc == 2
    assert "io error: bundle path does not exist" in capsys.readouterr().err


def test_corrupt_blob_fails_validation_with_exit_1(tmp_path, capsys):
    out = tmp_path / "b"
    assert cli.main(["build", "--out", str(out), "--seed", "2"]) == 0
    blob = out / "conv2.w"
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0xFF
    blob.write_bytes(bytes(raw))
    capsys.readouterr()
    assert cli.main(["validate", "--bundle", str(out)]) == 1
    assert "checksum mismatch" in capsys.readouterr().err


# Every manifest field `load_bundle` reads, with a value of the wrong JSON type
MANIFEST_FIELDS = [
    (("format_version",), "1"),
    (("network",), []),
    (("network", "input_size"), "16"),
    (("network", "input_channels"), 3.0),
    (("network", "stem_channels"), "48"),
    (("network", "stage_channels"), [16.5]),
    (("network", "stage_repeats"), {"0": 1}),
    (("network", "conv5_channels"), None),
    (("network", "num_classes"), True),
    (("quant",), "C_{4,4}"),
    (("quant", "s"), "1.0"),
    (("quant", "k_w"), "4"),
    (("quant", "k_a"), 4.5),
    (("layers",), {}),
    (("layers", 0, "name"), 1),
    (("layers", 0, "alpha"), "0.9"),
    (("layers", 0, "weight_scale"), False),
    (("fc",), []),
    (("fc", "scale"), "0.004"),
]


def _field_path(keys) -> str:
    path = ""
    for k in keys:
        path += f"[{k}]" if isinstance(k, int) else (f".{k}" if path else k)
    return path


@pytest.fixture(scope="module")
def tiny_bundle_dir(tmp_path_factory):
    from conftest import make_tiny_spec
    from diracdelta.bundle import random_bundle, save_bundle
    from diracdelta.quant import NetworkQuantParams

    d = tmp_path_factory.mktemp("manifest") / "bundle"
    save_bundle(random_bundle(make_tiny_spec(), NetworkQuantParams(s=1.0), seed=3), d)
    return d


def _validate_with_manifest(src, tmp_path, capsys, edit):
    root = tmp_path / "b"
    shutil.copytree(src, root)
    mf = json.loads((root / "manifest.json").read_text())
    (root / "manifest.json").write_text(json.dumps(edit(mf)))
    capsys.readouterr()
    rc = cli.main(["validate", "--bundle", str(root)])
    return rc, capsys.readouterr().err


def _set(mf, keys, value=None, delete=False):
    obj = mf
    for k in keys[:-1]:
        obj = obj[k]
    if delete:
        del obj[keys[-1]]
    else:
        obj[keys[-1]] = value
    return mf


@pytest.mark.parametrize("keys,wrong", MANIFEST_FIELDS, ids=lambda v: _field_path(v)
                         if isinstance(v, tuple) else type(v).__name__)
@pytest.mark.parametrize("delete", [True, False], ids=["deleted", "wrong_type"])
def test_malformed_manifest_field_fails_validation_naming_it(
        tiny_bundle_dir, tmp_path, capsys, keys, wrong, delete):
    rc, err = _validate_with_manifest(
        tiny_bundle_dir, tmp_path, capsys, lambda mf: _set(mf, keys, wrong, delete))
    assert rc == 1
    assert err.startswith("error: ") and _field_path(keys) in err
    assert "Traceback" not in err


def _key_paths(obj, path=""):
    """Every key path in a parsed manifest, with list indices written as [0]."""
    paths = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            sub = f"{path}.{k}" if path else k
            paths |= {sub} | _key_paths(v, sub)
    elif isinstance(obj, list):
        for v in obj:
            paths |= _key_paths(v, f"{path}[0]")
    return paths


def test_manifest_holds_only_fields_the_loader_reads(tiny_bundle_dir):
    manifest = json.loads((tiny_bundle_dir / "manifest.json").read_text())
    assert _key_paths(manifest) == {_field_path(keys) for keys, _ in MANIFEST_FIELDS}


@pytest.mark.parametrize("keys", [("fc", "scale"), ("quant", "s"), ("layers", 0, "alpha"),
                                  ("layers", 0, "weight_scale")], ids=_field_path)
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_non_finite_manifest_number_fails_validation(tiny_bundle_dir, tmp_path, capsys,
                                                     keys, value):
    rc, err = _validate_with_manifest(
        tiny_bundle_dir, tmp_path, capsys, lambda mf: _set(mf, keys, value))
    assert rc == 1
    assert err.startswith("error: ") and "finite" in err
    assert "Traceback" not in err


def test_alpha_without_a_threshold_table_fails_validation(tiny_bundle_dir, tmp_path, capsys):
    rc, err = _validate_with_manifest(
        tiny_bundle_dir, tmp_path, capsys, lambda mf: _set(mf, ("layers", 0, "alpha"), 1e9))
    assert rc == 1
    assert err.startswith("error: layer conv1: top code unreachable")
    assert "Traceback" not in err


def test_version_1_manifest_fails_validation(tiny_bundle_dir, tmp_path, capsys):
    rc, err = _validate_with_manifest(
        tiny_bundle_dir, tmp_path, capsys, lambda mf: _set(mf, ("format_version",), 1))
    assert rc == 1
    assert err == "error: unsupported bundle format_version 1\n"


@pytest.mark.parametrize("edit,fragment", [
    (lambda mf: mf["layers"], "manifest.json must hold an object, got list"),
    (lambda mf: _set(mf, ("layers", 1), [1, 2]), "field layers[1] must be an object, got list"),
    (lambda mf: _set(mf, ("network", "stem_channels"), [8]), "stem_channels must hold"),
    (lambda mf: _set(mf, ("network", "input_channels"), 600),
     "layer conv1: 600 input channels exceed 512"),
    (lambda mf: _set(mf, ("network", "conv5_channels"), 74566),
     "layer fc: 74566 inputs exceed 74565"),
    (lambda mf: _set(mf, ("quant", "k_a"), 8),
     "manifest.json field quant.k_a is 8, but the engine runs 4-bit codes only"),
    (lambda mf: _set(mf, ("quant", "k_w"), 2),
     "manifest.json field quant.k_w is 2, but the engine runs 4-bit codes only"),
])
def test_manifest_of_the_wrong_shape_fails_validation(
        tiny_bundle_dir, tmp_path, capsys, edit, fragment):
    rc, err = _validate_with_manifest(tiny_bundle_dir, tmp_path, capsys, edit)
    assert rc == 1
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


def test_non_utf8_manifest_fails_validation(tiny_bundle_dir, tmp_path, capsys):
    root = tmp_path / "b"
    shutil.copytree(tiny_bundle_dir, root)
    mf = root / "manifest.json"
    mf.write_bytes(mf.read_bytes().replace(b'"conv1"', b'"conv\xff1"'))
    capsys.readouterr()
    assert cli.main(["validate", "--bundle", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest.json is not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ['{"fc": {"scale": ' + "1" * 5000 + "}}", "[" * 100000],
                         ids=["5000_digit_integer", "100000_nested_lists"])
def test_manifest_json_python_cannot_parse_fails_validation(tiny_bundle_dir, tmp_path, capsys,
                                                            text):
    root = tmp_path / "b"
    shutil.copytree(tiny_bundle_dir, root)
    (root / "manifest.json").write_text(text)
    capsys.readouterr()
    assert cli.main(["validate", "--bundle", str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest.json is not valid JSON: ") and err.count("\n") == 1


def test_a_huge_graph_fails_validation_before_it_is_compiled(bundle_dir, tmp_path, capsys):
    start = time.perf_counter()
    rc, err = _validate_with_manifest(
        bundle_dir, tmp_path, capsys,
        lambda mf: _set(mf, ("network", "stage_repeats"), [3, 100000000, 3]))
    assert time.perf_counter() - start < 2.0
    assert rc == 1
    assert err == "error: manifest lists 38 layers but the graph has 200000024\n"


def test_an_oversized_input_fails_validate_and_infer_before_any_frame(tiny_bundle_dir,
                                                                      tmp_path, capsys):
    # 224 * 2**30 is a multiple of every stage divisor; a frame that size
    # would be 2**60 codes
    root = tmp_path / "b"
    shutil.copytree(tiny_bundle_dir, root)
    mf = json.loads((root / "manifest.json").read_text())
    (root / "manifest.json").write_text(
        json.dumps(_set(mf, ("network", "input_size"), 224 * 2**30)))
    capsys.readouterr()
    for argv in (["validate"], ["infer", "--seed", "1"]):
        start = time.perf_counter()
        rc = cli.main(argv + ["--bundle", str(root)])
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: input_size 240518168576 exceeds ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("fill", [None, 0, 15], ids=["random", "all_0", "all_15"])
def test_a_bundle_that_validates_runs_on_both_engines(tiny_bundle_dir, tmp_path, capsys,
                                                      fill):
    from conftest import make_tiny_spec

    assert cli.main(["validate", "--bundle", str(tiny_bundle_dir)]) == 0
    spec = make_tiny_spec()
    shape = (spec.input_size, spec.input_size, spec.input_channels)
    frame = (np.random.default_rng(4).integers(0, 16, size=shape, dtype=np.uint8)
             if fill is None else np.full(shape, fill, np.uint8))
    blob = tmp_path / "frame.bin"
    write_tensor_blob(blob, FeatureMap.from_array(frame))
    logits = []
    for engine in ("reference", "simulator"):
        out = tmp_path / f"{engine}.bin"
        assert cli.main(["infer", "--bundle", str(tiny_bundle_dir), "--input", str(blob),
                         "--engine", engine, "--out", str(out)]) == 0
        logits.append(out.read_bytes())
    assert logits[0] == logits[1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scale,rc", [(2**64, 0), (10**400, 1)], ids=["2**64", "10**400"])
def test_an_integer_fc_scale_is_read_as_a_float(tiny_bundle_dir, tmp_path, capsys, scale, rc):
    root = tmp_path / "b"
    shutil.copytree(tiny_bundle_dir, root)
    mf = json.loads((root / "manifest.json").read_text())
    (root / "manifest.json").write_text(json.dumps(_set(mf, ("fc", "scale"), scale)))
    capsys.readouterr()
    for argv in (["validate"], ["infer", "--engine", "reference"],
                 ["infer", "--engine", "simulator"]):
        assert cli.main(argv + ["--bundle", str(root)]) == rc
        err = capsys.readouterr().err
        assert err == ("" if rc == 0 else
                       "error: manifest.json field fc.scale is beyond the float range\n")


def test_build_refuses_an_s_whose_logits_overflow(tmp_path):
    # fc_scale follows s; at 1e308 most of the 1000 logits would be inf
    out = tmp_path / "b"
    proc = _run_module("build", "--out", str(out), "--s", "1e308")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: fc_scale ")
    assert proc.stderr.endswith(" overflows a logit: 230400 * fc_scale is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("scale,rc", [(1e304, 0), (1e305, 1)], ids=["1e304", "1e305"])
def test_an_fc_scale_that_overflows_a_logit_fails_validation(tiny_bundle_dir, tmp_path,
                                                              capsys, scale, rc):
    # the tiny net's largest |integer logit| is 15 * 15 * 32 = 7200
    root = tmp_path / "b"
    shutil.copytree(tiny_bundle_dir, root)
    mf = json.loads((root / "manifest.json").read_text())
    (root / "manifest.json").write_text(json.dumps(_set(mf, ("fc", "scale"), scale)))
    capsys.readouterr()
    out = tmp_path / "logits.bin"
    for argv in (["validate"], ["infer", "--engine", "reference", "--out", str(out)],
                 ["infer", "--engine", "simulator", "--out", str(out)]):
        assert cli.main(argv + ["--bundle", str(root)]) == rc
        err = capsys.readouterr().err
        assert err == ("" if rc == 0 else "error: fc_scale 1e+305 overflows a logit: "
                       "7200 * fc_scale is not finite\n")
    assert out.exists() == (rc == 0)
    if rc == 0:
        assert np.isfinite(np.frombuffer(out.read_bytes(), "<f8")).all()


# =========================================================================
# infer
# =========================================================================

def test_infer_reference_writes_logits(bundle_dir, input_blob, tmp_path, capsys):
    out = tmp_path / "logits.bin"
    rc = cli.main(["infer", "--bundle", str(bundle_dir), "--input", str(input_blob),
                   "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "(reference engine)" in stdout
    assert "class " in stdout
    data = out.read_bytes()
    assert len(data) == 1000 * 8
    logits = np.frombuffer(data, dtype="<f8")
    line_class = int(stdout.split("class ")[1].split()[0])
    assert line_class == int(np.argmax(logits))


def test_infer_engines_agree_byte_for_byte(bundle_dir, input_blob, tmp_path):
    ref = tmp_path / "ref.bin"
    sim = tmp_path / "sim.bin"
    assert cli.main(["infer", "--bundle", str(bundle_dir), "--input", str(input_blob),
                     "--out", str(ref)]) == 0
    assert cli.main(["infer", "--bundle", str(bundle_dir), "--input", str(input_blob),
                     "--engine", "simulator", "--out", str(sim)]) == 0
    assert ref.read_bytes() == sim.read_bytes()


def test_infer_without_input_uses_the_seed(bundle_dir, tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert cli.main(["infer", "--bundle", str(bundle_dir), "--seed", "9",
                     "--out", str(a)]) == 0
    assert cli.main(["infer", "--bundle", str(bundle_dir), "--seed", "9",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["build", "infer", "simulate"])
def test_a_negative_seed_is_refused(bundle_dir, tmp_path, capsys, command):
    target = ["--out", str(tmp_path / "b")] if command == "build" else ["--bundle",
                                                                        str(bundle_dir)]
    assert cli.main([command, "--seed", "-1"] + target) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be non-negative, got -1\n"
    assert captured.out == "" and not (tmp_path / "b").exists()


def test_infer_missing_input_path(bundle_dir, tmp_path, capsys):
    rc = cli.main(["infer", "--bundle", str(bundle_dir),
                   "--input", str(tmp_path / "missing.bin")])
    assert rc == 2
    assert "io error: input path does not exist" in capsys.readouterr().err


def test_infer_truncated_input_blob(bundle_dir, tmp_path, capsys):
    p = tmp_path / "short.bin"
    p.write_bytes(b"\x01\x02\x03")
    rc = cli.main(["infer", "--bundle", str(bundle_dir), "--input", str(p)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: tensor blob header truncated" in err
    assert "height/width/channels" in err


def test_infer_wrong_input_shape(bundle_dir, tmp_path, capsys):
    p = tmp_path / "small.bin"
    fm = FeatureMap.from_array(np.zeros((8, 8, 3), dtype=np.uint8))
    write_tensor_blob(p, fm)
    rc = cli.main(["infer", "--bundle", str(bundle_dir), "--input", str(p)])
    assert rc == 1
    assert "network expects 224x224" in capsys.readouterr().err


# =========================================================================
# quantize
# =========================================================================

def _write_float_weights(d, seed=0):
    from diracdelta.net import build_diracdeltanet, conv_steps

    spec = build_diracdeltanet()
    rng = np.random.default_rng(seed)
    d.mkdir(parents=True, exist_ok=True)
    for step in conv_steps(spec):
        w = rng.normal(scale=0.5, size=(step.out_channels, step.in_channels))
        (d / f"{step.name}.bin").write_bytes(w.astype("<f4").tobytes())
    fcw = rng.normal(scale=0.5, size=(spec.num_classes, spec.conv5_channels))
    (d / "fc.bin").write_bytes(fcw.astype("<f4").tobytes())


def test_quantize_builds_a_runnable_bundle(tmp_path, capsys):
    weights = tmp_path / "weights"
    _write_float_weights(weights, seed=6)
    out = tmp_path / "q"
    rc = cli.main(["quantize", "--weights", str(weights), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "quantized as C_{4,4}, s=1.0" in stdout
    assert cli.main(["validate", "--bundle", str(out)]) == 0
    assert cli.main(["infer", "--bundle", str(out), "--seed", "1"]) == 0


@pytest.mark.parametrize(
    "flag,value,fragment",
    [
        ("--w-bits", "32", "32-bit weight codes are not storable"),
        ("--a-bits", "9", "9-bit activation codes are not storable"),
        ("--w-bits", "5", "5-bit weight codes cannot run on the 4-bit engine pipeline"),
        ("--a-bits", "2", "2-bit activation codes cannot run on the 4-bit engine pipeline"),
    ],
)
def test_quantize_width_policy(tmp_path, capsys, flag, value, fragment):
    rc = cli.main(["quantize", "--weights", str(tmp_path), "--out",
                   str(tmp_path / "q"), flag, value])
    assert rc == 1
    assert fragment in capsys.readouterr().err


def test_quantize_missing_weight_files(tmp_path, capsys):
    rc = cli.main(["quantize", "--weights", str(tmp_path), "--out", str(tmp_path / "q")])
    assert rc == 1
    assert "missing weight file conv1.bin" in capsys.readouterr().err


def test_quantize_refuses_nan_weights_naming_the_layer(tmp_path, capsys):
    weights = tmp_path / "weights"
    _write_float_weights(weights, seed=7)
    fc = np.frombuffer((weights / "fc.bin").read_bytes(), dtype="<f4").copy()
    fc[5] = np.nan
    (weights / "fc.bin").write_bytes(fc.tobytes())
    rc = cli.main(["quantize", "--weights", str(weights), "--out", str(tmp_path / "q")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: layer fc: float weights must be finite\n"
    assert not (tmp_path / "q").exists()


# =========================================================================
# simulate
# =========================================================================

def test_simulate_prints_per_invocation_stats(bundle_dir, tmp_path, capsys):
    table_file = tmp_path / "stats.txt"
    rc = cli.main(["simulate", "--bundle", str(bundle_dir), "--seed", "4",
                   "--out", str(table_file)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "peak |accumulator|" in stdout
    assert "(single-thread scheduler)" in stdout
    table = table_file.read_text()
    lines = table.strip().splitlines()
    assert len(lines) == 1 + 44  # header plus one row per engine invocation
    assert lines[1].startswith("conv1")
    assert any(row.startswith("pool") for row in lines)
    assert any(row.startswith("s4b2_res_conv2") for row in lines)


# =========================================================================
# report
# =========================================================================

def test_report_text_to_stdout(capsys):
    assert cli.main(["report"]) == 0
    stdout = capsys.readouterr().out
    assert "256.0 GMAC/s (512.0 GOP/s)" in stdout
    assert "batch sweep:" in stdout


def test_report_json_with_custom_batches_and_cost_config(tmp_path, capsys):
    cfg = tmp_path / "cost.cfg"
    cfg.write_text("cycles_per_ic_iter = 7\nmemcpy_overlap = 0.25\n")
    out = tmp_path / "report.json"
    rc = cli.main(["report", "--batch", "1,2", "--cost-config", str(cfg),
                   "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert [b["batch"] for b in data["batches"]] == [1, 2]
    assert data["params"]["cycles_per_ic_iter"] == 7
    assert data["params"]["memcpy_overlap"] == 0.25


def test_report_takes_the_shape_from_a_bundle(bundle_dir, tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["report", "--bundle", str(bundle_dir), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["layers"]) == 38


def test_report_rejects_bad_batch_list(capsys):
    rc = cli.main(["report", "--batch", "1,x"])
    assert rc == 1
    assert "--batch wants comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("batch,fragment", [
    ("", "--batch wants comma-separated integers, got ''"),
    ("0", "batch must be >= 1, got 0"),
])
def test_report_rejects_an_empty_or_zero_batch(capsys, batch, fragment):
    rc = cli.main(["report", "--batch", batch])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert fragment in out.err


def test_report_missing_cost_config(tmp_path, capsys):
    rc = cli.main(["report", "--cost-config", str(tmp_path / "none.cfg")])
    assert rc == 2
    assert "cost-config path does not exist" in capsys.readouterr().err


def test_report_bad_cost_config_key(tmp_path, capsys):
    cfg = tmp_path / "cost.cfg"
    cfg.write_text("warp = 9\n")
    rc = cli.main(["report", "--cost-config", str(cfg)])
    assert rc == 1
    assert "unknown cost parameter 'warp'" in capsys.readouterr().err


def test_report_non_utf8_cost_config(tmp_path, capsys):
    cfg = tmp_path / "cost.cfg"
    cfg.write_bytes("clock_hz = 1e8  # \u00e9t\u00e9\n".encode("latin-1"))
    rc = cli.main(["report", "--cost-config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: cost config is not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["ic_parallel", "oc_parallel"])
@pytest.mark.parametrize("value", ["74566", "1" + "0" * 400], ids=["74566", "10**400"])
def test_report_refuses_tiles_wider_than_an_exact_float32_gemm(tmp_path, capsys, key, value):
    cfg = tmp_path / "cost.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert cli.main(["report", "--cost-config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: tile parallelism {key} must be within [1, 74565]\n"
    assert captured.out == ""
    cfg.write_text(f"{key} = 74565\n")
    assert cli.main(["report", "--cost-config", str(cfg)]) == 0


FLOAT_COST_KEYS = [k for k, v in asdict(CostModelParams()).items() if isinstance(v, float)]


@pytest.mark.parametrize("key", FLOAT_COST_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_report_rejects_a_non_finite_cost_config_value(tmp_path, capsys, key, value):
    cfg = tmp_path / "cost.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "r.json"
    rc = cli.main(["report", "--cost-config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("config,figure", [
    ("host_memcpy_bytes_per_s = 5e-324\nmemcpy_overlap = 1.0\n", "batches[0].total_s is nan"),
    ("dram_bandwidth = 1e-320\n", "batches[0].total_s is inf"),
    ("clock_hz = 5e-324\n", "batches[0].total_s is inf"),
    ("clock_hz = 1e308\n", "roofline.compute_roof_macs is inf"),
], ids=["copy-rate-5e-324-overlap-1", "dram-1e-320", "clock-5e-324", "clock-1e308"])
def test_report_refuses_a_cost_config_whose_figures_are_not_finite(tmp_path, capsys, config,
                                                                    figure):
    cfg = tmp_path / "cost.cfg"
    cfg.write_text(config)
    out = tmp_path / "r.json"
    for argv in ([], ["--out", str(out)]):
        assert cli.main(["report", "--cost-config", str(cfg)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cost model figure {figure}: ")
    assert not out.exists()


# =========================================================================
# fuzz gate: every input the CLI reads ends as exit 0, 1 or 2
# =========================================================================

def _paths(obj, path=()):
    """Every key path in a parsed manifest, list elements included."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    return [p for k, v in items for p in [path + (k,)] + _paths(v, path + (k,))]


_JSON_VALUES = st.one_of(
    st.sampled_from([2**64, -2**64, 2**63, float("nan"), float("inf"), float("-inf"),
                     5e-324, -5e-324, 2.2250738585072014e-308, 1e308, True, False, None,
                     0, -1, 1, 0.5]),
    st.integers(-2**70, 2**70),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 64), max_size=3),
    st.dictionaries(st.sampled_from(["a", "name", "s"]), st.integers(0, 2), max_size=2),
)
_COST_VALUES = st.one_of(
    st.sampled_from(["1e400", "-1e400", "nan", "-inf", "5e-324", "-0", "0", "1" + "0" * 400,
                     "-1", "74566", "2**64", "0x20", "1_6", "", "True", "3.5"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
)
_U32 = st.one_of(st.sampled_from([0, 1, 3, 16, 767, 768, 2**31, 2**32 - 1]),
                 st.integers(0, 2**32 - 1))


def _run(argv) -> tuple:
    """(exit code, stdout) of one CLI call; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _infer_on_both_engines(tmp: Path, argv) -> None:
    """Run ``infer argv`` on each engine; both must exit alike, and on exit 0 write
    the same finite logits, whose maximum is the printed class's logit."""
    results = []
    for engine in ("reference", "simulator"):
        out = tmp / f"{engine}.bin"
        rc, stdout = _run(["infer", "--engine", engine, "--out", str(out)] + argv)
        assert rc in (0, 1, 2), engine
        written = None
        if rc == 0:
            written = out.read_bytes()
            out.unlink()
            logits = np.frombuffer(written, "<f8")
            assert np.isfinite(logits).all(), engine
            printed = int(re.search(r"^class (\d+) logit ", stdout, re.M).group(1))
            assert logits[printed] == logits.max(), engine
        results.append((rc, written))
    assert results[0] == results[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(field=st.data(), value=_JSON_VALUES,
       cost_key=st.sampled_from(sorted(asdict(CostModelParams()))), cost_value=_COST_VALUES,
       header=st.tuples(_U32, _U32, _U32), keep=st.integers(0, 400),
       seed=st.one_of(st.integers(0, 2**64), st.just(-1)))
@example(field=("fc", "scale"), value=2**64, cost_key="clock_hz", cost_value="1e8",
         header=(16, 16, 3), keep=400, seed=0)
@example(field=("quant", "s"), value=1.0, cost_key="ic_parallel", cost_value="1" + "0" * 400,
         header=(16, 16, 3), keep=400, seed=0)
@example(field=("quant", "s"), value=1.0, cost_key="clock_hz", cost_value="1e8",
         header=(16, 16, 3), keep=400, seed=-1)
def test_fuzzed_manifests_cost_configs_and_blobs_exit_0_1_or_2(
        tiny_bundle_dir, field, value, cost_key, cost_value, header, keep, seed):
    """Set one manifest field (drawn from the tiny bundle's key paths, or given as a
    path by an explicit example) to ``value``; set ``cost_key`` to ``cost_value``;
    give a frame blob the header ``header`` and keep ``keep`` bytes of its payload."""
    base = json.loads((tiny_bundle_dir / "manifest.json").read_text())
    path = field if isinstance(field, tuple) else field.draw(
        st.sampled_from(_paths(base)), label="field")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "b"
        shutil.copytree(tiny_bundle_dir, root)
        (root / "manifest.json").write_text(json.dumps(_set(base, path, value)))
        assert _run(["validate", "--bundle", str(root)])[0] in (0, 1, 2)
        _infer_on_both_engines(Path(tmp), ["--bundle", str(root), "--seed", str(seed)])

        cfg = Path(tmp) / "cost.cfg"
        values = dict(asdict(CostModelParams()), **{cost_key: cost_value})
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert _run(["report", "--bundle", str(tiny_bundle_dir), "--cost-config", str(cfg)])[0] \
            in (0, 1, 2)

        blob = Path(tmp) / "frame.bin"
        payload = np.random.default_rng(0).integers(0, 256, 384, dtype=np.uint8).tobytes()
        blob.write_bytes((struct.pack("<III", *header) + payload)[:12 + keep])
        _infer_on_both_engines(Path(tmp), ["--bundle", str(tiny_bundle_dir),
                                           "--input", str(blob)])
    assert time.perf_counter() - start < 2.0


# =========================================================================
# module entry point
# =========================================================================

def _run_module(*args):
    """``python -m diracdelta`` in a child that imports the package these tests import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "diracdelta", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_module_entry_point_help():
    proc = _run_module("--help")
    assert proc.returncode == 0
    for command in ("build", "quantize", "infer", "simulate", "report", "validate"):
        assert command in proc.stdout


def test_argparse_rejects_unknown_engine_choice():
    proc = _run_module("infer", "--bundle", "x", "--engine", "gpu")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_a_table_whose_probes_overflow_validates_with_an_empty_stderr(bundle_dir, tmp_path,
                                                                      capsys):
    # acc * weight_scale * s / 15 overflows to inf for most accumulators of
    # this layer; the table still builds, and no numpy warning reaches stderr
    assert cli.main(["validate", "--bundle", str(bundle_dir)]) == 0
    want = capsys.readouterr().out
    root = tmp_path / "b"
    shutil.copytree(bundle_dir, root)
    mf = json.loads((root / "manifest.json").read_text())
    mf["layers"][1].update(alpha=1e308, weight_scale=1e308)
    (root / "manifest.json").write_text(json.dumps(mf))
    proc = _run_module("validate", "--bundle", str(root))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", want)
