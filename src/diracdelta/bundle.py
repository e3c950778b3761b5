"""Model bundles: the `ModelBundle` the engines run, and its directory on disk.

A `ModelBundle` holds the network spec, the shared quantization params, and
per conv layer its weight codes and its ``alpha``/``weight_scale``. Its
threshold tables are derived state, built by the constructor from each
layer's parameters with `build_threshold_table`; they are neither a
constructor argument nor stored on disk.

On disk a bundle is a directory:

    manifest.json       network shape, quantization params, per-layer rows
    <layer>.w           packed 4-bit weight codes, trailing CRC32 (LE u32)
    fc.w                packed classifier weight codes, trailing CRC32

The manifest holds only what the graph cannot supply: the format version,
the network dimensions, the shared scale and the code widths (both 4, the
only width the engine runs), one ``{name, alpha, weight_scale}`` row per
conv step in `compile_steps` order, and the classifier's ``scale``. The
network object and each row's numbers are the fields of `NetworkSpec` and
`LayerQuantParams`, written and read back by the dataclasses' own field
lists. Layer shapes, fused post-ops and blob names follow from the graph
that the network dimensions compile to, and the tables are rebuilt when the
loaded bundle is constructed, so no stored value can disagree with another.

`manifest.json` is written with sorted keys and a fixed layout so that the
same bundle saves byte-identically every time. A manifest field that is
missing or of the wrong JSON type is reported by its path (say
``layers[0].alpha``), every number is read as a float, and every blob
payload must have exactly the size its shape requires.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import struct
import uuid
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import BundleError, ChecksumError, ConstructionError, DomainError, GraphError
from .net import NetworkSpec, conv_steps
from .quant import (
    LayerQuantParams,
    NetworkQuantParams,
    build_threshold_table,
    quantize_weights,
)
from .tensor import CODE_MAX, WeightMatrix

FORMAT_VERSION = 2
CODE_BITS = CODE_MAX.bit_length()  # the manifest's k_w and k_a: 4


@dataclass
class ModelBundle:
    """Everything needed to run the quantized network.

    Keyed by conv step name: weight codes and the layer quantization
    parameters. Each threshold table is built from its layer's parameters
    when the bundle is constructed, so ``tables`` is not a constructor
    argument and cannot disagree with ``layer_params``. Treated as immutable
    once constructed. ``code_books`` caches the reference engine's code book
    of each narrow conv (`net.code_book`), built on first use; it is not part
    of the bundle's value, so ``==`` and ``repr`` ignore it.
    """

    spec: NetworkSpec
    net: NetworkQuantParams
    weights: dict
    tables: dict = field(init=False)
    layer_params: dict
    fc_weights: WeightMatrix
    fc_scale: float
    code_books: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.tables = {}
        for name, p in self.layer_params.items():
            try:
                self.tables[name] = build_threshold_table(p, self.net)
            except ConstructionError as e:
                raise ConstructionError(f"layer {name}: {e}") from None

    def validate(self) -> None:
        """Walk the graph and check every shape against it."""
        for step in conv_steps(self.spec):
            w = self.weights.get(step.name)
            if w is None:
                raise GraphError(f"layer {step.name}: weights missing from bundle")
            if (w.out_channels, w.in_channels) != (step.out_channels, step.in_channels):
                raise GraphError(
                    f"layer {step.name}: weight shape ({w.out_channels}, {w.in_channels}) "
                    f"does not match graph ({step.out_channels}, {step.in_channels})"
                )
            if step.name not in self.layer_params:
                raise GraphError(f"layer {step.name}: quantization params missing from bundle")
        extra = set(self.weights) - {s.name for s in conv_steps(self.spec)}
        if extra:
            raise GraphError(f"bundle carries weights for unknown layers: {sorted(extra)}")
        fcw = self.fc_weights
        expected = (self.spec.num_classes, self.spec.conv5_channels)
        if (fcw.out_channels, fcw.in_channels) != expected:
            raise GraphError(
                f"layer fc: weight shape ({fcw.out_channels}, {fcw.in_channels}) "
                f"does not match graph {expected}"
            )
        if not 0 < self.fc_scale < math.inf:
            raise GraphError(f"fc_scale must be positive and finite, got {self.fc_scale}")
        top = CODE_MAX * CODE_MAX * self.spec.conv5_channels
        if not math.isfinite(top * self.fc_scale):
            raise GraphError(
                f"fc_scale {self.fc_scale} overflows a logit: {top} * fc_scale is not finite"
            )


_CRC = struct.Struct("<I")


def _frame(payload: bytes) -> bytes:
    return payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def _unframe(buf: bytes, what: str) -> bytes:
    if len(buf) < _CRC.size:
        raise ChecksumError(f"{what}: blob is shorter than its own checksum")
    payload, tail = buf[: -_CRC.size], buf[-_CRC.size :]
    (stored,) = _CRC.unpack(tail)
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(
            f"{what}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )
    return payload


def save_bundle(bundle: ModelBundle, path) -> Path:
    """Write the bundle directory; returns the directory path.

    Tables are stored as the parameters they are built from. The bundle is
    written into a fresh directory next to the target and renamed into
    place, so a save that fails part-way leaves any previous bundle there
    as it was, and a save over a bundle leaves none of its files behind. A
    non-empty target directory that holds no manifest is not a bundle and
    is refused untouched.
    """
    bundle.validate()
    root = Path(path)
    if root.is_dir() and any(root.iterdir()) and not (root / "manifest.json").is_file():
        raise BundleError(
            f"{root} is a non-empty directory without manifest.json, not a bundle "
            "to replace"
        )
    steps = conv_steps(bundle.spec)
    manifest = {
        "fc": {"scale": bundle.fc_scale},
        "format_version": FORMAT_VERSION,
        "layers": [{"name": step.name, **asdict(bundle.layer_params[step.name])}
                   for step in steps],
        "network": asdict(bundle.spec),  # json writes its tuples as lists
        "quant": {"k_a": CODE_BITS, "k_w": CODE_BITS, "s": bundle.net.s},
    }
    root.parent.mkdir(parents=True, exist_ok=True)
    target = root.resolve()  # a symlinked bundle is replaced where it lives
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}")
    tmp.mkdir()
    try:
        (tmp / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        for step in steps:
            (tmp / f"{step.name}.w").write_bytes(_frame(bundle.weights[step.name].packed()))
        (tmp / "fc.w").write_bytes(_frame(bundle.fc_weights.packed()))
        _replace_dir(tmp, target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return root


def _replace_dir(src: Path, dst: Path) -> None:
    """Rename directory ``src`` to ``dst``, deleting what ``dst`` held.

    A directory cannot be renamed over a non-empty one, so an existing
    ``dst`` is first moved aside (and moved back if the second rename
    fails), then deleted.
    """
    if not dst.is_dir():
        os.replace(src, dst)
        return
    old = src.with_name(src.name + ".old")
    os.replace(dst, old)
    try:
        os.replace(src, dst)
    except BaseException:
        os.replace(old, dst)
        raise
    shutil.rmtree(old)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# what a manifest field must be -> test of a parsed JSON value
_KINDS = {
    "an integer": _is_int,
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: isinstance(v, list) and all(_is_int(e) for e in v),
}


def _checked(value, where: str, kind: str):
    """``value`` if it is of the named kind; else a `BundleError` naming the field."""
    if not _KINDS[kind](value):
        raise BundleError(
            f"manifest.json field {where} must be {kind}, got {type(value).__name__}"
        )
    return value


def _field(obj: dict, path: str, key: str, kind: str):
    """``obj[key]``, checked by `_checked`; a missing key is a `BundleError` naming path.key."""
    where = f"{path}.{key}" if path else key
    if key not in obj:
        raise BundleError(f"manifest.json is missing required field {where}")
    return _checked(obj[key], where, kind)


def _number(obj: dict, path: str, key: str) -> float:
    """``obj[key]``, checked by `_field` as a number and read as a float."""
    value = _field(obj, path, key, "a number")
    try:
        return float(value)
    except OverflowError:
        raise BundleError(f"manifest.json field {path}.{key} is beyond the float range") from None


def load_bundle(path) -> ModelBundle:
    """Read a bundle directory back, verifying checksums and rebuilding its tables."""
    root = Path(path)
    mf = root / "manifest.json"
    if not mf.is_file():
        raise BundleError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(mf.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise BundleError(f"manifest.json is not UTF-8 text: {e}") from None
    except (ValueError, RecursionError) as e:  # bad syntax, a 4300-digit integer, deep nesting
        raise BundleError(f"manifest.json is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise BundleError(
            f"manifest.json must hold an object, got {type(manifest).__name__}"
        )
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleError(f"unsupported bundle format_version {version!r}")
    n = _field(manifest, "", "network", "an object")
    dims = {}
    for f in fields(NetworkSpec):
        if isinstance(f.default, tuple):
            dims[f.name] = tuple(_field(n, "network", f.name, "a list of integers"))
        else:
            dims[f.name] = _field(n, "network", f.name, "an integer")
    spec = NetworkSpec(**dims)
    q = _field(manifest, "", "quant", "an object")
    net = NetworkQuantParams(s=_number(q, "quant", "s"))
    for key in ("k_w", "k_a"):
        if (bits := _field(q, "quant", key, "an integer")) != CODE_BITS:
            raise BundleError(f"manifest.json field quant.{key} is {bits}, but the engine "
                              f"runs {CODE_BITS}-bit codes only")
    rows = _field(manifest, "", "layers", "a list")
    fc_row = _field(manifest, "", "fc", "an object")

    # counted from the dimensions first: compiling a huge graph would not finish
    if len(rows) != spec.conv_count:
        raise GraphError(
            f"manifest lists {len(rows)} layers but the graph has {spec.conv_count}"
        )
    steps = conv_steps(spec)
    weights = {}
    layer_params = {}
    for i, (step, row) in enumerate(zip(steps, rows)):
        where = f"layers[{i}]"
        _checked(row, where, "an object")
        name = _field(row, where, "name", "a string")
        if name != step.name:
            raise GraphError(
                f"manifest {where} is {name!r}, but the graph's conv step {i} is {step.name!r}"
            )
        try:
            layer_params[step.name] = LayerQuantParams(
                **{f.name: _number(row, where, f.name) for f in fields(LayerQuantParams)})
        except DomainError as e:
            raise BundleError(f"manifest.json {where}: {e}") from None
        weights[step.name] = _read_weights(root, step.name, step.out_channels,
                                           step.in_channels, f"layer {step.name} weights")
    bundle = ModelBundle(
        spec=spec,
        net=net,
        weights=weights,
        layer_params=layer_params,
        fc_weights=_read_weights(root, "fc", spec.num_classes, spec.conv5_channels,
                                 "fc weights"),
        fc_scale=_number(fc_row, "fc", "scale"),
    )
    bundle.validate()
    return bundle


def _read_weights(root: Path, layer: str, out_channels: int, in_channels: int,
                  what: str) -> WeightMatrix:
    """The weight matrix in ``<layer>.w``, checksum and payload size verified."""
    p = root / f"{layer}.w"
    if not p.is_file():
        raise BundleError(f"{what}: missing blob file {p.name}")
    buf = _unframe(p.read_bytes(), what)
    want = (out_channels * in_channels + 1) // 2
    if len(buf) != want:
        raise BundleError(f"{what}: payload is {len(buf)} bytes, expected {want}")
    return WeightMatrix.from_packed(buf, out_channels, in_channels)


def _assemble(spec: NetworkSpec, net: NetworkQuantParams, layer, alpha) -> ModelBundle:
    """The bundle whose weights come from ``layer`` and whose clip bounds from ``alpha``.

    ``layer(name, (out, in))`` returns a layer's (`WeightMatrix`, weight
    scale) and ``alpha(name)`` its clip bound. For each conv step in graph
    order ``layer`` is called, then ``alpha``; the classifier's ``layer``
    call comes last, and its weight scale sets ``fc_scale``.
    """
    weights = {}
    layer_params = {}
    for step in conv_steps(spec):
        weights[step.name], w_scale = layer(step.name, (step.out_channels, step.in_channels))
        layer_params[step.name] = LayerQuantParams(alpha=alpha(step.name), weight_scale=w_scale)
    fc_weights, fc_w_scale = layer("fc", (spec.num_classes, spec.conv5_channels))
    return ModelBundle(
        spec=spec,
        net=net,
        weights=weights,
        layer_params=layer_params,
        fc_weights=fc_weights,
        fc_scale=fc_w_scale * net.s / CODE_MAX,
    )


def random_bundle(spec: NetworkSpec, net: NetworkQuantParams, seed: int) -> ModelBundle:
    """A structurally valid bundle with seeded random weights.

    Weight codes are uniform over the whole 4-bit range, every layer uses the
    largest-magnitude weight scale (one code step = 1/15) and a clip bound
    drawn from [0.5 s, 1.5 s], which keeps the threshold construction well
    inside its valid range. Deterministic per seed: the same seed always
    saves byte-identical bundles.
    """
    rng = np.random.default_rng(seed)

    def layer(name, shape):
        codes = rng.integers(0, CODE_MAX + 1, size=shape, dtype=np.uint8)
        return WeightMatrix(*shape, codes), 1.0 / CODE_MAX

    return _assemble(spec, net, layer, lambda name: net.s * float(rng.uniform(0.5, 1.5)))


def quantize_bundle(spec: NetworkSpec, net: NetworkQuantParams, float_weights: dict,
                    alphas=None) -> ModelBundle:
    """Quantize float weights into a runnable bundle.

    ``float_weights`` maps every conv step name plus "fc" to a float
    (out, in) array. Each layer's weight scale comes out of its own weight
    quantization; clip bounds default to the shared activation scale and may
    be overridden per layer through ``alphas``.
    """
    alphas = alphas or {}

    def layer(name, shape):
        if name not in float_weights:
            raise BundleError(f"no float weights supplied for layer {name}")
        w = np.asarray(float_weights[name], dtype=np.float64)
        if w.shape != shape:
            raise BundleError(
                f"layer {name}: float weights have shape {w.shape}, expected {shape}")
        if not np.all(np.isfinite(w)):
            raise BundleError(f"layer {name}: float weights must be finite")
        codes, w_scale = quantize_weights(w)
        return WeightMatrix(*shape, codes.astype(np.uint8)), w_scale

    return _assemble(spec, net, layer, lambda name: float(alphas.get(name, net.s)))


def read_float_weights(path, spec: NetworkSpec) -> dict:
    """Load raw float32 weight files: one little-endian `<layer>.bin` each.

    Every conv layer and the classifier ("fc.bin") must be present, stored
    row-major as (out_channels, in_channels).
    """
    root = Path(path)
    shapes = {s.name: (s.out_channels, s.in_channels) for s in conv_steps(spec)}
    shapes["fc"] = (spec.num_classes, spec.conv5_channels)
    out = {}
    for name, (oc, ic) in shapes.items():
        p = root / f"{name}.bin"
        if not p.is_file():
            raise BundleError(f"missing weight file {p.name} for layer {name}")
        buf = p.read_bytes()
        want = oc * ic * 4
        if len(buf) != want:
            raise BundleError(
                f"weight file {p.name}: {len(buf)} bytes, expected {want} "
                f"for shape ({oc}, {ic})"
            )
        out[name] = np.frombuffer(buf, dtype="<f4").reshape(oc, ic).astype(np.float64)
    return out
