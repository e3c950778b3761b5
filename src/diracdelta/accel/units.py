"""Hardware unit models: pooling and shift line buffers and the shuffle
writeback. Re-quantization is `ThresholdTable.apply`; its comparator forms
live with the test oracles.

Every unit takes and returns uint8 code arrays, as the engines carry them;
nothing here packs nibbles.

The lanes here are pixel-serial: they consume a raster stream one pixel at a
time and buffer only what the hardware would, so tests can pin their peak
occupancy against the sizes the RTL would need (width + 1 rows of pixels for
the pooler, two padded rows plus a little slack for the shifter).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import ShapeError
from ..ops import ShiftDirection


# =========================================================================
# pixel-serial pooling
# =========================================================================

class PoolLane:
    """2x2 stride-2 max pooling over a raster pixel stream.

    Keeps at most width + 1 pixels: the previous row plus the pixel to the
    left. A result comes out on every odd row, odd column arrival, built
    from the stored neighbors at offsets -(width+1), -width, -1 and the
    arriving pixel.
    """

    def __init__(self, width: int, channels: int):
        if width < 2 or width % 2:
            raise ShapeError(f"pool lane width must be even and >= 2, got {width}")
        self.width = width
        self.channels = channels
        self.max_occupancy = 0
        self._buf = deque(maxlen=width + 1)
        self._x = 0
        self._y = 0

    def feed(self, pixel):
        """Push one pixel; returns the pooled pixel when a window completes."""
        px = np.asarray(pixel)
        if px.shape != (self.channels,):
            raise ShapeError(f"pixel has shape {px.shape}, lane expects ({self.channels},)")
        out = None
        if self._y % 2 and self._x % 2:
            up_left = self._buf[-(self.width + 1)]
            up = self._buf[-self.width]
            left = self._buf[-1]
            out = np.maximum(np.maximum(up_left, up), np.maximum(left, px))
        self._buf.append(px)
        if len(self._buf) > self.max_occupancy:
            self.max_occupancy = len(self._buf)
        self._x += 1
        if self._x == self.width:
            self._x = 0
            self._y += 1
        return out

    def feed_row(self, row) -> list:
        """Push a whole row; returns the completed output row, if any."""
        arr = np.asarray(row)
        if arr.shape != (self.width, self.channels):
            raise ShapeError(
                f"row has shape {arr.shape}, lane expects ({self.width}, {self.channels})"
            )
        outs = [p for p in (self.feed(px) for px in arr) if p is not None]
        if not outs:
            return []
        return [np.stack(outs)]


# =========================================================================
# pixel-serial shifting
# =========================================================================

class ShiftLane:
    """Per-channel spatial shift over a raster stream via a line buffer.

    Works on the zero-padded image (width + 2 wide, one pixel ring). The
    output pixel at padded position p draws its value from one of the taps
    p-D, p-1, p, p+1, p+D (D is the padded width), so a position resolves as
    soon as p+D has arrived and the buffer never holds more than 2D+1 pixels,
    inside the 2*(width+2)+2 budget the hardware reserves. Outputs are
    assembled into full rows of the original width.
    """

    def __init__(self, width: int, channels: int, directions):
        if width < 1:
            raise ShapeError(f"shift lane width must be >= 1, got {width}")
        if len(directions) != channels:
            raise ShapeError(f"{len(directions)} directions for {channels} channels")
        for d in directions:
            if not isinstance(d, ShiftDirection):
                raise ShapeError("directions must be ShiftDirection values")
        self.width = width
        self.channels = channels
        self.max_occupancy = 0
        # tap index per channel into [identity, up, down, left, right]
        self._tap = np.array(
            [{(0, 0): 0, (1, 0): 1, (-1, 0): 2, (0, 1): 3, (0, -1): 4}[(d.dy, d.dx)]
             for d in directions],
            dtype=np.intp,
        )
        self._chan = np.arange(channels)
        self._pad_w = width + 2
        self._buf = deque()     # padded pixels with indices [_base, _fed)
        self._base = 0
        self._fed = 0
        self._center = 0        # next padded position to resolve
        self._rows_in = 0
        self._pending = []
        self._dtype = None

    def _push(self, px) -> list:
        self._buf.append(px)
        self._fed += 1
        if len(self._buf) > self.max_occupancy:
            self.max_occupancy = len(self._buf)
        done = []
        while self._center + self._pad_w < self._fed:
            done.extend(self._resolve(self._center))
            self._center += 1
            floor = self._center - self._pad_w
            while self._base < floor:
                self._buf.popleft()
                self._base += 1
        return done

    def _resolve(self, p: int) -> list:
        d = self._pad_w
        y, x = divmod(p, d)
        if y == 0 or x == 0 or x == d - 1:
            return []

        def at(i):
            return self._buf[i - self._base]

        candidates = np.stack(
            [
                at(p),       # identity: in[y][x]
                at(p + d),   # up: takes from the row below
                at(p - d),   # down: takes from the row above
                at(p + 1),   # left: takes from the right neighbor
                at(p - 1),   # right: takes from the left neighbor
            ]
        )
        out_px = candidates[self._tap, self._chan]
        self._pending.append(out_px)
        if len(self._pending) == self.width:
            row = np.stack(self._pending)
            self._pending = []
            return [row]
        return []

    def _feed_padded_row(self, pixels) -> list:
        done = []
        for px in pixels:
            done.extend(self._push(px))
        return done

    def feed_row(self, row) -> list:
        """Push one image row; returns any output rows completed by it."""
        arr = np.asarray(row)
        if arr.shape != (self.width, self.channels):
            raise ShapeError(
                f"row has shape {arr.shape}, lane expects ({self.width}, {self.channels})"
            )
        if self._dtype is None:
            self._dtype = arr.dtype
        zero = np.zeros(self.channels, dtype=arr.dtype)
        done = []
        if self._rows_in == 0:
            done.extend(self._feed_padded_row([zero] * self._pad_w))
        done.extend(self._feed_padded_row([zero, *arr, zero]))
        self._rows_in += 1
        return done

    def finish(self) -> list:
        """Push the bottom zero ring, which flushes the last output row."""
        if self._dtype is None:
            return []
        zero = np.zeros(self.channels, dtype=self._dtype)
        return self._feed_padded_row([zero] * self._pad_w)


# =========================================================================
# shuffle writeback
# =========================================================================

def shuffle_writeback(residual: np.ndarray, skip: np.ndarray):
    """Realize concat-shuffle as addressed writes plus a host copy.

    The rotated concatenation leaves the residual half contiguous at channel
    offset C/4 of the output, so the engine stores it there directly. The
    skip half lands as two wrapped chunks (its first quarter at offset 3C/4,
    its second at offset 0), which the host copies; the returned byte count
    is that copy traffic, half a byte per 4-bit code.
    """
    if skip.shape[:2] != residual.shape[:2]:
        raise ShapeError(
            f"branch spatial sizes differ: {skip.shape[:2]} vs {residual.shape[:2]}"
        )
    h, w, half = skip.shape
    if half != residual.shape[2]:
        raise ShapeError(
            f"branch channel counts differ: {half} vs {residual.shape[2]}"
        )
    c = 2 * half
    if c % 4:
        raise ShapeError(f"concatenated channel count {c} must be divisible by 4")
    q = c // 4
    out = np.zeros((h, w, c), dtype=np.uint8)
    out[:, :, q : q + half] = residual      # engine writeback, one base offset
    out[:, :, 3 * q :] = skip[:, :, :q]     # host copy, wrapped chunk 1
    out[:, :, :q] = skip[:, :, q:]          # host copy, wrapped chunk 2
    memcpy_bytes = h * w * half // 2
    return out, memcpy_bytes
