"""Hardware unit models: the pooling and shift line buffers. Re-quantization
is `ThresholdTable.apply`, whose comparator forms live with the test oracles;
the shuffle writeback is `ops.concat_shuffle`, whose copy traffic is
`perf.copy_bytes`.

Every unit takes and returns uint8 code arrays, as the engines carry them;
nothing here packs nibbles.

The lanes take whole raster rows and compute each output row with a few
array operations, but they report the peak occupancy of the pixel-serial
line buffer the hardware would build: a closed form over the pixels fed so
far, so tests can pin it against the sizes the RTL would need (width + 1
pixels for the pooler, two padded rows plus one pixel for the shifter). The
pixel-serial lanes themselves are the test oracles these must equal. Both
lanes are built from a row width and a channel count and fed by `feed_row`
per input row. The pooler completes each output row on an odd input row, so
it has nothing to flush; the shifter's last row waits for the bottom zero
ring, which `ShiftLane.finish` pushes. The shifter's taps are fixed by
channel index, so neither lane takes any other parameter.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..ops import SHIFT_CYCLE


def _check_row(arr: np.ndarray, width: int, channels: int) -> None:
    if arr.shape != (width, channels):
        raise ShapeError(
            f"row has shape {arr.shape}, lane expects ({width}, {channels})"
        )


# =========================================================================
# pooling
# =========================================================================

class PoolLane:
    """2x2 stride-2 max pooling over a raster row stream.

    Keeps the previous even row; each odd row completes one output row, the
    max over the row pair and then over column pairs. The pixel-serial line
    buffer holds the previous row plus the pixel to the left, so its
    occupancy after ``fed`` pixels is ``min(fed, width + 1)``.
    """

    def __init__(self, width: int, channels: int):
        if width < 2 or width % 2:
            raise ShapeError(f"pool lane width must be even and >= 2, got {width}")
        self.width = width
        self.channels = channels
        self._fed = 0
        self._upper = None

    @staticmethod
    def full_occupancy(width: int) -> int:
        """Pixels the line buffer holds once full: the previous row and one pixel."""
        return width + 1

    @property
    def max_occupancy(self) -> int:
        return min(self._fed, self.full_occupancy(self.width))

    def feed_row(self, row) -> list:
        """Push a whole row; returns the completed output row, if any."""
        arr = np.asarray(row)
        _check_row(arr, self.width, self.channels)
        self._fed += self.width
        if self._upper is None:
            self._upper = arr
            return []
        pair = np.maximum(self._upper, arr)
        self._upper = None
        return [np.maximum(pair[0::2], pair[1::2])]


# =========================================================================
# shifting
# =========================================================================

class ShiftLane:
    """The fixed shift, `ops.shift`, over a raster row stream via a line buffer.

    Works on the zero-padded image (width + 2 wide, one pixel ring) and keeps
    a window of three padded rows: output row y draws channel c from the
    padded row above, at or below it and one column left, at or right, as
    ``SHIFT_CYCLE[c % 5]`` fixes, so it is complete once padded row y + 1
    has arrived; the last row waits for the bottom ring, pushed by `finish`.
    The pixel-serial line buffer resolves a position as soon as its tap one
    padded row below arrives, so it never holds more than 2D+1 pixels
    (D = width + 2), inside the 2*(width+2)+2 budget the hardware reserves;
    its occupancy after ``fed`` padded pixels, the top ring included, is
    ``min(fed, 2D + 1)``.
    """

    def __init__(self, width: int, channels: int):
        if width < 1:
            raise ShapeError(f"shift lane width must be >= 1, got {width}")
        self.width = width
        self.channels = channels
        self._pad_w = width + 2
        self._fed = 0
        self._window = []       # padded rows above and at the next output row

    @staticmethod
    def full_occupancy(width: int) -> int:
        """Pixels the line buffer holds once full: two padded rows and one pixel."""
        return 2 * (width + 2) + 1

    @property
    def max_occupancy(self) -> int:
        return min(self._fed, self.full_occupancy(self.width))

    def _push(self, padded: np.ndarray) -> list:
        self._fed += self._pad_w
        self._window.append(padded)
        if len(self._window) < 3:
            return []
        out = np.empty((self.width, self.channels), dtype=padded.dtype)
        for k, (dy, dx) in enumerate(SHIFT_CYCLE):
            out[:, k::5] = self._window[1 + dy][1 + dx : 1 + dx + self.width, k::5]
        del self._window[0]
        return [out]

    def feed_row(self, row) -> list:
        """Push one image row; returns any output rows completed by it."""
        arr = np.asarray(row)
        _check_row(arr, self.width, self.channels)
        padded = np.zeros((self._pad_w, self.channels), dtype=arr.dtype)
        padded[1:-1] = arr
        if self._fed == 0:
            self._push(np.zeros_like(padded))
        return self._push(padded)

    def finish(self) -> list:
        """Push the bottom zero ring, which flushes the last output row.

        The flush empties the window, so a second call returns nothing and
        changes nothing.
        """
        if not self._window:
            return []
        rows = self._push(np.zeros_like(self._window[-1]))
        self._window = []
        return rows

