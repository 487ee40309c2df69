"""Plain graymap (PGM) reading and writing, plus a synthetic test image.

Supports the ASCII (P2) and binary (P5) variants at 8 or 16 bits per pixel.
`atomic_write` is the one file writer of the package's outputs.
Images travel through the rest of the package as float arrays scaled to
[0, 1]; scaling back to integer levels happens only on write.
"""

import os
import re
import tempfile

import numpy as np


# A header token, after any whitespace and comments before it; a comment
# runs from '#' to the next CR or LF and may follow a token directly.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]+)")
_COMMENT = re.compile(rb"#[^\r\n]*")


def _header_tokens(data):
    """First four whitespace-separated tokens, honoring '#' comments.

    Returns the tokens and the offset one byte past the final token's
    trailing whitespace byte (where a P5 raster begins); a comment right
    after that token ends at its CR or LF, which is that byte.
    """
    tokens = []
    pos = 0
    while len(tokens) < 4:
        match = _TOKEN.match(data, pos)
        if match is None:
            raise ValueError("truncated graymap header")
        tokens.append(match[1])
        pos = match.end()
    comment = _COMMENT.match(data, pos)
    return tokens, (comment.end() if comment else pos) + 1


def _integer(path, field, token):
    """A header or P2 pixel token as an int, or a ValueError that names
    the file and the field."""
    try:
        return int(token)
    except ValueError:
        text = token.decode(errors="replace")
        raise ValueError(
            f"{path}: graymap {field} {text!r} is not an integer") from None


def read_pgm(path):
    """Load a P2 or P5 graymap as a float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    (magic, w_tok, h_tok, max_tok), raster_at = _header_tokens(data)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a graymap: magic {magic!r}")
    width = _integer(path, "width", w_tok)
    height = _integer(path, "height", h_tok)
    maxval = _integer(path, "maxval", max_tok)
    if width < 1 or height < 1:
        raise ValueError(f"bad graymap size {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")

    count = width * height
    if magic == b"P2":
        values = _COMMENT.sub(b" ", data[raster_at - 1 :]).split()
        if len(values) != count:
            raise ValueError(f"expected {count} pixels, found {len(values)}")
        flat = np.array([_integer(path, "pixel", v) for v in values],
                        dtype=np.int64)
        if flat.min() < 0:
            raise ValueError(f"{path}: graymap pixel {flat.min()} is negative")
    else:
        stride = 1 if maxval < 256 else 2
        raw = data[raster_at : raster_at + count * stride]
        if len(raw) != count * stride:
            raise ValueError("binary raster shorter than header promises")
        dtype = np.uint8 if stride == 1 else np.dtype(">u2")
        flat = np.frombuffer(raw, dtype=dtype).astype(np.int64)

    if flat.max(initial=0) > maxval:
        raise ValueError("pixel value exceeds declared maxval")
    return flat.reshape(height, width).astype(float) / float(maxval)


def atomic_write(path, data):
    """Write bytes to `path`: staged in the target directory and moved into
    place, so a crash never leaves a partial file behind.  The file gets
    the mode a plain `open` would give it, 0o666 less the umask (mkstemp
    stages it owner-only)."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # os.umask reads the mask only by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pgm(path, image, maxval=255, binary=True):
    """Write a float image in [0, 1] as a graymap through `atomic_write`;
    values are clipped."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {image.shape}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} outside [1, 65535]")
    levels = np.rint(np.clip(image, 0.0, 1.0) * maxval).astype(np.int64)
    height, width = image.shape

    if binary:
        header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
        dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
        payload = header + levels.astype(dtype).tobytes()
    else:
        lines = [f"P2\n{width} {height}\n{maxval}\n"]
        lines += [" ".join(str(v) for v in row) + "\n" for row in levels]
        payload = "".join(lines).encode("ascii")

    atomic_write(path, payload)


def synthetic_blocks(height=32, width=32):
    """Deterministic piecewise-constant test image in [0, 1].

    Flat regions with a few sharp edges: the shape total-variation style
    regularizers are designed to restore.
    """
    if height < 2 or width < 2:
        raise ValueError("image must be at least 2x2")
    img = np.full((height, width), 0.15)
    img[height // 8 : height // 2, width // 8 : 5 * width // 8] = 0.8
    img[height // 2 : 7 * height // 8, width // 2 : 7 * width // 8] = 0.45
    img[3 * height // 4 :, : width // 4] = 0.6
    return img
