"""Plain PGM image files (P2 ASCII and P5 binary), pixel values mapped to [0, 1]."""

from __future__ import annotations

import numpy as np

from .errors import ParseError, reading


def read_pgm(path: str) -> np.ndarray:
    """Read a P2 or P5 grayscale image as floats in [0, 1]."""
    with reading(path), open(path, "rb") as fh:
        raw = fh.read()
    # tokenize the header, skipping '#' comments
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(raw):
        if raw[pos:pos + 1].isspace():
            pos += 1
            continue
        if raw[pos:pos + 1] == b"#":
            end = raw.find(b"\n", pos)
            pos = len(raw) if end == -1 else end + 1
            continue
        end = pos
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        tokens.append(raw[pos:end])
        pos = end
    if len(tokens) < 4:
        raise ParseError("truncated PGM header")
    magic = tokens[0]
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"not a plain PGM file (magic {magic!r})")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ParseError("non-numeric PGM header fields") from None
    if width < 1 or height < 1 or maxval < 1 or maxval > 65535:
        raise ParseError(f"invalid PGM dimensions {width}x{height}, maxval {maxval}")
    if magic == b"P5":
        body = raw[pos + 1:]  # single whitespace byte after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        count = width * height
        found = len(body) // dtype.itemsize
        if found < count:
            raise ParseError(f"expected {count} pixels, found {found}")
        values = np.frombuffer(body, dtype=dtype, count=count).astype(float)
    else:
        fields = raw[pos:].split()
        if len(fields) < width * height:
            raise ParseError(f"expected {width * height} pixels, found {len(fields)}")
        try:
            values = np.array([int(f) for f in fields[: width * height]], dtype=float)
        except ValueError:
            raise ParseError("non-numeric pixel value") from None
    if values.min() < 0 or values.max() > maxval:
        raise ParseError("pixel value outside [0, maxval]")
    return (values / maxval).reshape(height, width)


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write floats in [0, 1] as an 8-bit binary P5 image (values clipped then quantized)."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ParseError("image must be a 2-d matrix")
    quantized = np.rint(np.clip(image, 0.0, 1.0) * 255).astype(np.uint8)
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())
