"""Lossy stub codec for the process-path workload (standard library only).

    python3 -S stub_codec.py enc SOURCE PAYLOAD QP
    python3 -S stub_codec.py dec PAYLOAD DECODED QP

The encoder maps every 8-bit sample to round(sample / step) and deflates
the indices at level 1; the decoder inflates them and maps each index back
to min(255, index * step).  The step grows by 2x every 6 QP, as in
H.264/HEVC, so bitrate and PSNR both fall as QP rises.  An identity copy
codec cannot drive ``segenc optimize``: its bitrate and PSNR do not change
with QP, so every model fit fails for zero response variance.

The benchmark imports :func:`encode_table`, :func:`decode_table` and
:func:`payload` to recompute what the stub wrote, so the quantizer is
defined only here.
"""

import sys
import zlib

DEFLATE_LEVEL = 1


def step_for(qp: int) -> int:
    return max(1, round(2 ** ((qp - 4) / 6)))


def encode_table(qp: int) -> bytes:
    step = step_for(qp)
    return bytes(min(255, (v + step // 2) // step) for v in range(256))


def decode_table(qp: int) -> bytes:
    step = step_for(qp)
    return bytes(min(255, i * step) for i in range(256))


def payload(samples: bytes, qp: int) -> bytes:
    return zlib.compress(samples.translate(encode_table(qp)), DEFLATE_LEVEL)


def main(argv: list[str]) -> int:
    if len(argv) != 5 or argv[1] not in ("enc", "dec"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, src, dst, qp = argv[1], argv[2], argv[3], int(argv[4])
    with open(src, "rb") as fh:
        data = fh.read()
    if mode == "enc":
        out = payload(data, qp)
    else:
        out = zlib.decompress(data).translate(decode_table(qp))
    with open(dst, "wb") as fh:
        fh.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
