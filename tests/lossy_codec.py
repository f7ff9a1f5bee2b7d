"""Lossy stand-in codec for process-path tests (standard library only).

    python3 -S lossy_codec.py enc SOURCE PAYLOAD QP
    python3 -S lossy_codec.py dec PAYLOAD DECODED QP

Each 8-bit sample is divided by step = QP // 4 and the quotients are
deflated; the decoder inflates them and maps quotient q back to the middle
of its step, min(255, q * step + step // 2).  Bitrate and PSNR both fall
as QP rises, so the models ``segenc optimize`` fits have something to fit.
"""

import sys
import zlib


def step_for(qp: int) -> int:
    return max(1, qp // 4)


def quantize_table(qp: int) -> bytes:
    return bytes(v // step_for(qp) for v in range(256))


def reconstruct_table(qp: int) -> bytes:
    step = step_for(qp)
    return bytes(min(255, q * step + step // 2) for q in range(256))


def main(argv: list[str]) -> int:
    mode, src, dst, qp = argv[1], argv[2], argv[3], int(argv[4])
    with open(src, "rb") as fh:
        data = fh.read()
    if mode == "enc":
        out = zlib.compress(data.translate(quantize_table(qp)), 1)
    else:
        out = zlib.decompress(data).translate(reconstruct_table(qp))
    with open(dst, "wb") as fh:
        fh.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
