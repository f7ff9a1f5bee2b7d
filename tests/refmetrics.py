"""Plain float64 PSNR-611 and mean SSIM, written apart from ``segenc.media``.

Both take (frames, width*height*3/2) uint8 arrays of planar 4:2:0 video.
The tests compare the program's integer kernels with these.
"""

import math

import numpy as np

C1 = (0.01 * 255.0) ** 2
C2 = (0.03 * 255.0) ** 2


def planes(frames: np.ndarray, width: int, height: int) -> list[np.ndarray]:
    luma = width * height
    chroma = luma // 4
    return [frames[:, :luma], frames[:, luma : luma + chroma], frames[:, luma + chroma :]]


def psnr611(ref: np.ndarray, dist: np.ndarray, width: int, height: int) -> float:
    """Per-plane PSNR of the MSE over all frames (100 dB when equal), weighted 6-1-1."""
    scores = []
    for a, b in zip(planes(ref, width, height), planes(dist, width, height)):
        mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
        scores.append(100.0 if mse == 0 else 10.0 * math.log10(255.0**2 / mse))
    y, u, v = scores
    return (6.0 * y + u + v) / 8.0


def ssim(ref: np.ndarray, dist: np.ndarray, width: int, height: int) -> float:
    """Mean luma SSIM over every whole 8x8 window of every frame."""
    values = []
    for a, b in zip(ref, dist):
        x = a[: width * height].reshape(height, width).astype(np.float64)
        y = b[: width * height].reshape(height, width).astype(np.float64)
        for i in range(0, height - 7, 8):
            for j in range(0, width - 7, 8):
                bx = x[i : i + 8, j : j + 8]
                by = y[i : i + 8, j : j + 8]
                mx, my = bx.mean(), by.mean()
                cov = ((bx - mx) * (by - my)).mean()
                values.append(
                    (2 * mx * my + C1) * (2 * cov + C2)
                    / ((mx * mx + my * my + C1) * (bx.var() + by.var() + C2))
                )
    return float(np.mean(values))
