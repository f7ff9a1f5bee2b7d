"""Fitted log-domain model coefficients for representative GOP structures.

Each set maps an objective to the (a, b1, b2) triple of

    ln(objective) = a + b1*QP + b2*QP^2

as fitted per GOP on standard 1080p/480p/720p test clips.  They serve two
purposes: defaults for the synthetic encoder's ground-truth law, and
regression fixtures (a correct fitter must recover them exactly from
noise-free samples over the codec's QP grid).

Bitrate is in kbps, PSNR in dB, VMAF in points, encoding rate in fps.
"""

from __future__ import annotations

Coefficients = tuple[float, float, float]
ModelSet = dict[str, Coefficients]

# (codec, gop, scenario) -> objective -> (a, b1, b2)
REFERENCE_MODEL_SETS: dict[tuple[str, str, str], ModelSet] = {
    ("x265", "B6", "max_quality"): {
        "psnr": (3.866, -0.005, -6.521e-05),
        "vmaf": (3.965, 0.058, -0.001298),
        "bits": (15.946, -0.304, 0.0024092),
        "enc_rate": (1.872, 0.095, 0.0098901),
    },
    ("x265", "B3", "max_quality"): {
        "psnr": (3.86, -0.00661, -7.489899e-05),
        "vmaf": (3.80, 0.069566, -0.0015476),
        "bits": (16.65, -0.319803, 0.002179),
        "enc_rate": (0.706, 0.153, -0.001585),
    },
    ("x265", "B2", "max_quality"): {
        "psnr": (3.89, -0.00854, -4.36249e-05),
        "vmaf": (3.84, 0.066985, -0.00149858),
        "bits": (16.97, -0.337398, 0.00244438),
        "enc_rate": (0.69, 0.1580597, -0.001727),
    },
    ("x265", "B4", "min_bitrate"): {
        "psnr": (3.86, -0.006686, -7.314043e-05),
        "vmaf": (3.822, 0.0684533, -0.0015321),
        "bits": (16.519, -0.313125, 0.00210119),
        "enc_rate": (0.4027, 0.173966, -0.0018987),
    },
    ("x265", "B3", "min_bitrate"): {
        "psnr": (3.86, -0.00661, -7.489899e-05),
        "vmaf": (3.80, 0.069566, -0.0015476),
        "bits": (16.65, -0.319803, 0.002179),
        "enc_rate": (0.706, 0.153, -0.001585),
    },
    ("vp9", "ALT4", "max_quality"): {
        "psnr": (3.853, -0.00363, -5.0348e-05),
        "vmaf": (4.462, 0.01256, -0.0002654),
        "bits": (10.736, -0.0566, -0.000258),
        "enc_rate": (4.50, 0.02354, -0.000105),
    },
    ("vp9", "ALT1", "max_quality"): {
        "psnr": (3.850, -0.00356, -5.211425e-05),
        "vmaf": (4.455, 0.01322, -0.0002811),
        "bits": (10.657, -0.056265, -0.000255),
        "enc_rate": (4.332, 0.034247, -0.000245),
    },
    ("vp9", "ALT2", "max_quality"): {
        "psnr": (3.851, -0.00357, -5.16617e-05),
        "vmaf": (4.4597, 0.012858, -0.0002723),
        "bits": (10.684, -0.05577, -0.0002667),
        "enc_rate": (4.496, 0.023265, -9.7890e-05),
    },
    ("vp9", "ALT2", "min_bitrate"): {
        "psnr": (3.869, -0.00426, -3.593591e-05),
        "vmaf": (4.474, 0.0112119, -0.00023707),
        "bits": (10.331, -0.0466433, -0.0003759),
        "enc_rate": (2.498, 0.1904638, -0.002575699),
    },
    ("vp9", "ALT1", "min_bitrate"): {
        "psnr": (3.869, -0.0042875, -3.604318e-05),
        "vmaf": (4.472, 0.01140, -0.000242),
        "bits": (10.30, -0.046919, -0.000365),
        "enc_rate": (2.587, 0.186147, -0.002526),
    },
    ("vp9", "ALT4", "min_bitrate"): {
        "psnr": (3.871, -0.00433, -3.471101e-05),
        "vmaf": (4.475, 0.011089, -0.000232),
        "bits": (10.390, -0.04794, -0.000366),
        "enc_rate": (2.451, 0.19260, -0.00260),
    },
    ("svt-av1", "HL3ALT8", "max_quality"): {
        "psnr": (3.812, -0.000184, -4.14199e-05),
        "vmaf": (4.566, 0.002096, -5.5965325e-05),
        "bits": (10.7088, -0.0975288, 0.00041118),
        "enc_rate": (2.362, 0.03782, -0.000386),
    },
    ("svt-av1", "HL4ALT8", "max_quality"): {
        "psnr": (3.809, -0.000126, -4.484814e-05),
        "vmaf": (4.563, 0.002373, -6.368074e-05),
        "bits": (10.591, -0.100708, 0.000468),
        "enc_rate": (2.424, 0.031148, -0.0002480),
    },
    ("svt-av1", "HL4ALT8", "min_bitrate"): {
        "psnr": (3.814, -0.000113, -4.18589e-05),
        "vmaf": (4.5593, 0.0019051, -5.356909e-05),
        "bits": (10.518, -0.1047603, 0.0005110),
        "enc_rate": (2.454, 0.0481, -0.00052),
    },
    ("svt-av1", "HL4ALT8", "min_bitrate_low_bw"): {
        "psnr": (3.814, -0.000145, -4.13e-05),
        "vmaf": (4.56, 0.001, -5.2509e-05),
        "bits": (10.534, -0.10598, 0.000529),
        "enc_rate": (2.41, 0.05, -0.00057),
    },
}
