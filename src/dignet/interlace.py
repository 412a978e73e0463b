"""Digit interlacing of generating matrices.

Interlacing with factor alpha turns an (alpha*d)-dimensional input into a
d-dimensional output by weaving binary digits: output digit r + (a-1)*alpha
of a coordinate is digit a of input stream r.  The same shuffle applied to
matrix rows produces the generating matrices of the interlaced sequence.
"""

from __future__ import annotations

from math import comb

from .gf2 import BitMatrix
from .niederreiter import GeneratingMatrixSet

__all__ = ["interlace_matrices"]


def interlace_matrices(gset: GeneratingMatrixSet, alpha: int) -> GeneratingMatrixSet:
    """Generating matrices of the interlaced sequence.

    Output row u*alpha + v of E_j is row u+1 of source matrix number
    (j-1)*alpha + v (rows and matrices counted from 1).  When the input is
    a plain construction with quality t', the output carries
    t = alpha*t' + d * alpha*(alpha-1)/2.
    """
    if alpha < 1:
        raise ValueError(f"interlacing factor must be positive, got {alpha}")
    if gset.alpha != 1:
        raise ValueError("input matrices are already interlaced")
    if gset.dimension % alpha:
        raise ValueError(
            f"dimension {gset.dimension} is not a multiple of alpha={alpha}"
        )
    d_out = gset.dimension // alpha
    matrices = []
    for j in range(d_out):
        sources = gset.matrices[j * alpha : (j + 1) * alpha]
        row_masks = []
        for k in range(alpha * gset.rows):
            u, v = divmod(k, alpha)
            row_masks.append(sources[v].row_masks[u])
        matrices.append(BitMatrix(row_masks, gset.cols))
    t = alpha * gset.t + d_out * comb(alpha, 2)
    return GeneratingMatrixSet(
        dimension=d_out,
        alpha=alpha,
        t=t,
        matrices=matrices,
        polynomials=list(gset.polynomials),
    )
