"""Row emphasis of the margin-maximizing schemes, ranked in plain Python.

An independent statement of the emphasis the package builds with numpy:
rows are ordered by (margin, row index), so equal margins rank by
position.  uws weighs every row 1, ews:k gives the smallest margin n**k
down to 1**k for the largest, and pws:xi puts 1 on the ceil(n*xi)
smallest margins and 0 elsewhere.
"""
import math


def emphasis(scheme, margins, k=5, xi=0.05):
    m = [float(v) for v in margins]
    n = len(m)
    order = sorted(range(n), key=lambda i: (m[i], i))
    r = [0.0] * n
    for rank, i in enumerate(order):
        if scheme == "uws":
            r[i] = 1.0
        elif scheme == "ews":
            r[i] = float(n - rank) ** k
        elif scheme == "pws":
            r[i] = 1.0 if rank < math.ceil(n * xi) else 0.0
        else:
            raise ValueError(f"no emphasis for scheme {scheme!r}")
    return r
