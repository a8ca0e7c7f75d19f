"""Write tests/data/ml_reference.csv, the mpmath reference for the Mittag-Leffler scan.

Run from the repository root:

    python tests/make_ml_reference.py

Rows are (alpha, z, E_alpha(z)) for alpha in ALPHAS, at 76 points
z = -40 k / 76 (k = 1..76); at z = -1, where ``tsfrac.kernels.mittag_leffler``
switches from its power series to its quadrature rule, and the float just
below it; at z = -min(2, 4.6^alpha), where rounding costs a double-precision
series up to 1e-13, and the float just below it; and at z = -60, -100,
-1e3, -1e4.  Each value comes from one of two independent routes:

* the power series sum z^k / Gamma(alpha k + 1), carried with enough
  digits to absorb its cancellation, wherever |z|^(1/alpha) <= 2000;
* elsewhere, mpmath.quad of the spectral integral
  (sin a / a) int_0^inf exp(-(x w)^(1/alpha)) / (w^2 + 2 w cos a + 1) dw,
  a = pi alpha, x = -z, at 45 digits.

Where the series runs the spectral integral runs too, and the two must
agree to 1e-15 relative; every quadrature must report an error estimate
below 1e-30 relative.  Takes several minutes.
"""

import math
from pathlib import Path

import mpmath

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
FAR = (-60.0, -100.0, -1e3, -1e4)
OUT = Path(__file__).resolve().parent / "data" / "ml_reference.csv"
DIGITS = 45


def scan_points(alpha):
    points = {-40.0 * k / 76 for k in range(1, 77)} | set(FAR)
    for edge in (-1.0, -min(2.0, 4.6**alpha)):
        points |= {edge, math.nextafter(edge, -math.inf)}
    return sorted(points, reverse=True)


def series(alpha, z):
    # The largest term is about exp(|z|^(1/alpha)); carry that many digits plus 30.
    x = abs(z)
    with mpmath.workdps(int(x ** (1 / alpha) / math.log(10)) + 30):
        a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        total, k = mpmath.mpf(0), 0
        while True:
            term = zz**k / mpmath.gamma(a * k + 1)
            total += term
            if k * alpha > 2 * x ** (1 / alpha) + 5 and abs(term) < 1e-25 * abs(total):
                return +total
            k += 1


def spectral(alpha, z):
    with mpmath.workdps(DIGITS):
        a, x = mpmath.mpf(alpha), -mpmath.mpf(z)
        c, s = mpmath.cos(mpmath.pi * a), mpmath.sin(mpmath.pi * a)
        p = 1 / a

        def f(w):
            return mpmath.exp(-((x * w) ** p)) / (w * w + 2 * w * c + 1)

        # Break where (x w)^(1/alpha) is O(1) and around the peak w = -c (width s).
        pts = {mpmath.mpf(0)} | {mpmath.mpf(r) ** a / x for r in (0.01, 0.1, 0.5, 1, 2, 5, 10, 20, 40)}
        if c < 0:
            pts |= {-c + d * s for d in (-4, -1, -0.25, 0, 0.25, 1, 4) if -c + d * s > 0}
        val, err = mpmath.quad(f, sorted(pts) + [mpmath.inf], error=True)
        assert err < 1e-30 * val, (alpha, z, err, val)
        return s / (mpmath.pi * a) * val


def reference(alpha, z):
    quad = spectral(alpha, z)
    if abs(z) ** (1 / alpha) > 2000:
        return quad
    ser = series(alpha, z)
    assert abs(ser - quad) <= 1e-15 * abs(ser), (alpha, z, ser, quad)
    return ser


def main():
    rows = ["alpha,z,value"]
    for alpha in ALPHAS:
        for z in scan_points(alpha):
            rows.append(f"{alpha!r},{z!r},{mpmath.nstr(reference(alpha, z), 20)}")
        print(f"alpha = {alpha}: done", flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {OUT}")


if __name__ == "__main__":
    main()
