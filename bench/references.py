"""Independent mpmath references for the corner constants.

The Riesz and Cesaro corner weights have no closed form, so their
constants are integrated here in polar (m = 2) or spherical (m = 3)
coordinates about the singular corner s = 1 - t = 0, with mpmath's
tanh-sinh rule at 20 significant digits.  The integrands are symmetric
under permuting the axes, so only the sector s_1 >= s_2 (>= s_3) is
integrated and the result multiplied by m!.

Regenerate the stored values with

    python3 bench/references.py > bench/references.json

(several minutes for the m = 3 constant on one core).
"""

import json
import sys

import mpmath as mp

DPS = 20
COMMAND = "python3 bench/references.py > bench/references.json"


def sector2(f):
    """int over (0,1)^2 of f(s1, s2), f symmetric, in polar coordinates.

    The radius is scaled to u = s1 in (0, 1), so t1 = 1 - u stays exact
    and positive up to the far edge of the sector; the clamp keeps s2 <= s1
    where tan(theta) rounds above 1 next to theta = pi/4.
    """

    def angular(th):
        c, tn = mp.cos(th), mp.tan(th)
        return mp.quad(lambda u: u / c**2 * f(u, min(u * tn, u)), [0, 1])

    return 2 * mp.quad(angular, [0, mp.pi / 4])


def sector3(f):
    """int over (0,1)^3 of f(s1, s2, s3), f symmetric, in spherical coordinates.

    The polar axis is s1; the radius is scaled to u = s1 in (0, 1), and
    the clamps keep s1 >= s2 >= s3 against rounding at the sector edges.
    """

    def polar(th):
        ct, st = mp.cos(th), mp.sin(th)

        def azimuthal(ph):
            cp, tp = mp.cos(ph), mp.tan(ph)
            def radial(u):
                s2 = min(u * tp * ct, u)
                return u**2 * tp / cp**2 * f(u, s2, min(u * tp * st, s2))

            return mp.quad(radial, [0, 1])

        return mp.quad(azimuthal, [0, mp.atan(1 / ct)])

    return 6 * mp.quad(polar, [0, mp.pi / 4])


def riesz2_lebesgue():
    # riesz:1.5:2, p = 4 4: int (t1 t2)^(-1/4) |s|^(-1/2) / Gamma(3/2)
    a = mp.mpf(3) / 2
    return sector2(
        lambda s1, s2: ((1 - s1) * (1 - s2)) ** mp.mpf(-0.25)
        * mp.sqrt(s1**2 + s2**2) ** (a - 2)
    ) / mp.gamma(a)


def riesz2_log_moment():
    # riesz:1.5:2 with log(1/t_i) on both axes: the commutator of power:-0.25
    # inputs with log symbols is r^(-1/2) times this moment
    a = mp.mpf(3) / 2
    return sector2(
        lambda s1, s2: ((1 - s1) * (1 - s2)) ** mp.mpf(-0.25)
        * mp.log(1 / (1 - s1)) * mp.log(1 / (1 - s2))
        * mp.sqrt(s1**2 + s2**2) ** (a - 2)
    ) / mp.gamma(a)


def riesz3_lebesgue():
    # riesz:2.5:3, p = 6 6 6: int (t1 t2 t3)^(-1/6) |s|^(-1/2) / Gamma(5/2)
    a = mp.mpf(5) / 2
    return sector3(
        lambda s1, s2, s3: ((1 - s1) * (1 - s2) * (1 - s3)) ** (-mp.mpf(1) / 6)
        * mp.sqrt(s1**2 + s2**2 + s3**2) ** (a - 3)
    ) / mp.gamma(a)


def cesaro2_cesaro_lebesgue():
    # cesaro:1.5:2, p = 4 4: int (t1 t2)^(-3/4) |(s1/t1, s2/t2)|^(-1/2) / Gamma(3/2)
    a = mp.mpf(3) / 2

    def f(s1, s2):
        t1, t2 = 1 - s1, 1 - s2
        return (t1 * t2) ** mp.mpf(-0.75) * mp.sqrt((s1 / t1) ** 2 + (s2 / t2) ** 2) ** (a - 2)

    return sector2(f) / mp.gamma(a)


REFERENCES = {
    "riesz:1.5:2 lebesgue p=4,4": riesz2_lebesgue,
    "riesz:1.5:2 log-moment lambda=-1/4,-1/4": riesz2_log_moment,
    "riesz:2.5:3 lebesgue p=6,6,6": riesz3_lebesgue,
    "cesaro:1.5:2 cesaro-lebesgue p=4,4": cesaro2_cesaro_lebesgue,
}


def main():
    mp.mp.dps = DPS
    values = {name: mp.nstr(fn(), 20) for name, fn in REFERENCES.items()}
    json.dump(
        {"command": COMMAND, "mpmath": mp.__version__, "dps": DPS, "values": values},
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
