"""Time reduction chains and print their answers, one JSON line per chain.

Each chain is `tests/test_frozen.py::chain` (dependence and reduce_once
until the forms are independent) on a drawn frame (`drawn_frame` of the
same file), or on one of acceptance criterion 4's seeded frames
(`criterion_4_frame` of `tests/conftest.py`).  A line holds
`point_set_s`, the time to build the key's point set (`phi._point_set`)
from an empty cache; `seconds`, the median wall time of 3 runs in this
process, each on a freshly built frame, after that point set is built; and
the final size, the sha256 of every certificate and of the reduced frame, so
two checkouts can be compared answer for answer.  `early-*` names time one
`dependence` on a drawn frame whose vector 1 is twice vector 0.

    PYTHONPATH=src python3 tools/chain_timing.py [NAME ...]

With no NAME it runs the small chains and criterion 4's seeds; `--list`
prints every name.
"""

import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from isoframe.frames import WeightedFrame, dependence, verify  # noqa: E402
from isoframe.kscalar import Field  # noqa: E402
from isoframe.phi import _point_set  # noqa: E402

from conftest import criterion_4_frame  # noqa: E402
from test_frozen import chain, drawn_frame, sha  # noqa: E402

DRAWN = {
    "R3p6-56": (Field.R, 3, 6, 56), "R4p4-70": (Field.R, 4, 4, 70),
    "C3p4-54": (Field.C, 3, 4, 54), "H2p4-40": (Field.H, 2, 4, 40),
    "H2p6-80": (Field.H, 2, 6, 80), "R4p6-126": (Field.R, 4, 6, 126),
    "C3p6-130": (Field.C, 3, 6, 130), "H3p4-140": (Field.H, 3, 4, 140),
}
EARLY = {"early-R4p6-85": (Field.R, 4, 6, 85), "early-C3p4-40": (Field.C, 3, 4, 40),
         "early-H2p6-51": (Field.H, 2, 6, 51)}
CRITERION_4 = {"criterion4-seed8": 8, "criterion4-seed12": 12, "criterion4-seed49": 49}
DEFAULT = ["R3p6-56", "R4p4-70", "C3p4-54", "H2p4-40", *CRITERION_4]
RUNS = 3


def early_frame(field, m, p, n):
    frame = drawn_frame(field, m, p, n)
    u = frame.vectors[0]
    return WeightedFrame(field, m, p, (u, u.scale_real(2)) + frame.vectors[2:], frame.weights)


def build(name):
    if name in EARLY:
        return early_frame(*EARLY[name])
    if name in DRAWN:
        return drawn_frame(*DRAWN[name])
    frame = criterion_4_frame(CRITERION_4[name])
    # a copy is verified, so the timed frame starts with nothing cached
    assert verify(replace(frame)).passed
    return frame


def answer(name, frame):
    if name in EARLY:
        cert = dependence(frame)
        return {"pivot": cert.pivot, "certificate": sha(repr((cert.omega, cert.pivot)))}
    n, steps, reduced = chain(frame)
    return {"n": [frame.n, n], "certificates": steps, "reduced": reduced}


def run(name):
    frame = build(name)
    _point_set.cache_clear()
    start = time.perf_counter()
    _point_set(frame.field, frame.m, frame.p)
    point_set_s = time.perf_counter() - start
    seconds, answers = [], []
    for _ in range(RUNS):
        frame = build(name)
        start = time.perf_counter()
        answers.append(answer(name, frame))
        seconds.append(time.perf_counter() - start)
    assert all(a == answers[0] for a in answers), f"{name}: the runs disagree"
    return {"name": name, "seconds": round(statistics.median(seconds), 4),
            "point_set_s": round(point_set_s, 4), **answers[0]}


def main(argv):
    if argv == ["--list"]:
        print(" ".join([*DRAWN, *CRITERION_4, *EARLY]))
        return
    for name in argv or DEFAULT:
        print(json.dumps(run(name)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
