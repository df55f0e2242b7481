import math

import numpy as np
import pytest

from monoenv.golden import golden_max


def _peaks(centers):
    return lambda ts, rows: [-(t - centers[k]) ** 2 for t, k in zip(ts, rows)]


class TestGoldenMax:
    def test_finds_each_peak(self):
        centers = [0.3, -1.25, 2.0]
        ts = golden_max(_peaks(centers), [0.0, -3.0, 1.0], [1.0, 0.0, 2.0], 80, 1e-12)
        assert ts == pytest.approx(centers, abs=1e-6)

    def test_bracket_together_equals_bracket_alone(self):
        # narrower brackets close first; the rest keep the scalar recurrence
        rng = np.random.default_rng(4)
        lo = (-rng.random(7)).tolist()
        hi = (rng.random(7) * 10.0 ** -rng.integers(0, 8, 7)).tolist()
        centers = (rng.random(7) - 0.5).tolist()
        together = golden_max(_peaks(centers), lo, hi, 60, 1e-13)
        for k in range(7):
            alone = golden_max(_peaks(centers[k:k + 1]), lo[k:k + 1], hi[k:k + 1], 60, 1e-13)
            assert together[k] == alone[0]

    def test_one_call_per_step_on_open_brackets(self):
        calls = []

        def f(ts, rows):
            calls.append(list(rows))
            return [-t * t for t in ts]

        golden_max(f, [-1.0, -1e-12], [1.0, 1e-12], 60, 1e-13)
        both = sum(rows == [0, 1] for rows in calls)
        assert calls[:both] == [[0, 1]] * both  # the narrow bracket closes first,
        assert 2 < both < 10                   # after a few steps,
        assert calls[both:] == [[0]] * (len(calls) - both)  # and is never asked again
        assert len(calls) < 2 + 60

    def test_iteration_cap(self):
        calls = []

        def f(ts, rows):
            calls.append(rows)
            return [-abs(t - 0.1) for t in ts]

        (t,) = golden_max(f, [0.0], [1.0], 5, 0.0)
        width = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5
        assert abs(t - 0.1) <= width
        assert len(calls) == 2 + 4  # the fifth step's new point is never compared
