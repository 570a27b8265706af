"""Tests of the benchmark's own reference, checks, tracing and calibration.

    python3 -m pytest perfbench -q
"""
import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Recorder, self_times  # noqa: E402

from matorth import WeightParams, build_structure, cli  # noqa: E402


def _hermite_monic(n: int) -> list[np.ndarray]:
    """Monic Hermite polynomial H_n / 2**n by the three-term recurrence."""
    prev, cur = [0.0], [1.0]
    for k in range(n):
        nxt = [0.0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= 0.5 * k * c
        prev, cur = cur, nxt
    return [np.array([[c]], dtype=complex) for c in cur]


def test_gram_reproduces_monic_hermite_norms():
    top = 12
    polys = [_hermite_monic(n) for n in range(top + 1)]
    moments = [np.array([[ref.gauss_moment(m, 1.0)]], dtype=object)
               for m in range(2 * top + 1)]
    g = ref.gram(polys, moments)
    for n in range(top + 1):
        exact = math.sqrt(math.pi) * math.factorial(n) / 2.0 ** n
        assert float(abs(g[n][n][0, 0])) == pytest.approx(exact, rel=1e-15)
        for m in range(n):
            assert float(abs(g[n][m][0, 0])) < 1e-30
    norms = [np.array([[math.sqrt(math.pi) * math.factorial(n) / 2.0 ** n]])
             for n in range(top + 1)]
    defect, norm_dev = ref.sequence_deviations(polys, norms, moments)
    assert defect < 1e-30 and norm_dev < 1e-15


def test_paper_moments_in_closed_form():
    a, b = 0.6 + 0.8j, 2.5
    s0, s1 = ref.moments_2x2(a, b, 2)
    root_pi = math.sqrt(math.pi)
    assert complex(s0[0, 0]) == pytest.approx(root_pi / math.sqrt(b) + abs(a) ** 2 * root_pi / 2)
    assert complex(s0[1, 1]) == pytest.approx(root_pi)
    assert complex(s0[0, 1]) == 0 and complex(s1[0, 0]) == 0
    assert complex(s1[0, 1]) == pytest.approx(a * root_pi / 2)
    assert complex(s1[1, 0]) == pytest.approx(np.conj(a) * root_pi / 2)


def test_structure_moments_agree_with_paper_weight_at_size_2():
    p = WeightParams(2, (0.3 - 1.1j,), 0.7)
    s = build_structure(p)
    via_structure = ref.moments_from_structure(s.nilpotent, s.gauss_scales, 9)
    via_paper = ref.moments_2x2(p.a[0], p.b, 9)
    for x, y in zip(via_structure, via_paper):
        assert max(abs(v) for v in (x - y).flat) < 1e-15 * max(abs(v) for v in y.flat)


def test_digits():
    assert ref.digits(0.0) == ref.DOUBLE_DIGITS
    assert ref.digits(1e-3) == pytest.approx(3.0)
    assert ref.digits(math.nan) == 0.0
    assert ref.digits(math.inf) == 0.0


def test_deviation_gate_rejects_nan():
    tally = wl.Tally()
    tally.deviation("x", math.nan, 1e-8)
    assert tally.problems and tally.digits == 0.0


def _doc(residual, passed=True):
    return {"checks": [{"name": "c", "residual": residual, "pass": passed,
                        "skipped": False}]}


def test_judge_counts_non_finite_pass_as_failed():
    assert wl.judge_verify(_doc(1e-12), 0) == []
    assert wl.judge_verify(_doc(math.nan), 0)
    assert wl.judge_verify(_doc(math.inf), 0)
    assert wl.judge_verify(_doc(1.0, passed=False), 1)


def test_judge_rejects_verify_of_nan_b(tmp_path):
    out = tmp_path / "v.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--b=nan", "--nmax=3", f"--out={out}"])
    assert wl.judge_verify(json.loads(out.read_text()), code)


def test_self_time_subtracts_children():
    spans = [{"id": 0, "name": "item", "parent": None, "start": 0.0, "end": 1.0},
             {"id": 1, "name": "a", "parent": 0, "start": 0.1, "end": 0.4},
             {"id": 2, "name": "b", "parent": 0, "start": 0.5, "end": 0.9}]
    got = self_times(spans)
    assert got["item"] == pytest.approx(0.3)
    assert got["a"] == pytest.approx(0.3) and got["b"] == pytest.approx(0.4)


def test_recorder_nests_and_disabled_records_nothing():
    rec = Recorder(enabled=True)
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert [s["parent"] for s in rec.spans] == [None, 0]
    off = Recorder(enabled=False)
    with off.span("outer"):
        off.count("n")
    assert off.spans == [] and off.counts["n"] == 1


def test_inputs_depend_only_on_seed():
    for make in wl.INPUTS.values():
        assert repr(make(5)) == repr(make(5))
        assert repr(make(5)) != repr(make(6))


def test_calibration_rescales_by_snippet_speed():
    sampler = calibration.Sampler()
    ref_s = calibration.REFERENCE_S
    # twice as slow in [0, 10), at the reference speed in [20, 30)
    sampler.samples = [(t * 0.05, 2 * ref_s) for t in range(200)]
    sampler.samples += [(20 + t * 0.05, ref_s) for t in range(200)]
    assert sampler.scaled(1.0, 3.0) == pytest.approx(1.0)
    assert sampler.scaled(21.0, 23.0) == pytest.approx(2.0)


def test_calibration_sampler_records_and_stops():
    sampler = calibration.Sampler()
    sampler.start()
    time.sleep(0.3)
    sampler.stop()
    assert sampler.samples and not sampler._thread.is_alive()
