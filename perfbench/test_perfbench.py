"""Tests of the benchmark itself: every output check rejects a planted
wrong answer, so fail_ratio = 0 cannot pass vacuously.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_self_times, self_times  # noqa: E402
from paircodes import (  # noqa: E402
    CodeSpec,
    RingElement,
    build_field,
    cli,
    decode_min_pair_distance,
    generator,
    pair_read,
)
from paircodes.pairmetrics import PairVector  # noqa: E402

FAMILY = (2, 2, 1)


def _verify_tsv(family):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(wl.certify_argv(family))
    return rc, buf.getvalue()


def _digest(tsv):
    return hashlib.sha256(tsv.encode()).hexdigest()


def _replace_witness(tsv, i, witness):
    lines = tsv.splitlines(keepends=True)
    cells = lines[i + 1].rstrip("\n").split("\t")
    cells[6] = witness
    lines[i + 1] = "\t".join(cells) + "\n"
    return "".join(lines)


def test_golden_digests_cover_every_family():
    golden = json.loads(wl.GOLDEN.read_text())
    assert sorted(golden) == sorted(wl.family_key(f) for f in wl.CERTIFY_FAMILIES)


def test_certify_accepts_the_real_output():
    rc, tsv = _verify_tsv(FAMILY)
    golden = json.loads(wl.GOLDEN.read_text())[wl.family_key(FAMILY)]
    assert wl.certify_problems(FAMILY, rc, tsv, golden) == []


def test_certify_rejects_a_witness_outside_the_code():
    rc, tsv = _verify_tsv(FAMILY)
    bad = _replace_witness(tsv, 1, "1,0,0,0")  # 1 is not a root: not in <x-1>
    problems = wl.certify_problems(FAMILY, rc, bad, _digest(bad))
    assert problems == ["i=1: witness is not a codeword"]


def test_certify_rejects_a_witness_of_the_wrong_pair_weight():
    rc, tsv = _verify_tsv(FAMILY)
    # (1,0,1,0) lies in <x-1> but has pair weight 4, not d_p = 3
    bad = _replace_witness(tsv, 1, "1,0,1,0")
    problems = wl.certify_problems(FAMILY, rc, bad, _digest(bad))
    assert problems == ["i=1: witness pair weight 4 != 3"]


def test_certify_rejects_changed_bytes_exit_code_and_status():
    rc, tsv = _verify_tsv(FAMILY)
    golden = _digest(tsv)
    assert wl.certify_problems(FAMILY, rc, tsv + "\n", golden)[0].startswith("tsv bytes")
    assert wl.certify_problems(FAMILY, 1, tsv, golden) == ["exit code 1"]
    bad = tsv.replace("\tmatch\n", "\tmismatch\n", 1)
    assert wl.certify_problems(FAMILY, rc, bad, _digest(bad)) == ["i=0: status mismatch"]


def _decode_fixture():
    # (3,1,2,1) has d_p = 3: t = 1 is guaranteed, t = 2 is not
    spec = CodeSpec(3, 1, 2, 1)
    field = build_field(3, 1)
    sent = generator(CodeSpec(3, 1, 2, 2), field)  # (x-1)^2 lies in <x-1>
    other = sent + generator(spec, field)  # a codeword at pair distance 3
    return spec, field, sent, other


def test_decode_outcome_within_the_guarantee():
    spec, field, sent, other = _decode_fixture()
    received = pair_read(sent)
    assert wl.decode_outcome(spec, 1, sent, received, sent) == "success"
    assert wl.decode_outcome(spec, 1, sent, received, other) == "bad"
    assert wl.decode_outcome(spec, 1, sent, received, None) == "bad"


def test_decode_outcome_beyond_the_guarantee():
    spec, field, sent, other = _decode_fixture()
    clean, near = pair_read(sent).pairs, pair_read(other).pairs
    differ = [k for k in range(spec.n) if clean[k] != near[k]]
    assert len(differ) == 3
    mixed = list(clean)
    for k in differ[:2]:  # two pair errors that move the read toward `other`
        mixed[k] = near[k]
    received = PairVector(field, tuple(mixed))
    assert decode_min_pair_distance(spec, received).coeffs == other.coeffs
    assert wl.decode_outcome(spec, 2, sent, received, other) == "wrong"
    assert wl.decode_outcome(spec, 2, sent, received, None) == "tie"
    not_a_codeword = RingElement(field, (1,) + (0,) * (spec.n - 1))
    assert wl.decode_outcome(spec, 2, sent, received, not_a_codeword) == "bad"
    far = other + generator(spec, field).shift(4)  # a codeword too far away
    assert wl.decode_outcome(spec, 2, sent, pair_read(sent), far) == "bad"


def test_codec_check_rejects_false_membership_results():
    assert wl.codec_problem(True, False) is None
    assert wl.codec_problem(False, False) == "encoded word not contained"
    assert wl.codec_problem(True, True) == "corrupted word contained"


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    with tr.span("cli.main", op=7):
        with tr.span("oracle.verify_family"):
            pass
    outer, inner = tr.spans
    assert inner[3] == 0 and inner[4] == 7
    st = self_times(tr.spans)
    assert st[0] == pytest.approx((outer[2] - outer[1] - (inner[2] - inner[1])) / 1e9)
    assert set(layer_self_times(tr.spans)) == {"cli", "oracle"}


def test_tally_fails_passes_that_could_time_cache_hits():
    good = {"attempted": 10, "failed": 0, "problems": [], "cold": True, "pid": 1}
    assert run.tally([good, dict(good, pid=2)])[:2] == (20, 0)
    assert run.tally([good, dict(good, cold=False, pid=2)])[:2] == (20, 10)
    assert run.tally([good, good])[:2] == (20, 10)


def test_speed_probe_takes_its_samples_out_and_scales_by_the_local_reference():
    probe = wl.SpeedProbe()
    # samples of 1 ms at t = 1 s and t = 2 s, and of 2 ms at t = 3 s
    probe.starts, probe.ends = [1.0, 2.0, 3.0], [1.001, 2.001, 3.002]
    probe.mids = [(a + b) / 2 for a, b in zip(probe.starts, probe.ends)]
    assert probe.raw(0.5, 2.5) == pytest.approx(2.0 - 0.002)
    assert probe.raw(1.5, 1.6) == pytest.approx(0.1)
    # a long piece averages every sample inside it
    assert probe.ref_s(0.5, 3.5) == pytest.approx(0.004 / 3)
    # a short piece with no sample near uses the nearest on either side
    assert probe.ref_s(2.5, 2.51) == pytest.approx(0.0015)
    nominal = probe.nominal(2.5, 2.51)
    assert nominal == pytest.approx(0.01 * wl.REF_NOMINAL_S / 0.0015)
    # the timer really samples while work runs, and leaves no handler behind
    with wl.SpeedProbe() as live:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(live.starts) >= 3
    assert signal.getsignal(signal.SIGALRM) is not live._sample


def test_percentile_is_nearest_rank():
    xs = list(range(1, 1001))
    assert run.percentile(xs, 50) == 500
    assert run.percentile(xs, 99) == 990


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
