"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload decode --seed 1 --trace 0

`paircodes` keeps `lru_cache`s (`build_field`, and the decoder's codebook
cache of up to 8 books), so a pass never shares a process with another:
`run.py` starts one process per pass and runs them one at a time.  The
pass prints one JSON object as its last stdout line; with `--trace 1` it
also records spans (see tracing.py), derives the per-layer metrics from
them and writes the spans to the file named by `--spans`.

The output checks are plain functions so that test_perfbench.py can feed
them planted wrong answers.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from paircodes import (  # noqa: E402
    CodeSpec,
    Poly,
    RingElement,
    build_field,
    cli,
    closed_form_pair_distance,
    codeword_class_count,
    contains,
    decode_min_pair_distance,
    distance_table,
    encode,
    inject_pair_errors,
    pair_read,
    pair_seq_distance,
    pair_weight,
    verify_family,
    x_minus_one_power,
)
from paircodes import channel  # noqa: E402

from tracing import NullTracer, Tracer, layer_self_times, self_times  # noqa: E402

# (p, e, m): the nine families of the acceptance FAMILY_GRID plus three
# larger ones; every row completes under the default budget.
CERTIFY_FAMILIES = (
    (2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 1, 1), (3, 2, 1),
    (5, 1, 1), (2, 2, 2), (3, 1, 2), (7, 1, 1), (5, 1, 2), (2, 3, 3),
)
# families whose verify_family time is a per-layer metric
TIMED_FAMILIES = ((2, 4, 1), (7, 1, 1), (5, 1, 2), (2, 3, 3))
# tracemalloc slows the oracle walk about tenfold, so its peak is taken on
# the families that finish in milliseconds
PEAK_FAMILIES = tuple(f for f in CERTIFY_FAMILIES if f not in TIMED_FAMILIES)
GOLDEN = HERE / "golden_certify.json"

# ((p, m, e, i), t, trials): t pair errors per trial; (3,1,2,1) with t=2
# lies beyond the d_p >= 2t + 1 guarantee, where ties occur.  1000 trials a
# pass leave 10 beyond the pass's p99; the 30 ms trials of the 16384-word
# book get fewer of them so that a pass stays near 10 s.
DECODE_CASES = (
    ((2, 1, 5, 20), 3, 200),
    ((2, 1, 5, 18), 3, 100),
    ((3, 1, 2, 1), 1, 250),
    ((3, 1, 2, 1), 2, 250),
    ((2, 2, 3, 2), 1, 200),
)

# (p, m, e): GF(16) n=16, GF(9) n=9, GF(7) n=49, GF(3) n=27
CODEC_CODES = ((2, 4, 4), (3, 2, 2), (7, 1, 2), (3, 1, 3))
CODEC_OPS = 2000
# (p, m, metric suffix) for the Field.mul / Field.add operand streams
GF_STREAMS = ((7, 1, "q7"), (3, 2, "q9"), (2, 4, "q16"))
GF_STREAM_LEN = 20000

WORKLOADS = ("certify", "decode", "codec")


def fields_of(workload: str) -> list[tuple[int, int]]:
    """The (p, m) of every field the workload builds."""
    if workload == "certify":
        pms = {(p, m) for p, e, m in CERTIFY_FAMILIES}
    elif workload == "decode":
        pms = {(p, m) for (p, m, e, i), t, trials in DECODE_CASES}
    else:
        pms = {(p, m) for p, m, e in CODEC_CODES}
    return sorted(pms)


def family_key(family: tuple[int, int, int]) -> str:
    return "-".join(map(str, family))


def certify_argv(family: tuple[int, int, int]) -> list[str]:
    p, e, m = family
    return ["verify", "--p", str(p), "--e", str(e), "--m", str(m), "--format", "tsv"]


# ---------------------------------------------------------------- host speed

# A shared host's CPU speed flips between a fast and a slow state about
# twofold apart, and the share of time spent slow drifts over seconds to
# minutes; no run length the time budget allows averages that out.
# reference_work is fixed interpreter work outside paircodes, shaped like
# its hot loops: random reads of small tuples from a table of some
# megabytes, zipped and compared, with new tuples made.  A SpeedProbe times
# it on a timer while a pass's work is timed, so every piece of work has a
# local reference time, and reports the piece in nominal seconds: its raw
# seconds times REF_NOMINAL_S over the reference time around it.  A change
# to paircodes moves the raw time and not the reference, so it moves the
# nominal time by the same share.
REF_N = 200  # reference_work size: about 0.5 ms
REF_NOMINAL_S = 0.0005  # one reference_work() call at a typical speed of a 2-core Xeon VM
REF_EVERY_S = 0.01  # timer period of the probe
REF_WINDOW_S = 0.1  # a piece shorter than this uses the samples this wide around it
REF_TABLE_LEN = 40_000  # about 5 MB of 8-tuples

_ref_table: list[tuple[int, ...]] = []
_ref_at = 12345


def reference_work(n: int = REF_N) -> int:
    """n reads from the reference table, each a zip over one 8-tuple.

    The read position carries over from call to call, so successive calls
    touch different parts of the table, as a scan does; the amount of work
    is the same every time.
    """
    global _ref_at
    if not _ref_table:
        _ref_table.extend(tuple(range(k % 7, k % 7 + 8)) for k in range(REF_TABLE_LEN))
    at, total, out = _ref_at, 0, []
    for _ in range(n):
        at = (at * 1103515245 + 12345) & 0x7FFFFFFF
        t = _ref_table[at % REF_TABLE_LEN]
        total += sum(1 for x, y in zip(t, t[1:]) if x != y)
        out.append((t[0], total))
    _ref_at = at
    return total


def setup_reference_s(calls: int = 15) -> float:
    """Median seconds of one reference_work() call, for a set-up process."""
    reference_work()  # warm-up
    times = []
    for _ in range(calls):
        a = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - a)
    return statistics.median(times)


class SpeedProbe:
    """Reference samples taken on a timer while a pass's work is timed.

    Inside `with SpeedProbe() as probe:`, SIGALRM fires every REF_EVERY_S
    and its handler times one reference_work() call.  The work's pieces are
    timed as (start, end) pairs as usual; raw() and nominal() take the
    handler's own time out of any piece it interrupted.
    """

    def __init__(self):
        reference_work()  # warm-up
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        a = time.perf_counter()
        reference_work()
        b = time.perf_counter()
        self.starts.append(a)
        self.ends.append(b)
        self.mids.append((a + b) / 2)

    def raw(self, a: float, b: float) -> float:
        """Seconds from a to b, less the reference calls made in between."""
        k = bisect.bisect_left(self.starts, a)
        out = b - a
        while k < len(self.starts) and self.starts[k] < b:
            out -= self.ends[k] - self.starts[k]
            k += 1
        return out

    def ref_s(self, a: float, b: float) -> float:
        """Mean reference time over [a, b], widened to REF_WINDOW_S."""
        mid = (a + b) / 2
        lo = bisect.bisect_left(self.mids, min(a, mid - REF_WINDOW_S / 2))
        hi = bisect.bisect_right(self.mids, max(b, mid + REF_WINDOW_S / 2))
        if hi == lo:  # no sample near: the nearest ones on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.mids))
        return statistics.fmean(self.ends[k] - self.starts[k] for k in range(lo, hi))

    def nominal(self, a: float, b: float) -> float:
        """raw(a, b) in nominal seconds."""
        return self.raw(a, b) * REF_NOMINAL_S / self.ref_s(a, b)

    def summary(self, pieces: list[tuple[float, float]]) -> dict:
        """wall_s (nominal), wall_raw_s and the reference samples of a pass."""
        return {
            "wall_s": sum(self.nominal(a, b) for a, b in pieces),
            "wall_raw_s": sum(self.raw(a, b) for a, b in pieces),
            "ref_samples": len(self.starts),
            "ref_median_ms": statistics.median(
                e - s for s, e in zip(self.starts, self.ends)) * 1e3,
        }


# ---------------------------------------------------------------- checks


def parse_tsv(tsv: str) -> list[dict[str, str]]:
    lines = tsv.splitlines()
    if not lines:
        return []
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def certify_problems(family, rc: int, tsv: str, digest: str) -> list[str]:
    """Everything wrong with one `verify --format tsv` run; [] if correct."""
    p, e, m = family
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if hashlib.sha256(tsv.encode()).hexdigest() != digest:
        problems.append("tsv bytes differ from the golden digest")
    rows = parse_tsv(tsv)
    if len(rows) != p**e + 1:
        problems.append(f"{len(rows)} rows, expected {p**e + 1}")
    field = build_field(p, m)
    for row in rows:
        try:
            i = int(row["i"])
            if row["status"] != "match":
                problems.append(f"i={i}: status {row['status']}")
                continue
            d_p = int(row["formula_d_pair"])
            witness = RingElement(field, tuple(int(c) for c in row["witness"].split(",")))
            spec = CodeSpec(p, m, e, i)
        except (KeyError, ValueError) as exc:
            problems.append(f"unreadable row {row}: {exc}")
            continue
        if not contains(spec, witness):
            problems.append(f"i={i}: witness is not a codeword")
        elif pair_weight(witness) != d_p:
            problems.append(f"i={i}: witness pair weight {pair_weight(witness)} != {d_p}")
    return problems


def guaranteed(spec, t: int) -> bool:
    """Whether t pair errors lie within the d_p >= 2t + 1 guarantee."""
    return 2 * t + 1 <= closed_form_pair_distance(spec)


def decode_outcome(spec, t: int, transmitted, received, decoded) -> str:
    """'success', 'tie' or 'wrong' for an acceptable result; 'bad' otherwise.

    Within the d_p >= 2t + 1 guarantee only the transmitted word is
    acceptable.  Beyond it the decoder may report a tie (None) or return
    another codeword, but only one at least as close to the received read
    as the transmitted word, which sits at pair distance t.
    """
    if decoded is not None and decoded.coeffs == transmitted.coeffs:
        return "success"
    if guaranteed(spec, t):
        return "bad"
    if decoded is None:
        return "tie"
    if contains(spec, decoded) and pair_seq_distance(pair_read(decoded), received) <= t:
        return "wrong"
    return "bad"


def codec_problem(member: bool, nonmember: bool) -> str | None:
    """A codeword must be in the code; codeword + e*x^j (e != 0) must not."""
    if member is not True:
        return "encoded word not contained"
    if nonmember is not False:
        return "corrupted word contained"
    return None


# ---------------------------------------------------------------- passes


def certify_pass(seed: int, tr) -> dict:
    """CLI `verify --format tsv` over CERTIFY_FAMILIES; deterministic."""
    golden = json.loads(GOLDEN.read_text())
    real_verify = cli.verify_family
    if tr.enabled:
        # child span of cli.main, so cli self time is the emit/parse cost

        def traced_verify_family(*args, **kwargs):
            with tr.span("oracle.verify_family"):
                return real_verify(*args, **kwargs)

        cli.verify_family = traced_verify_family
    runs, pieces = [], []
    try:
        with SpeedProbe() as probe:
            for op, family in enumerate(CERTIFY_FAMILIES):
                buf = io.StringIO()
                a = time.perf_counter()
                with tr.span("cli.main", op), contextlib.redirect_stdout(buf):
                    rc = cli.main(certify_argv(family))
                pieces.append((a, time.perf_counter()))
                runs.append((family, rc, buf.getvalue()))
    finally:
        cli.verify_family = real_verify

    problems, failed = [], 0
    for family, rc, tsv in runs:
        found = certify_problems(family, rc, tsv, golden[family_key(family)])
        failed += bool(found)
        problems += [f"{family_key(family)}: {msg}" for msg in found]
    # the latency sample is the whole sweep: per-family calls range from
    # 2 ms to 6 s, too skewed for a tail percentile
    out = probe.summary(pieces)
    out.update(op_ms=[out["wall_s"] * 1e3], op_raw_ms=[out["wall_raw_s"] * 1e3],
               attempted=len(runs), failed=failed, problems=problems)
    if tr.enabled:
        out["layer"] = _certify_layers(tr, runs)
    return out


def _certify_layers(tr, runs) -> dict:
    layer = {}
    verify_s = {s[4]: (s[2] - s[1]) / 1e9 for s in tr.spans if s[0] == "oracle.verify_family"}
    for op, family in enumerate(CERTIFY_FAMILIES):
        if family in TIMED_FAMILIES:
            layer[f"oracle.verify_family_s.{family_key(family)}"] = verify_s[op]
    scanned = sum(
        codeword_class_count(CodeSpec(p, m, e, i), True)
        for p, e, m in CERTIFY_FAMILIES
        for i in range(p**e + 1)
    )
    layer["oracle.words_scanned"] = scanned
    layer["oracle.words_per_s"] = scanned / sum(verify_s.values())
    layer["cli.emit_ms"] = 1e3 * sum(
        t for s, t in zip(tr.spans, self_times(tr.spans)) if s[0] == "cli.main"
    )

    for family in CERTIFY_FAMILIES:
        with tr.span("codes.distance_table"):
            distance_table(family[0], family[1], family[2])
    layer["codes.distance_table_ms"] = sum(tr.durations("codes.distance_table")) * 1e3

    witnesses = []
    for (p, e, m), rc, tsv in runs:
        field = build_field(p, m)
        for row in parse_tsv(tsv):
            witnesses.append(RingElement(field, tuple(int(c) for c in row["witness"].split(","))))
    reps = 100
    with tr.span("pairmetrics.pair_weight"):
        for _ in range(reps):
            for w in witnesses:
                pair_weight(w)
    layer["pairmetrics.pair_weight_ns"] = (
        tr.durations("pairmetrics.pair_weight")[0] * 1e9 / (reps * len(witnesses))
    )

    tracemalloc.start()
    for p, e, m in PEAK_FAMILIES:
        verify_family(p, e, m)
    layer["oracle.peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return layer


def _random_message(rng, field, dimension):
    return Poly(field, tuple(rng.randrange(field.q) for _ in range(dimension)))


def decode_pass(seed: int, tr) -> dict:
    """Seeded encode, inject, decode trials; inputs built before timing."""
    rng = random.Random(f"decode/{seed}")
    trials = []
    for (p, m, e, i), t, count in DECODE_CASES:
        spec = CodeSpec(p, m, e, i)
        field = spec.field()
        for _ in range(count):
            word = encode(spec, _random_message(rng, field, spec.dimension))
            with tr.span("pairmetrics.pair_read"):
                clean = pair_read(word)
            with tr.span("channel.inject_pair_errors"):
                received, _ = inject_pair_errors(clean, t, rng.randrange(2**63))
            trials.append((spec, t, word, clean, received))
    specs = list(dict.fromkeys(spec for spec, *_ in trials))
    first_clean = {}
    for spec, t, word, clean, received in trials:
        first_clean.setdefault(spec, (word, clean))

    cold = channel._codebook.cache_info().currsize == 0
    decoded, warm, builds, ops = [], [], [], []
    with SpeedProbe() as probe:
        # every CLI `simulate` run pays for its codebook, so the pass does
        # too: the first decode of a code builds its book
        for spec in specs:
            a = time.perf_counter()
            with tr.span("channel.codebook_build"):
                warm.append(decode_min_pair_distance(spec, first_clean[spec][1]))
            builds.append((a, time.perf_counter()))
        for op, (spec, t, word, clean, received) in enumerate(trials):
            a = time.perf_counter()
            with tr.span("channel.decode_min_pair_distance", op):
                decoded.append(decode_min_pair_distance(spec, received))
            ops.append((a, time.perf_counter()))
    info = channel._codebook.cache_info()
    cold = cold and info.misses == len(specs)

    problems = []
    for spec, got in zip(specs, warm):
        if got is None or got.coeffs != first_clean[spec][0].coeffs:
            problems.append(f"{spec}: clean read not decoded to itself")
    within, beyond = [], []
    for (spec, t, word, clean, received), got in zip(trials, decoded):
        outcome = decode_outcome(spec, t, word, received, got)
        (within if guaranteed(spec, t) else beyond).append(outcome)
        if outcome == "bad":
            problems.append(f"{spec} t={t}: decoded {got} for sent {word.coeffs}")
    out = probe.summary(builds + ops)
    out.update(op_ms=[probe.nominal(a, b) * 1e3 for a, b in ops],
               op_raw_ms=[probe.raw(a, b) * 1e3 for a, b in ops],
               attempted=len(specs) + len(trials), failed=len(problems), problems=problems,
               cold=cold)
    if tr.enabled:
        median = statistics.median
        layer = {
            "channel.codebook_build_s": sum(tr.durations("channel.codebook_build")),
            "channel.decode_ms": median(tr.durations("channel.decode_min_pair_distance")) * 1e3,
            "channel.inject_us": median(tr.durations("channel.inject_pair_errors")) * 1e6,
            "pairmetrics.pair_read_us": median(tr.durations("pairmetrics.pair_read")) * 1e6,
            "channel.success_ratio": within.count("success") / len(within),
            "channel.tie_ratio": beyond.count("tie") / len(beyond),
        }
        budget_words = 10_000_000  # EnumBudget's default, the decoder's cache key
        layer["channel.codebook_words"] = sum(
            len(channel._codebook(spec, spec.field(), budget_words)) for spec in specs
        )
        # rebuild the books under tracemalloc; the books stay cached, so
        # the traced memory still held afterwards is their size
        channel._codebook.cache_clear()
        tracemalloc.start()
        for spec in specs:
            decode_min_pair_distance(spec, first_clean[spec][1])
        layer["channel.codebook_mb"] = tracemalloc.get_traced_memory()[0] / 1e6
        tracemalloc.stop()
        out["layer"] = layer
    return out


def codec_pass(seed: int, tr) -> dict:
    """Seeded round trips: encode, contains(codeword), contains(corrupted)."""
    rng = random.Random(f"codec/{seed}")
    ops = []
    for _ in range(CODEC_OPS):
        p, m, e = rng.choice(CODEC_CODES)
        field = build_field(p, m)
        n = p**e
        spec = CodeSpec(p, m, e, rng.randint(1, n - 1))
        message = _random_message(rng, field, spec.dimension)
        error = [0] * n
        error[rng.randrange(n)] = rng.randrange(1, field.q)
        ops.append((spec, message, RingElement(field, tuple(error))))

    results, pieces = [], []
    with SpeedProbe() as probe:
        for op, (spec, message, error) in enumerate(ops):
            a = time.perf_counter()
            with tr.span("codes.encode", op):
                word = encode(spec, message)
            with tr.span("codes.contains.member", op):
                member = contains(spec, word)
            corrupted = word + error
            with tr.span("codes.contains.nonmember", op):
                nonmember = contains(spec, corrupted)
            pieces.append((a, time.perf_counter()))
            results.append((word, member, nonmember))

    problems = []
    for (spec, message, error), (word, member, nonmember) in zip(ops, results):
        msg = codec_problem(member, nonmember)
        if msg:
            problems.append(f"{spec}: {msg}")
    out = probe.summary(pieces)
    out.update(op_ms=[probe.nominal(a, b) * 1e3 for a, b in pieces],
               op_raw_ms=[probe.raw(a, b) * 1e3 for a, b in pieces], attempted=len(ops),
               failed=len(problems), problems=problems)
    if tr.enabled:
        out["layer"] = _codec_layers(tr, rng, ops, results)
    return out


def _codec_layers(tr, rng, ops, results) -> dict:
    for op, ((spec, message, error), (word, *_)) in enumerate(zip(ops, results)):
        field = message.field
        with tr.span("polyring.x_minus_one_power", op):
            gen = x_minus_one_power(field, spec.i, spec.n)
        ring_message = message.to_ring(spec.n)
        with tr.span("polyring.RingElement.__mul__", op):
            ring_message * gen
        lifted = word.lift()
        x_minus_one = Poly(field, (field.neg(1), 1))
        with tr.span("polyring.Poly.divrem", op):
            lifted.divrem(x_minus_one)
    layer = {}
    for name, key in (
        ("codes.encode", "codes.encode_us"),
        ("codes.contains.member", "codes.contains_member_us"),
        ("codes.contains.nonmember", "codes.contains_nonmember_us"),
        ("polyring.x_minus_one_power", "polyring.generator_us"),
        ("polyring.RingElement.__mul__", "polyring.ring_mul_us"),
        ("polyring.Poly.divrem", "polyring.divrem_us"),
    ):
        layer[key] = statistics.median(tr.durations(name)) * 1e6

    def stream(field):
        return [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(GF_STREAM_LEN)]

    for p, m, label in GF_STREAMS:
        field = build_field(p, m)
        pairs = stream(field)
        mul = field.mul
        with tr.span(f"gf.mul.{label}"):
            for a, b in pairs:
                mul(a, b)
        layer[f"gf.mul_ns.{label}"] = tr.durations(f"gf.mul.{label}")[0] * 1e9 / len(pairs)
        if label == "q16":
            add = field.add
            with tr.span("gf.add.q16"):
                for a, b in pairs:
                    add(a, b)
            layer["gf.add_ns.q16"] = tr.durations("gf.add.q16")[0] * 1e9 / len(pairs)
    return layer


PASSES = {"certify": certify_pass, "decode": decode_pass, "codec": codec_pass}


def measure_pass(workload: str, seed: int, traced: bool) -> tuple[dict, Tracer | NullTracer]:
    tr = Tracer() if traced else NullTracer()
    cold = build_field.cache_info().currsize == 0
    for p, m in fields_of(workload):
        with tr.span("gf.build_field"):
            build_field(p, m)
    out = PASSES[workload](seed, tr)
    out["cold"] = cold and out.get("cold", True)
    out["pid"] = os.getpid()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        out["layer"]["gf.build_field_ms"] = sum(tr.durations("gf.build_field")) * 1e3
        out["layer_self_s"] = layer_self_times(tr.spans)
    return out, tr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the recorded spans to")
    args = ap.parse_args(argv)
    out, tr = measure_pass(args.workload, args.seed, bool(args.trace))
    if args.trace and args.spans:
        Path(args.spans).write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": tr.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
