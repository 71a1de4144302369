import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from test_codes import irreducible_moduli

from paircodes import channel, cli
from paircodes.codes import CodeSpec
from paircodes.oracle import BudgetExhausted, EnumBudget

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, binary=False, **env_vars):
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "paircodes", *args],
        capture_output=True,
        text=not binary,
        env=env,
    )


def test_table_tsv_exact_bytes():
    proc = run_cli("table", "--p", "2", "--e", "1", "--m", "1", "--format", "tsv")
    assert proc.returncode == 0
    assert proc.stdout == (
        "i\tdimension\td_hamming\td_pair\tbranch\tmds_pair\n"
        "0\t2\t1\t2\ti+2\ttrue\n"
        "1\t1\t2\t2\tn=2\tfalse\n"
        "2\t0\t0\t0\t0\tfalse\n"
    )


def test_table_json_columns():
    proc = run_cli("table", "--p", "3", "--e", "2", "--m", "1", "--format", "json")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)
    assert [r["d_pair"] for r in records] == [2, 3, 4, 4, 6, 6, 6, 9, 9, 0]
    assert [r["d_hamming"] for r in records] == [1, 2, 2, 2, 3, 3, 3, 6, 9, 0]
    proc = run_cli("table", "--p", "5", "--e", "1", "--m", "1", "--format", "json")
    assert [r["d_pair"] for r in json.loads(proc.stdout)] == [2, 3, 4, 5, 5, 0]


def test_table_rejects_bad_parameters():
    proc = run_cli("table", "--p", "4", "--e", "2", "--m", "1")
    assert proc.returncode == 2
    proc = run_cli("table", "--p", "3", "--e", "0", "--m", "1")
    assert proc.returncode == 2
    # a negative e is refused before p**e is taken
    for command in ("table", "mds", "verify"):
        for p in ("2", "0"):
            proc = run_cli(command, "--p", p, "--e", "-1", "--m", "1")
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:")


def test_tsv_has_no_trailing_whitespace_and_lf_endings():
    proc = run_cli(
        "verify", "--p", "2", "--e", "2", "--m", "1", "--format", "tsv", binary=True
    )
    assert proc.returncode == 0
    data = proc.stdout
    assert b"\r" not in data
    for line in data.decode().splitlines():
        assert line == line.rstrip()


def test_verify_all_match_exit_zero():
    proc = run_cli("verify", "--p", "3", "--e", "2", "--m", "1", "--format", "json")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)
    assert len(records) == 10
    assert all(r["status"] == "match" for r in records)
    assert all(r["oracle_d_pair"] == r["formula_d_pair"] for r in records)


def test_verify_extension_field_exit_zero():
    proc = run_cli("verify", "--p", "2", "--e", "2", "--m", "2")
    assert proc.returncode == 0


def test_verify_budget_exit_three():
    proc = run_cli(
        "verify", "--p", "7", "--e", "3", "--m", "2",
        "--max-enum", "1000", "--format", "json",
    )
    assert proc.returncode == 3
    records = json.loads(proc.stdout)
    statuses = {r["status"] for r in records}
    assert statuses == {"match", "skipped"}
    skipped = [r for r in records if r["status"] == "skipped"]
    assert all(r["oracle_d_pair"] is None and r["witness"] is None for r in skipped)


def test_simulate_budget_exit_three():
    proc = run_cli(
        "simulate", "--p", "3", "--e", "2", "--m", "1", "--i", "1", "--t", "1",
        "--trials", "2", "--seed", "1", "--max-enum", "100",
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "incomplete: codebook of 6561 codewords exceeds the budget of 100\n"
    )


def test_simulate_zero_trials_is_an_input_error():
    proc = run_cli(
        "simulate", "--p", "2", "--e", "2", "--m", "1", "--i", "1", "--t", "0",
        "--trials", "0", "--seed", "1",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: trials must be an integer >= 1, got 0\n"


def test_simulate_bit_budget_exit_three():
    # (257,1,1,255) is 66,049 words under --max-enum, but 257 * 257 plane
    # bits per word (545 MB) exceed 64 bits per budgeted word
    proc = run_cli(
        "simulate", "--p", "257", "--e", "1", "--m", "1", "--i", "255", "--t", "1",
        "--trials", "1", "--seed", "1",
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "incomplete: codebook of 66049 codewords needs 4362470401 plane bits,"
        " over the budget of 640000000\n"
    )
    spec = CodeSpec(257, 1, 1, 255)
    field = spec.field()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted):
            channel._codebook(spec, field, EnumBudget().max_codewords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before any plane is built


def test_simulate_large_field_refusal_builds_no_field(monkeypatch, capsys):
    # the zero code at m = 28 is refused from its parameters alone: GF(2^28)
    # would take about a second to build and is never read
    def no_field(self):
        raise AssertionError("a field was built for a refused book")

    monkeypatch.setattr(CodeSpec, "field", no_field)
    argv = [
        "simulate", "--p", "2", "--e", "1", "--m", "28", "--i", "2", "--t", "0",
        "--trials", "1", "--seed", "1",
    ]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "incomplete: codebook of 1 codewords needs 34359738368 plane bits,"
        " over the budget of 640000000\n"
    )


def test_verify_count_too_long_to_print_is_incomplete():
    # (2,14,1) at i = 0 scans 2^16384 - 1 words, a count of 4,933 digits,
    # over the 4,300 that str() of an int allows by default
    proc = run_cli(
        "verify", "--p", "2", "--e", "14", "--m", "1", "--max-enum", "1",
        "--format", "tsv",
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    status = [row.rsplit("\t", 1)[1] for row in proc.stdout.splitlines()[1:]]
    assert status == ["skipped"] * 16383 + ["match"] * 2


def test_simulate_count_too_long_to_print_is_incomplete():
    proc = run_cli(
        "simulate", "--p", "2", "--e", "14", "--m", "1", "--i", "0", "--t", "1",
        "--trials", "1", "--seed", "1",
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "incomplete: codebook of at least 2^16384 codewords exceeds the budget"
        " of 10000000\n"
    )


def test_refusal_under_a_lowered_int_string_limit():
    # 2^4096 words is a count of 1,234 digits, over a limit lowered to 640
    proc = run_cli(
        "simulate", "--p", "2", "--e", "12", "--m", "1", "--i", "0", "--t", "0",
        "--seed", "1", PYTHONINTMAXSTRDIGITS="640",
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "incomplete: codebook of at least 2^4096 codewords exceeds the budget"
        " of 10000000\n"
    )


def test_verify_byte_deterministic():
    runs = [
        run_cli("verify", "--p", "3", "--e", "2", "--m", "1", "--format", "json", binary=True)
        for _ in range(2)
    ]
    jobs = [
        run_cli(
            "verify", "--p", "3", "--e", "2", "--m", "1",
            "--format", "json", "--jobs", "4", binary=True,
        )
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert jobs[0].stdout == jobs[1].stdout
    assert runs[0].stdout == jobs[0].stdout


def test_weight_examples():
    proc = run_cli(
        "weight", "--p", "3", "--m", "1",
        "--vector", "2,1,0,0,0,0,0,0,0", "--format", "json",
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)[0]
    assert rec["hamming_weight"] == 2
    assert rec["pair_weight"] == 3
    assert rec["pair_read"].startswith("(2,1),(1,0),(0,0)")

    proc = run_cli("weight", "--p", "2", "--m", "1", "--vector", "1,0,1,0,0", "--format", "json")
    rec = json.loads(proc.stdout)[0]
    assert rec["hamming_weight"] == 2 and rec["pair_weight"] == 4

    proc = run_cli("weight", "--p", "2", "--m", "1", "--vector", "0,0,0", "--format", "json")
    rec = json.loads(proc.stdout)[0]
    assert rec["hamming_weight"] == 0 and rec["pair_weight"] == 0


def test_weight_input_errors():
    assert run_cli("weight", "--p", "3", "--m", "1", "--vector", "1,4,0").returncode == 2
    assert run_cli("weight", "--p", "3", "--m", "1", "--vector", "1,x,0").returncode == 2
    assert run_cli("weight", "--p", "3", "--m", "1", "--vector", "1").returncode == 2


def test_weight_with_modulus_override():
    proc = run_cli(
        "weight", "--p", "2", "--m", "3", "--modulus", "1,1,0,1",
        "--vector", "5,0,3", "--format", "json",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["hamming_weight"] == 2
    # (x+1)^2 is reducible: rejected
    proc = run_cli(
        "weight", "--p", "2", "--m", "2", "--modulus", "1,0,1", "--vector", "1,0"
    )
    assert proc.returncode == 2


def test_weight_empty_modulus_is_an_input_error():
    proc = run_cli(
        "weight", "--p", "3", "--m", "2", "--vector", "1,2,0", "--modulus", ""
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot parse '--modulus' as comma-separated integers\n"


@pytest.mark.parametrize("p,e,m", [(3, 1, 2), (2, 3, 3)])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_verify_rows_do_not_depend_on_the_modulus(p, e, m, fmt):
    family = ("verify", "--p", str(p), "--e", str(e), "--m", str(m), "--format", fmt)
    plain = run_cli(*family)
    assert plain.returncode == 0 and plain.stdout
    for modulus in irreducible_moduli(p, m):
        proc = run_cli(*family, "--modulus", ",".join(map(str, modulus)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain.stdout, "")
    # a reducible modulus is still refused: x^m - 1 has the root 1
    reducible = ",".join([str(p - 1)] + ["0"] * (m - 1) + ["1"])
    proc = run_cli(*family, "--modulus", reducible)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: modulus")


@pytest.mark.parametrize(
    "p,e,m,code",
    [(2, 4, 2, 0), (3, 2, 2, 0), (5, 1, 3, 0), (7, 1, 2, 0), (2, 5, 2, 3)],
)
def test_verify_rows_do_not_depend_on_m(p, e, m, code):
    # the walk never reads m, so the default budget certifies and skips the
    # rows it does for m = 1; (2,5,2) skips rows 0..8, as (2,5,1) does
    family = ("verify", "--p", str(p), "--e", str(e), "--format", "tsv")
    proc = run_cli(*family, "--m", str(m))
    plain = run_cli(*family, "--m", "1")
    assert proc.returncode == plain.returncode == code
    assert proc.stdout == plain.stdout


def test_pairdist_examples():
    proc = run_cli(
        "pairdist", "--p", "2", "--m", "1",
        "--x", "1,0,1,0,0", "--y", "0,0,0,0,0", "--format", "json",
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)[0]
    assert (rec["d_hamming"], rec["block_count"], rec["d_pair"]) == (2, 2, 4)
    assert rec["identity"] == "ok"

    proc = run_cli(
        "pairdist", "--p", "2", "--m", "1",
        "--x", "1,0,0,0,1", "--y", "0,0,0,0,0", "--format", "json",
    )
    rec = json.loads(proc.stdout)[0]
    assert (rec["d_hamming"], rec["block_count"], rec["d_pair"]) == (2, 1, 3)

    proc = run_cli(
        "pairdist", "--p", "3", "--m", "1", "--x", "1,2,0", "--y", "1,2,0",
        "--format", "json",
    )
    rec = json.loads(proc.stdout)[0]
    assert rec["d_hamming"] == 0 and rec["d_pair"] == 0
    assert rec["identity"] == "n/a"


def test_pairdist_length_mismatch():
    proc = run_cli("pairdist", "--p", "2", "--m", "1", "--x", "1,0", "--y", "1,0,0")
    assert proc.returncode == 2


def test_mds_sets():
    proc = run_cli("mds", "--p", "5", "--e", "1", "--m", "1", "--format", "json")
    assert [r["i"] for r in json.loads(proc.stdout)] == [0, 1, 2, 3]
    proc = run_cli("mds", "--p", "3", "--e", "2", "--m", "1", "--format", "json")
    assert [r["i"] for r in json.loads(proc.stdout)] == [0, 1, 2, 4, 7]
    proc = run_cli("mds", "--p", "2", "--e", "3", "--m", "1", "--format", "json")
    assert [r["i"] for r in json.loads(proc.stdout)] == [0, 1, 2, 6]


def test_simulate_guaranteed_regime():
    proc = run_cli(
        "simulate", "--p", "3", "--e", "2", "--m", "1", "--i", "4",
        "--t", "2", "--trials", "20", "--seed", "7", "--format", "json",
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)[0]
    assert rec["d_pair"] == 6
    assert rec["max_guaranteed_t"] == 2
    assert rec["success_rate"] == 1.0

    proc = run_cli(
        "simulate", "--p", "2", "--e", "2", "--m", "1", "--i", "1",
        "--t", "1", "--trials", "20", "--seed", "1", "--format", "json",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["success_rate"] == 1.0

    proc = run_cli(
        "simulate", "--p", "2", "--e", "2", "--m", "1", "--i", "1",
        "--t", "0", "--trials", "10", "--seed", "2", "--format", "json",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["success_rate"] == 1.0


def test_simulate_field_above_256_symbols():
    # q = 257 symbols do not fit in a byte; the decoder must still run
    proc = run_cli(
        "simulate", "--p", "257", "--e", "1", "--m", "1", "--i", "256",
        "--t", "0", "--trials", "3", "--seed", "1",
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        "p    e  m  i    t  trials  seed  d_pair  max_guaranteed_t  successes  success_rate\n"
        "---  -  -  ---  -  ------  ----  ------  ----------------  ---------  ------------\n"
        "257  1  1  256  0  3       1     257     128               3          1.0\n"
    )


def test_simulate_largest_default_binary_book():
    # 2^23 = 8,388,608 words of length 32: the largest book the default
    # --max-enum admits at n = 32
    proc = run_cli(
        "simulate", "--p", "2", "--e", "5", "--m", "1", "--i", "9",
        "--t", "1", "--trials", "2", "--seed", "1",
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        "p  e  m  i  t  trials  seed  d_pair  max_guaranteed_t  successes  success_rate\n"
        "-  -  -  -  -  ------  ----  ------  ----------------  ---------  ------------\n"
        "2  5  1  9  1  2       1     4       1                 2          1.0\n"
    )


def test_simulate_guarantee_violation_exit_one(monkeypatch, capsys):
    # a decoder that reports a tie on every read fails trials within t <= 2
    monkeypatch.setattr(channel, "decode_min_pair_distance", lambda *args: None)
    argv = [
        "simulate", "--p", "3", "--e", "2", "--m", "1", "--i", "4",
        "--t", "1", "--trials", "3", "--seed", "7",
    ]
    assert cli.main(argv) == 1
    header, _rule, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(), row.split()))["successes"] == "0"


def test_simulate_requires_seed():
    proc = run_cli(
        "simulate", "--p", "3", "--e", "2", "--m", "1", "--i", "4",
        "--t", "2", "--trials", "10",
    )
    assert proc.returncode == 2


def test_simulate_deterministic():
    args = (
        "simulate", "--p", "3", "--e", "2", "--m", "1", "--i", "4",
        "--t", "2", "--trials", "20", "--seed", "7", "--format", "tsv",
    )
    assert run_cli(*args, binary=True).stdout == run_cli(*args, binary=True).stdout


def test_jobs_flag_validation():
    proc = run_cli("table", "--p", "2", "--e", "1", "--m", "1", "--jobs", "0")
    assert proc.returncode == 2


# main(argv) called repeatedly in one process shares one parser


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_parser_is_not_built_at_import():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import paircodes.cli as c; "
        "print(c._build_parser.cache_info().misses)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n"


def test_main_after_usage_errors_matches_fresh_process(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--p", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--p", "2", "--e", "1", "--m", "1", "--jobs", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    args = ["verify", "--p", "3", "--e", "2", "--m", "1", "--format", "tsv"]
    rc = cli.main(args)
    captured = capsys.readouterr()
    fresh = run_cli(*args, binary=True)
    assert (rc, captured.out.encode(), captured.err.encode()) == (
        fresh.returncode, fresh.stdout, fresh.stderr,
    )


def test_format_default_does_not_leak_between_calls(capsys):
    args = ["table", "--p", "3", "--e", "1", "--m", "1"]
    assert cli.main([*args, "--format", "tsv"]) == 0
    capsys.readouterr()
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("-")
    assert out.encode() == run_cli(*args, binary=True).stdout


def test_patched_verify_family_takes_effect_after_first_call(monkeypatch, capsys):
    args = ["verify", "--p", "2", "--e", "2", "--m", "1", "--format", "tsv"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    calls = []
    real = cli.verify_family

    def recording(*a, **kw):
        calls.append(a[:3])
        return real(*a, **kw)

    monkeypatch.setattr(cli, "verify_family", recording)
    assert cli.main(args) == 0
    assert calls == [(2, 2, 1)]
    assert capsys.readouterr().out == first
