from __future__ import annotations

import json

import pytest

from ransomlab.cli import main


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_company_a(capsys, sample_dir):
    code, out, err = invoke(capsys, "score", "--profile", str(sample_dir / "company_a.json"))
    assert code == 0
    assert out == "SPS=83.0000 S=59.7500 DP=31.0000 DC=14.9375\n"
    assert err == ""


def test_score_company_b(capsys, sample_dir):
    code, out, _ = invoke(capsys, "score", "--profile", str(sample_dir / "company_b.json"))
    assert code == 0
    assert out == "SPS=11.5000 S=23.3750 DP=72.7500 DC=90.0000\n"


def test_score_json_document(capsys, sample_dir):
    code, out, _ = invoke(capsys, "score", "--profile", str(sample_dir / "company_a.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"SPS": 83.0, "S": 59.75, "DP": 31.0, "DC": 14.9375}


def test_score_missing_file_exits_2(capsys, tmp_path):
    code, out, err = invoke(capsys, "score", "--profile", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_score_invalid_profile_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "variables": {"A": 120}}', encoding="utf-8")
    code, _, err = invoke(capsys, "score", "--profile", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_usage_error_exits_2(capsys, sample_dir):
    with pytest.raises(SystemExit) as excinfo:
        main(["score"])  # missing --profile
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_compare_output(capsys, sample_dir):
    code, out, _ = invoke(
        capsys,
        "compare",
        "--a",
        str(sample_dir / "company_a.json"),
        "--b",
        str(sample_dir / "company_b.json"),
    )
    assert code == 0
    assert out.splitlines() == [
        "a: Company A",
        "b: Company B",
        "SPS: a=83.0000 b=11.5000 higher=a",
        "S: a=59.7500 b=23.3750 higher=a",
        "DP: a=31.0000 b=72.7500 higher=b",
        "DC: a=14.9375 b=90.0000 higher=b",
    ]


def test_compare_profile_with_itself(capsys, sample_dir):
    path = str(sample_dir / "company_a.json")
    code, out, _ = invoke(capsys, "compare", "--a", path, "--b", path)
    assert code == 0
    assert all(line.endswith("higher=equal") for line in out.splitlines()[2:])


def test_sweep_stdout_and_files(capsys, tmp_path):
    code, out, _ = invoke(capsys, "sweep", "--fix", "A=20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,SPS,S,DP,DC"
    assert len(lines) == 102

    out_csv = tmp_path / "a20.csv"
    svg = tmp_path / "a20.svg"
    code, out, _ = invoke(capsys, "sweep", "--fix", "A=20", "--out", str(out_csv), "--svg", str(svg))
    assert code == 0
    assert out == ""
    assert out_csv.read_text(encoding="utf-8").splitlines() == lines
    assert svg.read_text(encoding="utf-8").count("<polyline") == 4


def test_sweep_dc_columns_byte_identical_for_a20_and_a80(capsys, tmp_path):
    a20 = tmp_path / "a20.csv"
    a80 = tmp_path / "a80.csv"
    assert invoke(capsys, "sweep", "--fix", "A=20", "--out", str(a20))[0] == 0
    assert invoke(capsys, "sweep", "--fix", "A=80", "--out", str(a80))[0] == 0

    def dc_column(path) -> list[bytes]:
        return [line.split(b",")[4] for line in path.read_bytes().splitlines()[1:]]

    assert dc_column(a20) == dc_column(a80)
    assert a20.read_bytes() != a80.read_bytes()


def test_sweep_bad_fix_argument(capsys):
    code, _, err = invoke(capsys, "sweep", "--fix", "A:20")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = invoke(capsys, "sweep", "--fix", "Q=20")
    assert code == 2


def test_sweep_unwritable_output_exits_1(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "out.csv"
    code, _, err = invoke(capsys, "sweep", "--fix", "A=20", "--out", str(target))
    assert code == 1
    assert err.startswith("error:")


def test_game_pd_solve(capsys):
    code, out, _ = invoke(capsys, "game", "pd", "--t", "5", "--r", "3", "--p", "1", "--s", "0", "--solve")
    assert code == 0
    assert out.splitlines() == [
        "pure Nash: (Defect, Defect)",
        "mixed Nash: none",
    ]


def test_game_pd_invalid_ordering_exits_2(capsys):
    code, _, err = invoke(capsys, "game", "pd", "--t", "3", "--r", "3", "--p", "1", "--s", "0", "--solve")
    assert code == 2
    assert err.startswith("error:")


def test_game_snowdrift_solve(capsys):
    code, out, _ = invoke(capsys, "game", "snowdrift", "--b", "3", "--c", "1", "--solve")
    assert code == 0
    assert out.splitlines() == [
        "pure Nash: (Cooperate, Defect)",
        "pure Nash: (Defect, Cooperate)",
        "mixed Nash: row=(0.8000, 0.2000) col=(0.8000, 0.2000)",
    ]


def test_game_ransom_solve_defaults(capsys):
    code, out, _ = invoke(capsys, "game", "ransom", "--solve")
    assert code == 0
    assert out.splitlines() == [
        "pure Nash: (NotPay, Decrypt)",
        "pure Nash: (NotPay, NotDecrypt)",
        "mixed Nash: none",
    ]


def test_game_ransom_document(capsys):
    code, out, _ = invoke(capsys, "game", "ransom")
    assert code == 0
    doc = json.loads(out)
    assert doc["row_labels"] == ["NotPay", "Pay"]
    assert doc["payoffs"][0][0] == [100.0, 0.0]
    assert doc["payoffs"][1][1] == [-100.0, 100.0]


def test_game_ransom_custom_payoffs(capsys):
    code, out, _ = invoke(
        capsys, "game", "ransom", "--user", "100,-30,20,-100", "--virus", "0,0,100,100", "--solve"
    )
    assert code == 0
    assert "pure Nash: (NotPay, NotDecrypt)" in out.splitlines()


def test_rank_company_b(capsys, sample_dir):
    code, out, _ = invoke(capsys, "rank", "--profile", str(sample_dir / "company_b.json"))
    assert code == 0
    assert out.splitlines() == [
        "1. Malware removal with antivirus score=84.2500",
        "2. Recover using antivirus + cleaner score=81.5000",
        "3. Recover using shadow volume copies score=77.0000",
        "4. Decrypt taking advantage of VirLock's flaw score=58.1250",
        "5. Ransom payment score=54.8750",
    ]


def test_rank_custom_weights(capsys, sample_dir):
    code, out, _ = invoke(
        capsys, "rank", "--profile", str(sample_dir / "company_b.json"), "--weights", "1,0,0,0"
    )
    assert code == 0
    assert out.splitlines()[0] == "1. Recover using shadow volume copies score=90.0000"


def test_rank_bad_weights_exit_2(capsys, sample_dir):
    code, _, err = invoke(
        capsys, "rank", "--profile", str(sample_dir / "company_b.json"), "--weights", "1,1,1,1"
    )
    assert code == 2
    assert err.startswith("error:")


def test_simulate_zero_probability(capsys, sample_dir):
    code, out, _ = invoke(
        capsys,
        "simulate",
        "--network",
        str(sample_dir / "star4.json"),
        "--ticks",
        "10",
        "--p",
        "0",
        "--seed",
        "7",
    )
    assert code == 0
    assert out == "mean_f=25.0000 stddev_f=0.0000\n"


def test_simulate_deterministic_across_invocations(capsys, sample_dir):
    argv = [
        "simulate",
        "--network",
        str(sample_dir / "ring8.json"),
        "--ticks",
        "15",
        "--p",
        "0.3",
        "--seed",
        "42",
        "--runs",
        "50",
    ]
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first == second
    assert first[0] == 0
    assert first[1].startswith("mean_f=")


def test_simulate_full_spread(capsys, sample_dir):
    code, out, _ = invoke(
        capsys,
        "simulate",
        "--network",
        str(sample_dir / "star4.json"),
        "--ticks",
        "2",
        "--p",
        "1",
        "--seed",
        "1",
        "--runs",
        "3",
    )
    assert code == 0
    assert out == "mean_f=100.0000 stddev_f=0.0000\n"


def test_simulate_over_the_work_cap_exits_2_before_running(capsys, sample_dir):
    code, out, err = invoke(
        capsys, "simulate", "--network", str(sample_dir / "ring8.json"), "--ticks", "15", "--p", "0.3",
        "--seed", "1", "--runs", "1000000000000",
    )
    assert code == 2
    assert out == ""
    assert err == "error: runs * (ticks * (2 * edges + hosts + 1) + 1) must be at most the work cap 10000000000\n"


def test_simulate_with_a_negative_seed_exits_2(capsys, sample_dir):
    code, out, err = invoke(
        capsys, "simulate", "--network", str(sample_dir / "ring8.json"), "--ticks", "5", "--p", "0.3", "--seed", "-1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: seed must be nonnegative, got -1\n"
