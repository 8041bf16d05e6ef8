import json

import common
import intake


def test_same_seed_same_batch_and_oracle():
    a = intake.generate_intake(800, 5)
    b = intake.generate_intake(800, 5)
    c = intake.generate_intake(800, 6)
    assert a.csv_bytes == b.csv_bytes
    assert a.oracle_json() == b.oracle_json()
    assert a.csv_bytes != c.csv_bytes


def test_every_fault_kind_is_injected_once_per_row():
    batch = intake.generate_intake(800, 1)
    faults = {inj.fault for inj in batch.injections}
    assert faults == set(intake.FAULT_SHARES) | {"collector_burst", "household_cluster"}
    rows = [inj.row for inj in batch.injections]
    assert len(rows) == len(set(rows))


def _run_intake(tmp_path, batch):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(batch.csv_bytes)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dictionary": intake.DICTIONARY}))
    code, _, _ = common.call_cli(["qc", "--records", raw, "--config", config, "--out", tmp_path / "qc"])
    assert code == 2  # injected alerts
    code, _, _ = common.call_cli(["clean", "--records", raw, "--config", config, "--out", tmp_path / "cl"])
    assert code == 0
    verdicts = (tmp_path / "qc" / "verdicts.jsonl").read_text().splitlines()
    log = json.loads((tmp_path / "cl" / "clean_log.json").read_text())
    cleaned = (tmp_path / "cl" / "cleaned.csv").read_bytes()
    return verdicts, log, cleaned


def test_oracle_passes_on_the_program(tmp_path):
    batch = intake.generate_intake(900, 2)
    verdicts, log, cleaned = _run_intake(tmp_path, batch)
    assert intake.check_qc(batch, verdicts) == []
    assert intake.check_clean(batch, log, cleaned) == []


def test_oracle_reports_missed_rules_and_removals(tmp_path):
    batch = intake.generate_intake(900, 2)
    verdicts, log, cleaned = _run_intake(tmp_path, batch)
    short = next(inj for inj in batch.injections if inj.fault == "short_duration")
    tampered = list(verdicts)
    verdict = json.loads(tampered[short.row])
    verdict["triggered"].remove("DURATION_SHORT")
    tampered[short.row] = json.dumps(verdict)
    problems = intake.check_qc(batch, tampered)
    assert any("DURATION_SHORT" in p for p in problems)
    ro = next(inj for inj in batch.injections if inj.fault == "ro_treated")
    log["removed"] = [r for r in log["removed"] if r["row"] != ro.row or r["stage"] != "clean"]
    problems = intake.check_clean(batch, log, cleaned)
    assert any("ro_treated" in p for p in problems)
