import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "csv_drift.py"
_spec = importlib.util.spec_from_file_location("csv_drift", _SCRIPT)
csv_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_drift)

_PAIRS = "method,pair,max_rel_err\ntalbot,1/p,{}\n"


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


def test_drift_per_method(tmp_path, capsys):
    old = _write(tmp_path / "old", {"pairs.csv": _PAIRS.format("1.0e-6")})
    new = _write(tmp_path / "new", {"pairs.csv": _PAIRS.format("1.5e-6")})
    assert csv_drift.main(["csv_drift.py", str(old), str(new)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:2] == ["pairs.csv", "talbot"]
    assert [float(v) for v in row[2:4]] == [5.0e-7, 0.5]


def test_file_in_one_directory_only_is_listed(tmp_path, capsys):
    summary = "experiment,method,max_err\nA,talbot,1.0\n"
    old = _write(tmp_path / "old", {"summary.csv": summary, "pairs.csv": _PAIRS.format("1e-6")})
    new = _write(tmp_path / "new", {"summary.csv": summary, "extra.csv": summary})
    assert csv_drift.main(["csv_drift.py", str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert f"pairs.csv          only in {old}" in out
    assert f"extra.csv          only in {new}" in out
    assert csv_drift.main(["csv_drift.py", str(old), str(tmp_path / "missing")]) == 2
