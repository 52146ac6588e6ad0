import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_make_datasets_reproduces_the_bundled_files(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_datasets.py"), str(tmp_path)],
                   check=True, capture_output=True)
    bundled = sorted(p.name for p in (ROOT / "datasets").glob("*.csv"))
    assert bundled == sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(bundled) == 6
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (ROOT / "datasets" / name).read_bytes(), name
