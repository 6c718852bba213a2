"""Re-create the ae_eval fixture checkpoint from its recorded train command.

Run from the repository root:  python3 perfbench/make_fixture.py

Prints the new digest; workloads.FIXTURE_SHA256 must be updated to it
whenever the fixture is deliberately replaced.
"""

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))
from fiberae.cli import main  # noqa: E402

with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
    if main(wl.FIXTURE_COMMAND + ["--out", tmp]) != 0:
        sys.exit(1)
    wl.FIXTURE.parent.mkdir(exist_ok=True)
    shutil.copyfile(Path(tmp) / wl.FIXTURE.name, wl.FIXTURE)
print(wl.FIXTURE.relative_to(wl.ROOT), hashlib.sha256(wl.FIXTURE.read_bytes()).hexdigest())
