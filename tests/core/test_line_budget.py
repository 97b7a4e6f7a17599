"""A line ceiling per package under ``src/repro``; a ceiling may only fall.

ROADMAP item 9: the source grew with every feature and shrank by less in
every trim.  This ratchet holds what a trim wins: each package's
``*.py`` files (``wc -l`` lines: code, comments, docstrings and blank
lines alike) must stay at or under its ceiling.  A change that removes
lines lowers the ceiling with it — the test fails once a package sits
more than ``SLACK`` lines under its ceiling — and no change raises one:
new code pays for itself by removing old.
"""

from pathlib import Path

import repro

#: package (``""``: the modules directly under ``repro``) -> its ceiling.
CEILINGS = {
    "": 1940,
    "apps": 613,
    "baselines": 322,
    "cluster": 1903,
    "core": 5741,
    "fleet": 1100,
    "middleware": 917,
    "net": 2235,
    "obs": 1926,
    "pod": 360,
    "sim": 545,
    "storage": 1342,
    "vos": 2410,
}

#: how far under its ceiling a package may sit before the ceiling must fall.
SLACK = 40

ROOT = Path(repro.__file__).parent


def _lines(package):
    return sum(len(path.read_text().splitlines())
               for path in sorted((ROOT / package).glob("*.py")))


def test_every_package_is_under_its_ceiling():
    over = {package: _lines(package) for package in CEILINGS
            if _lines(package) > CEILINGS[package]}
    assert over == {}, (
        f"over their line ceilings: {over} (ceilings {CEILINGS}) — remove "
        "as many lines as the change adds; do not raise a ceiling")


def test_a_ceiling_falls_with_its_package():
    slack = {package: _lines(package) for package in CEILINGS
             if _lines(package) < CEILINGS[package] - SLACK}
    assert slack == {}, f"lower these ceilings to the new counts: {slack}"


def test_every_package_has_a_ceiling():
    packages = {"" if path == ROOT else path.name
                for path in [ROOT, *ROOT.iterdir()]
                if path.is_dir() and (path / "__init__.py").exists()}
    assert packages == set(CEILINGS)
