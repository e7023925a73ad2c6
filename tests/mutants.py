"""Mutation gate for the schedule rules: every mutant of a rule must make its test module fail.

A mutant is (file under src/, exact source text, replacement, test module).
For each one, src/ is copied to a temporary directory, the text is replaced
once, and the named test module runs with -x -q against that copy. A mutant
whose module still passes survives: no test states that rule. The test
modules first run once against an unmutated copy, so a module that fails
anyway cannot pass for a kill. A source text that is not found once is an
error, not a pass. Mutants run one after another.

Run from the repository root, with pytest installed:

    python tests/mutants.py

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when a
source text is missing or a module fails unmutated.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PS = "qbond/pulse_synthesis.py"
PROP = "qbond/propagation.py"
COLUMNS = "tests/test_columns.py"
SYNTHESIS = "tests/test_pulse_synthesis.py"
PROPAGATION = "tests/test_propagation.py"

# (name, file under src/, exact source text, replacement, test module that must fail)
MUTANTS = [
    # the structural rules of PulseSchedule._check
    ("column lengths", PS, "if len(set(lengths)) > 1:", "if False:", SYNTHESIS),
    ("one offsets entry more", PS, "if len(offsets) != lengths[0] + 1:", "if False:", COLUMNS),
    ("breakpoints (N, 2)", PS, "if points.ndim != 2 or points.shape[1] != 2:", "if False:", SYNTHESIS),
    ("integer offsets", PS, "if not (offsets == np.floor(offsets)).all():", "if False:", COLUMNS),
    ("offsets start at 0", PS, "if offsets[0] != 0:", "if False:", SYNTHESIS),
    ("offsets never decrease", PS, "if (steps < 0).any():", "if False:", SYNTHESIS),
    ("offsets end at the row count", PS, "if offsets[-1] != len(points):", "if False:", SYNTHESIS),
    ("integer levels", PS, "(levels == np.floor(levels))", "(levels == levels)", SYNTHESIS),
    ("levels below 2**53", PS, " & (np.abs(levels) < _LEVEL_MAX)", "", SYNTHESIS),
    # the per-pulse mask terms
    ("k < d", PS, "(levels < d, ", "(levels <= d, ", COLUMNS),
    ("k >= 1", PS, "(levels >= 1, ", "(levels >= 0, ", SYNTHESIS),
    ("area >= 0", PS, "(self.areas >= 0.0)", "(self.areas >= -1.0)", SYNTHESIS),
    ("area < pi", PS, "(self.areas < math.pi)", "(self.areas < 2.0 * math.pi)", COLUMNS),
    ("dipole > 0", PS, "(self.dipoles > 0.0)", "(self.dipoles >= 0.0)", COLUMNS),
    ("dipole finite", PS, "(self.dipoles < math.inf)", "(self.dipoles <= math.inf)", SYNTHESIS),
    ("finite phase", PS, "(np.isfinite(self.phases), ", "(np.isfinite(self.phases) | True, ", SYNTHESIS),
    ("finite times", PS, "(np.isfinite(times) & np.isfinite", "(np.isfinite", SYNTHESIS),
    ("finite amplitudes", PS, " & np.isfinite(points[:, 1])", "", SYNTHESIS),
    ("times start at 0", PS, "~first | (times >= 0.0)", "~first | (times >= -math.inf)", PROPAGATION),
    ("times never decrease", PS, "(times >= np.append(0.0, times[:-1]))", "(times >= -math.inf)", COLUMNS),
    # residual_phases, the check itself and the freeze
    ("residual_phases non-empty", PS, "if not d:", "if False:", SYNTHESIS),
    ("residual_phases finite", PS, "np.isfinite(self.residual_phases).all()", "True", SYNTHESIS),
    ("_check() in __init__", PS, "self._check()\n        self._set(", "self._set(", SYNTHESIS),
    ("read-only columns", PS, "column.setflags(write=False)", "pass", SYNTHESIS),
    # simulate_schedule's samples rule
    ("samples >= 1", PROP, ', ("samples", samples)):', ",):", PROPAGATION),
]


def _run(src: str, module: str) -> bool:
    """True when the test module passes against the package in src."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", module]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode == 0


def _copy(work: str) -> str:
    src = os.path.join(work, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        src = _copy(work)
        for _, path, text, _, _ in MUTANTS:
            with open(os.path.join(src, path), encoding="utf-8") as fh:
                found = fh.read().count(text)
            if found != 1:
                print(f"error: {path}: the source text {text!r} is found {found} times, not once")
                return 2
        for module in sorted({m[-1] for m in MUTANTS}):
            if not _run(src, module):
                print(f"error: {module} fails on the unmutated source")
                return 2
        survivors = []
        for name, path, text, replacement, module in MUTANTS:
            src = _copy(work)
            target = os.path.join(src, path)
            with open(target, encoding="utf-8") as fh:
                source = fh.read()
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source.replace(text, replacement, 1))
            killed = not _run(src, module)
            print(f"{'killed' if killed else 'SURVIVED'}: {name} ({path}, {module})", flush=True)
            if not killed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
