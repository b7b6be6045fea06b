"""Every single-leaf config mutation of the sweep ends with a documented exit code.

The mutations come from ``tests/fuzz_configs.py``, which also runs the
sweep as a script.  Each run goes through ``cli.main`` in this process with
``--threads 1`` and must return 0, 1, 2 or 3 within 5 s without raising.
The sweep holds the mutations that compress the curved nonlinear film until
its stiffness has no Cholesky factor, and at least one of them steps
through the block factor's Schur complement.
"""

import filmstab.elasticity as elasticity
from filmstab.cli import _THREAD_VARS
from fuzz_configs import label, mutations, run_mutation

SWEEP = mutations()


def test_the_sweep_covers_every_command():
    from filmstab.config import COMMANDS

    assert len(SWEEP) == 1054
    assert {command for command, _, _ in SWEEP} == set(COMMANDS) == {
        "critical-point", "stability", "flat-threshold", "crystalline", "verify-identity", "oracle-check"}


def test_every_mutation_ends_with_a_documented_exit_code(tmp_path, monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)  # --threads seeds them in this process
    schur_steps = []
    solve = elasticity.BlockCholesky.solve

    def recording(self, b):
        schur_steps.append(self.schur is not None)
        return solve(self, b)

    monkeypatch.setattr(elasticity.BlockCholesky, "solve", recording)
    failures = []
    for i, (command, path, value) in enumerate(SWEEP):
        code, wall, printed = run_mutation(command, path, value, tmp_path / str(i))
        if code not in (0, 1, 2, 3) or wall > 5.0 or "Traceback" in printed:
            failures.append(f"{command} {label(path, value)}: exit {code} in {wall:.2f} s\n{printed[-2000:]}")
    assert not failures, "\n".join(failures)
    assert any(schur_steps)
