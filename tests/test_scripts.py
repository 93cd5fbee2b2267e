import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _readme_command(script: str) -> list[str]:
    """The README's example invocation of a script, as an argument list."""
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith(f"python scripts/{script} "):
            return line.split()[1:]
    raise AssertionError(f"README has no example for scripts/{script}")


def test_singularity_portrait_readme_example():
    result = subprocess.run(
        [sys.executable, *_readme_command("singularity_portrait.py")],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "classification: noninvertible" in lines
    # x_0 = 0.05 lies below g(3, 1.15) = 0.2333..., so index 0 alone goes singular
    assert "  index 0: x=0.0500  t*_analytic=1.645155995  t*_numeric=1.645155995" in lines
    for i, x in ((1, "0.4000"), (2, "0.3000"), (3, "0.2500")):
        assert f"  index {i}: x={x}  t*_analytic=none  t*_numeric=none" in lines


def test_readme_cli_examples_run_in_order(tmp_path):
    """Every ``paulimix`` line of README's CLI block exits 0, run in order in one directory."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.replace("\\\n", " ").splitlines() if line.startswith("paulimix ")]
    assert len(commands) >= 10
    for args in commands:
        result = subprocess.run([sys.executable, "-m", "paulimix.cli", *args], cwd=tmp_path, env=_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (args, result.stderr)
