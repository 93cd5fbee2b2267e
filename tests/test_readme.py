import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


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
