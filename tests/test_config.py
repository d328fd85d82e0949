import pytest

from gmspde import cli
from gmspde.config import ConfigError, loads

# grid frequency 2k = 62 >= N/2 on paper_1d; 2-D modes up to index 8 on N=16
ALIASING = {
    "paper_1d": "[domain]\nconvention = paper_1d\ngrid_points = 64\n"
                "[noise]\nmodes = 32\n",
    "square": "[domain]\ndim = 2\ngrid_points = 16\n[noise]\nmodes = 64\n",
}


@pytest.mark.parametrize("name", sorted(ALIASING))
def test_aliasing_modes_are_config_errors(name, tmp_path):
    text = ALIASING[name]
    with pytest.raises(ConfigError, match="aliases"):
        loads(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    argv = ["spectrum", "--config", str(path), "--out-dir",
            str(tmp_path / "out"), "--quiet"]
    assert cli.main(argv) == 1
