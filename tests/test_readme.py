import contextlib
import io
import re
from pathlib import Path

import pytest

from pairgrating import ScenarioConfig, parse_config
from pairgrating.errors import SamplingWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    # sigma_corr = 0.1 um lies below the grid spacing: profiles_for and
    # two_photon_amplitude each warn once
    with pytest.warns(SamplingWarning) as caught, contextlib.redirect_stdout(printed):
        exec(blocks[0], {"__name__": "readme_example"})
    assert [w.category for w in caught] == [SamplingWarning] * 2
    ratio, contrast, full_chain_ratio = map(float, printed.getvalue().split())
    assert full_chain_ratio == pytest.approx(ratio, rel=1e-12)
    assert contrast < 1e-6


def test_readme_config_block_is_the_defaults(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "readme.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    assert parse_config(path) == ScenarioConfig()
