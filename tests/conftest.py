import shutil
from pathlib import Path

import pytest

from siegelforms.census import set_cache_dir

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def golden_cache(tmp_path):
    """A cache directory holding copies of the tracked .census_cache files
    (q = 11, 13 and their squares), set as the census cache for the test."""
    cache = tmp_path / "cache"
    cache.mkdir()
    for path in (ROOT / ".census_cache").glob("*.json"):
        shutil.copyfile(path, cache / path.name)
    set_cache_dir(cache)
    yield cache
    set_cache_dir(None)
