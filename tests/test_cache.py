from zspairs import EnumConfig
from zspairs.cache import CACHE_DIR_ENV, cache_dir, entry_path, load_report


def test_cache_dir_under_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert cache_dir() == tmp_path / "zspairs"


def test_entry_that_is_a_list_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    path = entry_path(EnumConfig(k=3, sum_cap=9))
    path.write_text("[]")
    assert load_report(EnumConfig(k=3, sum_cap=9)) is None
