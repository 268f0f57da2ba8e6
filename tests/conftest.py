import importlib.util
import os
from pathlib import Path

import pytest

from clusterlab import CsvFormat, parse_csv, preprocess
from synthwbc import synthetic_wbc_csv

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    """The module of ``tools/<name>.py``; ``tools`` is no package."""
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

#: where the genuine Wisconsin breast-cancer file is looked up; the
#: acceptance tests that reproduce published numbers need it (see
#: data/README.md for how to obtain it)
WBC_CANDIDATES = (
    os.environ.get("CLUSTERLAB_WBC"),
    REPO_ROOT / "data" / "breast-cancer-wisconsin.data",
    REPO_ROOT / "data" / "breast-cancer-wisconsin.csv",
)


def find_wbc_file():
    for cand in WBC_CANDIDATES:
        if cand and Path(cand).is_file():
            return Path(cand)
    return None


@pytest.fixture(scope="session")
def synth_csv() -> bytes:
    return synthetic_wbc_csv()


@pytest.fixture(scope="session")
def synth_csv_path(tmp_path_factory, synth_csv) -> Path:
    path = tmp_path_factory.mktemp("data") / "synthetic_wbc.csv"
    path.write_bytes(synth_csv)
    return path


@pytest.fixture(scope="session")
def synth_table(synth_csv):
    return parse_csv(synth_csv, CsvFormat())


@pytest.fixture(scope="session")
def synth_data(synth_table):
    data, report = preprocess(
        synth_table, id_column="col0", label_column="col10", normalize=True
    )
    return data, report


@pytest.fixture(scope="session")
def wbc_path():
    return find_wbc_file()
