"""Byte and flag pins for the command line.

The digests and option tables below were recorded from the CLI as it stood
before the subcommands were rebuilt on ``clusterlab.pipeline``; any change
to an output byte or to a flag's spelling or default fails here. The input
is the synthetic fixture under a fixed relative path, because ``analyze``
echoes the input path into its report.
"""

import argparse
import hashlib

import pytest

from clusterlab.cli import build_parser, main

INPUT = "synthetic_wbc.csv"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch, synth_csv):
    (tmp_path / INPUT).write_bytes(synth_csv)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _stdout_sha(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return _sha(capsys.readouterr().out.encode("utf-8"))


ANALYZE_RUNS = {
    "defaults": ("--seed", "42"),
    "varied": ("--seed", "3", "--k", "3", "--metric", "manhattan", "--init", "random",
               "--restarts", "5", "--trials", "5", "--hopkins-power", "2",
               "--k-min", "3", "--k-max", "5", "--max-swap-iters", "50", "--json"),
}

ANALYZE_PINS = {
    "defaults": {
        "report.json": "b6decf836a739b0af18d11ab58afd90a8d964e7183e76d92fc4b0fe098fdbb05",
        "report.md": "1ef42b59aa841f07e3cc4502fa985bea7c24b04338fad93369bc20fd41230746",
        "scatter_kmeans.csv": "5d7845b80d2f808bfa3b90b6229af78a507c29d3c3b5bf2cd67f78e63f51a0c9",
        "scatter_kmeans.svg": "0381f167623a19f1bb913cc801df02af33685cfc2c0b8db849cecbf649c78bcc",
        "scatter_pam.csv": "dd79f38d345d408fd36bbfcbe38e42423edd7991494c35a2f05c67711af3a578",
        "scatter_pam.svg": "2e9ce2c172847c0cffad5cc2a8b4d4317f9a5f227720ef2fbeec9488790d630a",
        "silhouette_pam.csv": "8f41fd54ad0158b2cf0eec32bdd3fdcc5f4b59363d3c51e56a2b5ba6b4d7118a",
        "silhouette_pam.svg": "4cdab0dd644d3ee35c993921f9ba26adff113b8bf4659142175ab6dad8512948",
        "stdout": "c09dd1ef0ee7f3ef42c2f09cc163f40080b6f41eb7bdfee91e4e4841d0a5f2bb",
        "sweep.csv": "5285be9154188671882651ffdfc169e7b583b16dc4814fd0675e8222a240f1ee",
        "sweep.svg": "c3cf56a69c35ea98642c3525dd1003f7920fb285a759cee17c2f4d51a8c29d50",
    },
    "varied": {
        "report.json": "b0bdc4371f275626e46418a0b1ef3cbed26fdbc9293b26f79e68734496174fe6",
        "report.md": "f73906ff6b86ea3c051c46184e6ddc370fe21cd092398dade9de7407638f1b70",
        "scatter_kmeans.csv": "7e240faba927545217ea4ef497894a1df164ff5c40cef76db9ebb6f37099ee72",
        "scatter_kmeans.svg": "84ff2992a8fdd7735fe8161779da27fd252920120f59965cfe0dff117eaf1c3e",
        "scatter_pam.csv": "ec403730b530f0e5cba29e578dcdf5e9d754802a6e17167674982e6a886f68d9",
        "scatter_pam.svg": "3b402bc32a555b06eb3c65cc1d5a6d2e903f8c5d2fcd9cb9a5f248cbf2df5da0",
        "silhouette_pam.csv": "4704848145d09234f3ea64840f953499f7749f7cdec1eb47f839a6d49209caf7",
        "silhouette_pam.svg": "51f38f510f0ebddd79498b4e0c44f6eaf692dffb1c86cdc49dc3f0b78f7fd7f4",
        "stdout": "b0bdc4371f275626e46418a0b1ef3cbed26fdbc9293b26f79e68734496174fe6",
        "sweep.csv": "cc30df760af5d53aa6fb131df4120d57a2e73bf9c8224324652f8d038ce7c736",
        "sweep.svg": "7f70bdd4ac5082113ef4db09906a062699c7b3bc3cc6f7421fcb92f4c992bb9b",
    },
}


@pytest.mark.parametrize("run", sorted(ANALYZE_RUNS))
def test_analyze_bytes(workdir, capsys, run):
    stdout = _stdout_sha(capsys, "analyze", INPUT, "--out", "out", *ANALYZE_RUNS[run])
    digests = {path.name: _sha(path.read_bytes()) for path in (workdir / "out").iterdir()}
    assert {**digests, "stdout": stdout} == ANALYZE_PINS[run]


SUBCOMMAND_RUNS = {
    "inspect": ("inspect", INPUT),
    "inspect-json": ("inspect", INPUT, "--json"),
    "preprocess": ("preprocess", INPUT),
    "tendency": ("tendency", INPUT, "--seed", "7"),
    "tendency-power": ("tendency", INPUT, "--seed", "7", "--m", "40", "--trials", "4",
                       "--hopkins-power", "9"),
    "kmeans": ("kmeans", INPUT, "--seed", "1"),
    "kmeans-k4-random": ("kmeans", INPUT, "--seed", "2", "--k", "4", "--init", "random",
                         "--restarts", "7", "--max-iter", "5", "--tol", "0.001"),
    "kmeans-restarts-1": ("kmeans", INPUT, "--seed", "4", "--k", "3", "--restarts", "1"),
    "kmeans-random-restarts-3": ("kmeans", INPUT, "--seed", "2", "--k", "3", "--init", "random",
                                 "--restarts", "3"),
    "pam": ("pam", INPUT),
    "pam-k3-manhattan": ("pam", INPUT, "--k", "3", "--metric", "manhattan",
                         "--max-swap-iters", "1"),
    "silhouette-kmeans": ("silhouette", INPUT, "--algorithm", "kmeans", "--seed", "3"),
    "silhouette-pam": ("silhouette", INPUT),
    "sweep-kmeans": ("sweep", INPUT, "--seed", "5", "--restarts", "5", "--k-max", "6"),
    "sweep-pam": ("sweep", INPUT, "--algorithm", "pam", "--k-max", "5",
                  "--metric", "sqeuclidean"),
}

SUBCOMMAND_PINS = {
    "inspect": "481868eb24013e60024549e01ae2471ab1a7c0cc76d0d1a6905603eed2b24e69",
    "inspect-json": "ddf46a0e6d00da6b3a2bff893f327b666b6a728ea68bbf965e95f899d835d920",
    "kmeans": "a7a6afac66aee3060e50232ec740549ce4648c05da9829f24dee4e0e30c28495",
    "kmeans-k4-random": "e607de335c443cc374f268b0d35d5526d278a6241276cdb3a3350ae42b03954c",
    "kmeans-random-restarts-3": "7eea286883e60c7e4c3376e535b187a70132328e230435c14dc3899fe006d37d",
    "kmeans-restarts-1": "f4268efb0a2d820f4e83c8c50891bef60c40c2d1a8f449c9c27837775fd96574",
    "pam": "7457f344a615a55eaa57d232145233b7e85077f38400fa6dbfcdd550e8698577",
    "pam-k3-manhattan": "94a60862b1939180819040ffe273c1cccec7fcf5cbe9570a9a4e4d3413dbc7a8",
    "preprocess": "42572073aa6017b7e3f1721c673bd25bfc20ff286246f699f9baea824cdcb6a0",
    "silhouette-kmeans": "4268da5b84ca5cfefd46fe926e19fb1fade8f3222c809c85c240b277918ea386",
    "silhouette-pam": "b99601866778189b1a2d3f8a69fb5a1e50ca5fec8c401678faae7d8d9590a64e",
    "sweep-kmeans": "f33159d62e1a893fd201cb9de7a0b00bcab1f6d71d0bdbd0f6ca4e0abe7957c3",
    "sweep-pam": "619045eba4d8575198da7e0f3dd9dac0e7b47999ba720d5879100ea42e595ba5",
    "tendency": "bba0a06e84974086e7432c47484c927867d583695c95a9255cc5e45fc3757832",
    "tendency-power": "d64c0c01b180e95670344f5bbfcd5fcec294c7c1a39fe7dccba9129e4a466989",
}


@pytest.mark.parametrize("run", sorted(SUBCOMMAND_RUNS))
def test_subcommand_stdout(workdir, capsys, run):
    assert _stdout_sha(capsys, *SUBCOMMAND_RUNS[run]) == SUBCOMMAND_PINS[run]


PREPROCESS_PINS = {
    "arff": {
        "preprocess.json": "42572073aa6017b7e3f1721c673bd25bfc20ff286246f699f9baea824cdcb6a0",
        "preprocessed.arff": "528b900a5767ba62bcb77fed8f9ac162d1791090619f00bd2e97888526decb66",
        "stdout": "42572073aa6017b7e3f1721c673bd25bfc20ff286246f699f9baea824cdcb6a0",
    },
    "csv": {
        "preprocess.json": "42572073aa6017b7e3f1721c673bd25bfc20ff286246f699f9baea824cdcb6a0",
        "preprocessed.csv": "0db165690f9e782c35fc595ff13c413cf20ffe1e6bb208243a692728732f954a",
        "stdout": "42572073aa6017b7e3f1721c673bd25bfc20ff286246f699f9baea824cdcb6a0",
    },
}


@pytest.mark.parametrize("export", ["csv", "arff"])
def test_preprocess_files(workdir, capsys, export):
    stdout = _stdout_sha(capsys, "preprocess", INPUT, "--out", "prep", "--export", export,
                         "--json")
    digests = {path.name: _sha(path.read_bytes()) for path in (workdir / "prep").iterdir()}
    assert {**digests, "stdout": stdout} == PREPROCESS_PINS[export]


#: the synthetic table delimited by tabs, whose data rows numpy reads by the
#: same grammar as comma-delimited ones
TAB_PINS = {
    "preprocess.json": "42572073aa6017b7e3f1721c673bd25bfc20ff286246f699f9baea824cdcb6a0",
    "preprocessed.arff": "528b900a5767ba62bcb77fed8f9ac162d1791090619f00bd2e97888526decb66",
    "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "inspect": "142694c323d53f9eb77f7fb812da18792df4b14059a34a89fc350b063a3e1f65",
}


def test_tab_delimited_table_through_the_one_row_grammar(workdir, capsys, synth_csv):
    (workdir / "synthetic_wbc.tsv").write_bytes(synth_csv.replace(b",", b"\t"))
    stdout = _stdout_sha(capsys, "preprocess", "synthetic_wbc.tsv", "--delimiter", "\t",
                         "--out", "prep", "--export", "arff")
    digests = {path.name: _sha(path.read_bytes()) for path in (workdir / "prep").iterdir()}
    inspect = _stdout_sha(capsys, "inspect", "prep/preprocessed.arff", "--json")
    assert {**digests, "stdout": stdout, "inspect": inspect} == TAB_PINS


def _option_table():
    """Subcommand -> sorted (option strings or positional name, default)."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted((" ".join(a.option_strings) or a.dest, repr(a.default))
                     for a in p._actions)
        for name, p in sub.choices.items()
    }


FLAG_PINS = {
    "analyze": [
        ("--delimiter", "','"),
        ("--format", "None"),
        ("--header", "False"),
        ("--hopkins-power", "1"),
        ("--id-column", "'0'"),
        ("--init", "'k-means++'"),
        ("--json", "False"),
        ("--k", "2"),
        ("--k-max", "10"),
        ("--k-min", "2"),
        ("--label-column", "'-1'"),
        ("--m", "None"),
        ("--max-iter", "100"),
        ("--max-swap-iters", "200"),
        ("--metric", "'euclidean'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("--out", "'results'"),
        ("--restarts", "25"),
        ("--seed", "None"),
        ("--tol", "1e-09"),
        ("--trials", "30"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
    "inspect": [
        ("--delimiter", "','"),
        ("--format", "None"),
        ("--header", "False"),
        ("--id-column", "'0'"),
        ("--json", "False"),
        ("--label-column", "'-1'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
    "kmeans": [
        ("--delimiter", "','"),
        ("--format", "None"),
        ("--header", "False"),
        ("--id-column", "'0'"),
        ("--init", "'k-means++'"),
        ("--json", "False"),
        ("--k", "2"),
        ("--label-column", "'-1'"),
        ("--max-iter", "100"),
        ("--metric", "'euclidean'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("--out", "None"),
        ("--restarts", "25"),
        ("--seed", "None"),
        ("--tol", "1e-09"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
    "pam": [
        ("--delimiter", "','"),
        ("--format", "None"),
        ("--header", "False"),
        ("--id-column", "'0'"),
        ("--json", "False"),
        ("--k", "2"),
        ("--label-column", "'-1'"),
        ("--max-swap-iters", "200"),
        ("--metric", "'euclidean'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("--out", "None"),
        ("--seed", "None"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
    "preprocess": [
        ("--delimiter", "','"),
        ("--export", "'csv'"),
        ("--format", "None"),
        ("--header", "False"),
        ("--id-column", "'0'"),
        ("--json", "False"),
        ("--label-column", "'-1'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("--out", "None"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
    "silhouette": [
        ("--algorithm", "'pam'"),
        ("--delimiter", "','"),
        ("--format", "None"),
        ("--header", "False"),
        ("--id-column", "'0'"),
        ("--init", "'k-means++'"),
        ("--json", "False"),
        ("--k", "2"),
        ("--label-column", "'-1'"),
        ("--max-iter", "100"),
        ("--max-swap-iters", "200"),
        ("--metric", "'euclidean'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("--out", "None"),
        ("--restarts", "25"),
        ("--seed", "None"),
        ("--tol", "1e-09"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
    "sweep": [
        ("--algorithm", "'kmeans'"),
        ("--delimiter", "','"),
        ("--format", "None"),
        ("--header", "False"),
        ("--id-column", "'0'"),
        ("--json", "False"),
        ("--k-max", "10"),
        ("--k-min", "2"),
        ("--label-column", "'-1'"),
        ("--metric", "'euclidean'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("--out", "None"),
        ("--restarts", "25"),
        ("--seed", "None"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
    "tendency": [
        ("--delimiter", "','"),
        ("--format", "None"),
        ("--header", "False"),
        ("--hopkins-power", "1"),
        ("--id-column", "'0'"),
        ("--json", "False"),
        ("--label-column", "'-1'"),
        ("--m", "None"),
        ("--metric", "'euclidean'"),
        ("--missing", "'?'"),
        ("--no-normalize", "False"),
        ("--out", "None"),
        ("--seed", "None"),
        ("--trials", "30"),
        ("-h --help", "'==SUPPRESS=='"),
        ("input", "None"),
    ],
}


def test_flags_and_defaults():
    assert _option_table() == FLAG_PINS
