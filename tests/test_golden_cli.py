"""Golden stdout digests of a fixed list of CLI calls.

Every value below was taken before the K4-removal pipeline was consolidated to
one implementation of each primitive; a refactor must leave all of them
unchanged.  Documents are built by `construct` into a temporary directory and
named by the placeholders {t8}, {s4}, {c9} and {cx3}.
"""

import hashlib
import json

import pytest

from twomilton.cli import main

DOCS = {
    "t8": ["construct", "triple8"],
    "s4": ["construct", "strip", "--k", "4"],
    "c9": ["construct", "circulant", "--n", "9"],
    "cx3": ["construct", "counterexample", "--units", "3"],
}

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    ("construct strip", 0,
     "2e48063898bb529f10a5c4831cdcb89052c41bc8293ea20cd73d91e80411ee28"),
    ("construct strip --k 4", 0,
     "1d0b279807eacb4edabb946f97cd7a5ef4dcf71bf3fc88b47e297561c4f2bd84"),
    ("construct triple8", 0,
     "b3810b073a61f908bb8a0ccbce2eea69029ab2c8ea72c91e7f656055771c14d7"),
    ("construct circulant --n 9", 0,
     "b4e53bef0dfa7b40f9f54abdab3c937ab4612531d32f79a2a5fc2e392254041b"),
    ("construct counterexample --units 3", 0,
     "29c0858fc7b3a28048e4dc80b8c67fb55f9b0093757eb42861e1927c4a84cd18"),
    ("construct amplify --seed 7", 0,
     "e1c6413f68148d667823814b9295395006b5231f08f7978c61d12998a0d83b52"),
    ("construct exceptional --n 8", 0,
     "824356584e76db281906bedd1bb14bc3a357575be2e073621e9b6da5e0db1f86"),
    ("alpha --input {t8}", 0,
     "f5865b3fb7c464286b2f1d331c41afa213cdca72db4681fbb77d1d24624cffe3"),
    ("zeta --input {t8}", 0,
     "b59904bc3e5055ba26413b9789d34d0becbf41135fad47fd2a6aaff7a2f80e00"),
    ("psi --input {t8}", 0,
     "bbbed652b3f5c40d6bb9d5ee67fe123238609b08ef0abba41d5d0668e0e25878"),
    ("cover --input {t8}", 0,
     "f7dd7950015b8e5d4fdd030b763142ed0b90d8816e1b321e1e4d8598932a75cd"),
    ("alpha --input {s4}", 0,
     "884e2fd6a5ac136b69430be26207d4ba76ff7aa60e74dd7496b8b92554ea2b9b"),
    ("zeta --input {s4}", 0,
     "4f6106345982a445e18028df547475463770fb89919411f47baac3fbfea752be"),
    ("psi --input {s4}", 0,
     "b8a1b95e55302b6002752f31edf22cb74c565728108e0d07c79fd695c00ffbee"),
    ("cover --input {s4}", 0,
     "80743dea0c68f9ef489f4850b6ee8ab7a0648dcd60e4174c81835835db19e7d5"),
    ("reduce --input {s4}", 0,
     "f8406081837ccfdcdcb9cd3cdb50054c4b889d67f25999e248fbeb6e1734eed9"),
    ("reduce --diagnose --input {cx3}", 0,
     "ba7c8b992b61839d175c4cee6dfca41d8f0734a1f323c3aa30ef4e52013b2eca"),
    ("verify --input {c9} --claim pairwise-alpha<=3"
     " --claim pairwise-triangle-covered", 0,
     "91dfcc1a956121e4d0afc41e7e613f740c6ef4e0588e2d44154ee6d88ddec9f0"),
    ("verify --input {c9} --claim pairwise-alpha<=2", 1,
     "259acac367b16fcd86c3bda2007d149e2c05491328e86ddd489efee1a008d94f"),
    ("search-f --n 8 --k 2", 0,
     "3b6df93c16146088cb7127aa63cf50ea3d8c7d035cd5924a2b7cb1903c292642"),
    ("nothree --n 8", 0,
     "0e59fb60b8493a117acb4d70c3c588a9d0dd49fd72edc78c23e8425365f323be"),
    ("bounds", 0,
     "befc13afb90a2b8aec5ceee4b3fe3667b5d862ec6fb5bf89229527292d66f264"),
]


def stdout_digest(argv, out):
    """sha256 of stdout; search-f's elapsed_seconds is a timing, so it is dropped."""
    if argv[0] == "search-f":
        rep = json.loads(out)
        rep.pop("elapsed_seconds")
        out = json.dumps(rep, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def doc_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in DOCS.items():
        paths[name] = str(folder / f"{name}.json")
        assert main(argv + ["--out", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_unchanged(command, code, digest, doc_paths, capsys):
    argv = command.format(**doc_paths).split()
    assert main(argv) == code
    assert stdout_digest(argv, capsys.readouterr().out) == digest
